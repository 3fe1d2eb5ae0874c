"""Bounded-domain decision procedure and weakest preconditions."""

import random

import pytest

from bernabs import bdd as bddm
from bernabs import concrete as cc
from bernabs import parsing, randgen, theory
from bernabs.errors import ParseError, TheoryCapError
from bernabs.selftest import naive_cond


def ctx_of(text):
    return theory.TheoryContext.of_program(parsing.parse_concrete(text))


def cond(text, names):
    return parsing.parse_cond(text, names)


def test_satisfiable_examples():
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    assert ctx.satisfiable(cond("x < 0", ["x"]))
    assert not ctx.satisfiable(cond("x < 0 && x > 0", ["x"]))
    assert not ctx.satisfiable(cond("x < -4", ["x"]))


def test_entails_examples():
    ctx = theory.TheoryContext([cc.VarDecl("x", -8, 8)])
    a = cond("x < -4", ["x"])
    b = cond("x < 3", ["x"])
    assert ctx.entails(a, b)
    assert ctx.entails(a, a)
    ctx2 = theory.TheoryContext([cc.VarDecl("x", 0, 10)])
    assert ctx2.entails(cond("x < 5", ["x"]), cond("x < 7", ["x"]))


def test_entails_matches_sat_reduction():
    rng = random.Random(2)
    for _ in range(60):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        a = randgen.rand_cond(rng, decls)
        b = randgen.rand_cond(rng, decls)
        assert ctx.entails(a, b) == (not ctx.satisfiable(cc.CAnd(a, cc.CNot(b))))


def test_cap_enforced():
    """1024 x 1025 states, past concrete.DEFAULT_STATE_CAP = 2**20: the
    sweep raises when it is asked for, so no state is ever enumerated."""
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 1024), cc.VarDecl("y", 0, 1025)])
    assert cc.joint_size(ctx.decls) > cc.DEFAULT_STATE_CAP
    with pytest.raises(TheoryCapError, match="1049600 states"):
        ctx.states()
    with pytest.raises(TheoryCapError):
        ctx.satisfiable(cond("x < y", ["x", "y"]))


def test_wp_subst_examples():
    x_plus_1 = cc.Add(cc.IntVar("x"), cc.IntConst(1))
    target = cond("x < 3", ["x"])
    got = theory.wp_subst("x", x_plus_1, target)
    assert str(got) == "x + 1 < 3"
    got0 = theory.wp_subst("x", cc.IntConst(0), target)
    assert str(got0) == "0 < 3"
    untouched = theory.wp_subst("y", cc.IntConst(5), target)
    assert untouched == target


def test_wp_subst_keeps_labels():
    """The rebuild under a substitution keeps each node's coefficient and operator."""
    x, x_plus_1 = cc.IntVar("x"), cc.Add(cc.IntVar("x"), cc.IntConst(1))
    got = theory.wp_subst("x", x_plus_1, cc.Cmp(">=", cc.Scale(3, x), cc.IntConst(2)))
    assert got == cc.Cmp(">=", cc.Scale(3, x_plus_1), cc.IntConst(2))
    assert got != cc.Cmp("<", cc.Scale(2, x_plus_1), cc.IntConst(2))
    assert str(got) == "3*(x + 1) >= 2"


def test_wp_soundness_by_enumeration():
    rng = random.Random(8)
    for _ in range(40):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        stmt = randgen.rand_safe_assign(rng, decls)
        target = randgen.rand_cond(rng, decls)
        wp = theory.wp_subst(stmt.name, stmt.expr, target)
        prog = cc.ConcreteProgram(decls, (stmt,))
        for z in ctx.states():
            post = cc.eval_det(prog, z)
            assert naive_cond(target, ctx.names, post) == naive_cond(wp, ctx.names, z)


def test_memoization_counts_queries():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 8)], record_queries=True)
    c = cond("x < 5", ["x"])
    ctx.satisfiable(c)
    ctx.satisfiable(c)
    assert len(ctx.query_log) == 1


def test_emit_smtlib_sat():
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    script = theory.emit_smtlib(ctx, "sat", cond("x < 0", ["x"]))
    assert "(set-logic QF_LIA)" in script
    assert "(declare-const x Int)" in script
    assert "(assert (<= (- 2) x))" in script
    assert "(assert (< x 3))" in script
    assert "(assert (< x 0))" in script
    assert script.rstrip().endswith("(check-sat)")


def test_emit_smtlib_entailment_encoding():
    ctx = theory.TheoryContext([cc.VarDecl("x", -8, 8)])
    a, b = cond("x < -4", ["x"]), cond("x < 3", ["x"])
    script = theory.emit_smtlib(ctx, "entails", a, b)
    assert "(assert (< x (- 4)))" in script
    assert "(assert (not (< x 3)))" in script


def test_query_log_dump():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 4)], record_queries=True)
    ctx.satisfiable(cond("x < 2", ["x"]))
    ctx.entails(cond("x < 1", ["x"]), cond("x < 2", ["x"]))
    dump = theory.dump_query_log(ctx)
    assert dump.count("(check-sat)") == 2
    assert "(reset)" in dump


def _atom(rng, decls, reads):
    """A comparison of a random linear sum over `reads` with a constant."""
    expr = cc.IntConst(rng.randint(-3, 3))
    for d in reads:
        term = cc.Scale(rng.choice((-2, -1, 2, 3)), cc.IntVar(d.name))
        expr = cc.Add(expr, term) if rng.random() < 0.5 else cc.Sub(expr, term)
    return cc.Cmp(rng.choice(cc.CMP_OPS), expr, cc.IntConst(rng.randint(-6, 6)))


def _mask_cond(rng, decls, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice((cc.CTrue(), cc.CFalse()))
        reads = (
            [],  # a constant comparison
            [decls[len(decls) // 2]],  # the middle variable alone
            list(decls),  # every variable
            rng.sample(decls, rng.randint(1, len(decls))),
        )[kind - 1]
        return _atom(rng, decls, reads)
    kind = rng.randrange(3)
    if kind == 0:
        return cc.CNot(_mask_cond(rng, decls, depth - 1))
    node = (cc.CAnd, cc.COr)[kind - 1]
    return node(_mask_cond(rng, decls, depth - 1), _mask_cond(rng, decls, depth - 1))


def test_mask_is_the_truth_table():
    """Bit k of ``mask(c)`` is c at the k-th state of ``states()``, and no
    bit past the last state is set: over domains with negative bounds and
    width-1 variables, for atoms that read no variable, only the middle
    one, every one, or any subset."""
    rng = random.Random(29)
    for _ in range(150):
        decls = tuple(
            cc.VarDecl(f"v{i}", lo, lo + rng.choice((1, 1, 2, 3, 5)))
            for i, lo in enumerate(rng.randint(-6, 2) for _ in range(rng.randint(1, 4)))
        )
        ctx = theory.TheoryContext(decls)
        states = list(ctx.states())
        for _ in range(4):
            c = _mask_cond(rng, decls, 3)
            want = sum(1 << k for k, z in enumerate(states) if naive_cond(c, ctx.names, z))
            assert ctx.mask(c) == want, str(c)
            assert list(ctx.members(want)) == [z for z in states if naive_cond(c, ctx.names, z)]
            assert ctx.satisfiable(c) == (want != 0)


def test_two_thousand_width_one_variables_need_no_recursion():
    """A joint domain of one state over 2,000 variables: the masks are
    built level by level, so nothing recurses per variable, and a
    conjunction of an atom per variable is one fold."""
    from bernabs.domain import PredicateList

    decls = [cc.VarDecl(f"x{i}", 0, 1) for i in range(2000)]
    ctx = theory.TheoryContext(decls)
    names = ctx.names
    assert ctx.satisfiable(cond("x1999 < 1", names))
    assert not ctx.satisfiable(cond("x1000 > 0", names))
    assert ctx.entails(cond("x0 == 0", names), cond("x1999 >= 0", names))
    every = cc.cond_and_all([cc.Cmp("==", cc.IntVar(n), cc.IntConst(0)) for n in names])
    assert ctx.satisfiable(every) and ctx.entails(cc.CTrue(), every)
    preds = PredicateList([("a", cond("x0 == 0", names)), ("b", cond("x1999 == 1", names))], ctx)
    got = preds.strongest_implied(cond("x7 < 1", names))
    a, b = (bddm.var_bdd(preds.universe, preds.var(label)) for label in ("a", "b"))
    assert got.equiv(a & ~b)


def test_a_domain_past_the_cap_allocates_nothing():
    """2**40 states: the context is made, and the first mask or
    satisfiability query raises before anything of the domain's size is
    allocated."""
    import tracemalloc

    ctx = theory.TheoryContext([cc.VarDecl(f"x{i}", 0, 2) for i in range(40)])
    c = cond("x3 < 1", ctx.names)
    tracemalloc.start()
    try:
        with pytest.raises(TheoryCapError, match="1099511627776 states"):
            ctx.mask(c)
        with pytest.raises(TheoryCapError):
            ctx.satisfiable(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_a_negation_is_the_complement_of_one_build(monkeypatch):
    """5,000 stacked ``!`` around a condition give its mask or the
    complement: nothing recurses per ``!``, and only the condition under
    them is built, once, whichever of the two is asked first."""
    from bernabs import bern

    ctx = theory.TheoryContext([cc.VarDecl("x", -3, 4), cc.VarDecl("y", 0, 2)])
    c = cond("x < y || x == 2", ctx.names)
    states = list(ctx.states())
    want = sum(1 << k for k, z in enumerate(states) if naive_cond(c, ctx.names, z))
    built = []
    real_fold = bern.fold

    def fold(tree, visit):
        if getattr(visit, "__func__", None) is theory.TheoryContext._combine:
            built.append(str(tree))
        return real_fold(tree, visit)

    monkeypatch.setattr(bern, "fold", fold)
    stacked = c
    for _ in range(5000):
        stacked = cc.CNot(stacked)
    full = (1 << len(states)) - 1
    assert ctx.mask(cc.CNot(stacked)) == full ^ want
    assert built == [str(c)]
    assert ctx.mask(stacked) == want
    assert ctx.mask(c) == want and ctx.satisfiable(cc.CNot(stacked)) == (want != full)
    assert built == [str(c)]


def test_an_undeclared_variable_is_named_with_every_other():
    """Closedness is checked per new atom, but the error names every
    undeclared variable of the condition, and nothing is kept."""
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 4)])
    bad = cond("z > 1 || x < 2 && y < 1", ["x", "y", "z"])
    for query in (ctx.mask, ctx.satisfiable, lambda c: ctx.entails(cc.CTrue(), c)):
        with pytest.raises(ParseError, match="undeclared variables: y, z$"):
            query(bad)
        with pytest.raises(ParseError, match="undeclared variables: y, z$"):
            query(cc.CNot(cc.CNot(bad)))
    assert ctx.mask(cond("x < 2", ["x"])) == 0b0011


def test_a_new_atom_is_folded_again_only_to_compile_it(monkeypatch):
    """A mask miss folds the condition for its text and for its mask; the
    mask fold gives each new atom its text and its variables, so an atom
    is folded once more, to compile it, and never to gather its reads."""
    from bernabs import bern

    ctx = theory.TheoryContext([cc.VarDecl("x", -3, 4), cc.VarDecl("y", 0, 2), cc.VarDecl("z", 0, 3)])
    c = cond("x + 2*y < z || !(y == 1) && 3 > x - z", ctx.names)
    folded, real_fold = [], bern.fold
    monkeypatch.setattr(bern, "fold", lambda tree, visit: folded.append(tree) or real_fold(tree, visit))
    states = list(ctx.states())
    assert ctx.mask(c) == sum(1 << k for k, s in enumerate(states) if naive_cond(c, ctx.names, s))
    atoms = [c.left, c.right.left.operand, c.right.right]
    assert folded == [c, c] + atoms
