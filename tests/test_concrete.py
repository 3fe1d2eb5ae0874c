"""Concrete language: parsing, deterministic and distribution semantics."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernabs import concrete as cc
from bernabs import corpus, parsing, randgen, theorems, theory
from bernabs.selftest import naive_cond, naive_int
from bernabs.errors import (
    ConditionOnImpossibleError,
    ParseError,
    RangeViolationError,
)


def test_parse_branch_reset():
    prog = parsing.parse_concrete(corpus.BRANCH_RESET_CP)
    assert len(prog.body) == 1
    stmt = prog.body[0]
    assert isinstance(stmt, cc.If)
    assert len(stmt.then) == 1 and len(stmt.els) == 1
    assert isinstance(stmt.then[0], cc.Assign)


def test_parse_empty_program():
    prog = parsing.parse_concrete("var x in [0, 4)\n")
    assert prog.body == ()


def test_parse_undeclared_variable():
    with pytest.raises(ParseError):
        parsing.parse_concrete("var x in [0, 4)\nx = y")


def test_parse_rejects_loops():
    with pytest.raises(ParseError, match="unsupported"):
        parsing.parse_concrete("var x in [0,4)\nwhile (x < 3) { x = x + 1 }")


def test_parse_nonlinear_rejected():
    with pytest.raises(ParseError, match="nonlinear"):
        parsing.parse_concrete("var x in [0,4)\nvar y in [0,4)\nx = x * y")


def test_condition_reads_back_whole():
    rng = random.Random(31)
    for _ in range(300):
        decls = randgen.rand_decls(rng)
        cond = randgen.rand_cond(rng, decls, depth=3)
        assert parsing.parse_cond(str(cond), [d.name for d in decls]) == cond
    with pytest.raises(ParseError, match=r"expected the end of the text, found '\)' \(line 1, column 6\)"):
        parsing.parse_cond("x < 1) observe(x > 2", ["x"])


def test_draw_outside_declared_range_rejected():
    with pytest.raises(ParseError):
        parsing.parse_concrete("var x in [0, 4)\nx = unif [0, 8)")


def test_eval_det_branch_reset():
    prog = parsing.parse_concrete(corpus.BRANCH_RESET_CP)
    assert cc.eval_det(prog, (-1,)) == (0,)
    assert cc.eval_det(prog, (1,)) == (2,)


def test_eval_det_identity_on_empty():
    prog = parsing.parse_concrete("var x in [0, 4)\n")
    assert cc.eval_det(prog, (3,)) == (3,)


def test_eval_det_blocked():
    prog = parsing.parse_concrete("var x in [0, 4)\nobserve(x < 2)")
    assert cc.eval_det(prog, (3,)) is cc.BLOCKED


def test_eval_det_range_violation():
    prog = parsing.parse_concrete("var x in [0, 4)\nx = x + 1")
    with pytest.raises(RangeViolationError):
        cc.eval_det(prog, (3,))


def test_eval_det_is_deterministic():
    prog = parsing.parse_concrete(corpus.BRANCH_RESET_CP)
    assert cc.eval_det(prog, (2,)) == cc.eval_det(prog, (2,))


def test_uniform_two_points():
    prog = parsing.parse_concrete("var x in [0, 4)\nx = unif [0, 2)")
    dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0,)))
    assert dict(dist.items()) == {
        (0,): Fraction(1, 2),
        (1,): Fraction(1, 2),
    }


def test_observe_drops_mass():
    prog = parsing.parse_concrete("var x in [0, 4)\nx = unif [0, 2)\nobserve(x < 1)")
    dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0,)))
    assert dist.survival == Fraction(1, 2)
    assert dist.mass_of((0,)) == Fraction(1, 2)


def test_chain_draws_eleven_thirty_seconds():
    prog = parsing.parse_concrete(corpus.CHAIN_DRAWS_CP)
    dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0, 0, 0)))
    c_lt_5 = parsing.parse_cond("c < 5", ["c"])
    assert cc.query_prob(dist, c_lt_5) == Fraction(11, 32)
    # sanity anchor: the first draw hits a < 5 with probability 1/2
    assert cc.query_prob(dist, parsing.parse_cond("a < 5", ["a"])) == Fraction(1, 2)


def test_query_prob_trivial_and_impossible():
    prog = parsing.parse_concrete("var x in [0, 2)\nx = unif [0, 2)")
    dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0,)))
    assert cc.query_prob(dist, cc.CTrue()) == 1
    assert cc.query_prob(dist, cc.CFalse()) == 0
    dead = parsing.parse_concrete("var x in [0, 2)\nobserve(x > 5)")
    empty = cc.eval_dist(dead, cc.ConcreteDistribution.point(dead, (0,)))
    with pytest.raises(ConditionOnImpossibleError):
        cc.query_prob(empty, cc.CTrue())


def test_point_mass_matches_eval_det():
    prog = parsing.parse_concrete(corpus.BRANCH_RESET_CP)
    for x in (-5, -1, 0, 3):
        dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (x,)))
        out = cc.eval_det(prog, (x,))
        assert dist.survival == 1
        assert dist.mass_of(out) == 1
    with pytest.raises(ValueError, match="not a state"):
        cc.ConcreteDistribution.point(prog, (0, 0))


def test_mass_conserved_without_observe():
    rng = random.Random(5)
    for _ in range(20):
        prog = randgen.rand_concrete_program(rng, draws=True, observes=False)
        dist = cc.eval_dist(prog, cc.ConcreteDistribution.uniform_joint(prog))
        assert dist.survival == 1


def naive_paths(program, state):
    """Independent path-enumeration oracle: list of (state, weight)."""
    names = program.var_names

    def put(st, name, value):
        i = names.index(name)
        return st[:i] + (value,) + st[i + 1 :]

    def go(body, st, w):
        if not body:
            return [(st, w)]
        stmt, rest = body[0], body[1:]
        if isinstance(stmt, cc.Assign):
            return go(rest, put(st, stmt.name, naive_int(stmt.expr, names, st)), w)
        if isinstance(stmt, cc.Draw):
            out = []
            share = Fraction(1, stmt.hi - stmt.lo)
            for v in range(stmt.lo, stmt.hi):
                out.extend(go(rest, put(st, stmt.name, v), w * share))
            return out
        if isinstance(stmt, cc.Observe):
            if naive_cond(stmt.cond, names, st):
                return go(rest, st, w)
            return []
        if isinstance(stmt, cc.If):
            branch = stmt.then if naive_cond(stmt.cond, names, st) else stmt.els
            return go(branch + rest, st, w)
        raise AssertionError(stmt)

    return go(tuple(program.body), state, Fraction(1))


def test_eval_dist_matches_naive_paths():
    rng = random.Random(11)
    for _ in range(40):
        prog = randgen.rand_concrete_program(
            rng, max_vars=3, max_range=8, max_stmts=6, draws=True, observes=True
        )
        start = tuple(rng.randrange(d.lo, d.hi) for d in prog.decls)
        dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, start))
        expected = {}
        for key, w in naive_paths(prog, start):
            expected[key] = expected.get(key, Fraction(0)) + w
        assert dict(dist.items()) == {k: v for k, v in expected.items() if v > 0}


def fraction_eval_dist(program, mass):
    """The distribution loop with a Fraction per state, as `eval_dist` ran
    before it kept integer counts: the reference for the counts."""

    def step(block, mass):
        for stmt in block:
            if isinstance(stmt, cc.Assign):
                decl = program.decl(stmt.name)
                fn = cc.compile(stmt.expr, program.var_names)
                i = program.var_names.index(stmt.name)
                out = {}
                for key, w in mass.items():
                    value = cc._checked(decl, fn(key))
                    nk = key[:i] + (value,) + key[i + 1 :]
                    out[nk] = out.get(nk, Fraction(0)) + w
                mass = out
            elif isinstance(stmt, cc.Draw):
                decl = program.decl(stmt.name)
                if not (decl.lo <= stmt.lo < stmt.hi <= decl.hi):
                    raise RangeViolationError(f"draw [{stmt.lo}, {stmt.hi}) escapes")
                i = program.var_names.index(stmt.name)
                share = Fraction(1, stmt.hi - stmt.lo)
                out = {}
                for key, w in mass.items():
                    for value in range(stmt.lo, stmt.hi):
                        nk = key[:i] + (value,) + key[i + 1 :]
                        out[nk] = out.get(nk, Fraction(0)) + w * share
                mass = out
            elif isinstance(stmt, cc.Observe):
                fn = cc.compile(stmt.cond, program.var_names)
                mass = {k: w for k, w in mass.items() if fn(k)}
            else:
                fn = cc.compile(stmt.cond, program.var_names)
                then_in = {k: w for k, w in mass.items() if fn(k)}
                else_in = {k: w for k, w in mass.items() if not fn(k)}
                mass = step(stmt.then, then_in)
                for key, w in step(stmt.els, else_in).items():
                    mass[key] = mass.get(key, Fraction(0)) + w
        return mass

    return {k: w for k, w in step(program.body, mass).items() if w > 0}


def drawn_from(rng, decl, bad, width=None):
    """A draw of a sub-range of `decl`'s range, `width` wide if given; with
    chance `bad`, one that is empty or escapes the range instead."""
    if rng.random() < bad:
        lo = rng.randrange(decl.lo, decl.hi)
        return cc.Draw(decl.name, *rng.choice([(lo, lo), (lo, decl.hi + 1), (decl.lo - 1, lo + 1)]))
    width = width or rng.randint(1, decl.size)
    lo = rng.randint(decl.lo, decl.hi - width)
    return cc.Draw(decl.name, lo, lo + width)


def shaped_program(rng, decls, bad=0.0):
    """A random prefix, then an `if` whose arms draw the same variable with
    unlike widths: the then arm goes on with a nested `if` that draws and
    observes, the else arm may observe."""
    d = rng.choice(decls)
    widths = rng.sample(range(1, d.size + 1), 2)
    prefix = randgen.rand_concrete_program(rng, max_stmts=2, draws=True, decls=decls).body
    nested = cc.If(
        randgen.rand_cond(rng, decls),
        (drawn_from(rng, rng.choice(decls), bad), cc.Observe(randgen.rand_cond(rng, decls))),
        (randgen.rand_safe_assign(rng, decls),),
    )
    observed = (cc.Observe(randgen.rand_cond(rng, decls)),) if rng.random() < 0.5 else ()
    split = cc.If(
        randgen.rand_cond(rng, decls),
        (drawn_from(rng, d, bad, widths[0]), nested),
        (drawn_from(rng, d, bad, widths[1]),) + observed,
    )
    return cc.ConcreteProgram(decls, prefix + (split,))


def shaped_input(rng, prog):
    """An input distribution and its masses as Fractions: a point, a
    filtered uniform joint, a filtered seeded joint, or the output of a
    first program, whose masses may have unlike denominators."""
    kind = rng.choice(["point", "uniform", "seeded", "output"])
    axes = [range(d.lo, d.hi) for d in prog.decls]
    if kind == "point":
        key = tuple(d.lo for d in prog.decls)
        return cc.ConcreteDistribution.point(prog, key), {key: Fraction(1)}
    if kind == "output":
        first = shaped_program(rng, prog.decls)
        uniform = dict.fromkeys(itertools.product(*axes), Fraction(1, math.prod(map(len, axes))))
        dist = cc.eval_dist(first, cc.ConcreteDistribution.uniform_joint(first))
        return dist, fraction_eval_dist(first, uniform)
    cond = randgen.rand_cond(rng, prog.decls)
    if kind == "uniform":
        dist = cc.ConcreteDistribution.uniform_joint(prog).filtered(cond)
    else:
        chosen = {d.name for d in prog.decls if rng.random() < 0.5}
        dist = theorems._seeded_joint(prog, chosen).filtered(cond)
        axes = [r if d.name in chosen else (d.lo,) for d, r in zip(prog.decls, axes)]
    weight = Fraction(1, math.prod(map(len, axes)))
    fn = cc.compile(cond, prog.var_names)
    return dist, {k: weight for k in itertools.product(*axes) if fn(k)}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_eval_dist_counts_match_the_fraction_loop(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    prog = shaped_program(rng, randgen.rand_decls(rng, max_vars=3, max_range=6), bad=0.05)
    dist, mass = shaped_input(rng, prog)
    assert dict(dist.items()) == mass and dist.survival == sum(mass.values(), Fraction(0))
    try:
        want = fraction_eval_dist(prog, mass)
    except RangeViolationError:
        with pytest.raises(RangeViolationError):
            cc.eval_dist(prog, dist)
        return
    got = cc.eval_dist(prog, dist)
    assert got.items() == sorted(want.items())
    assert got.survival == sum(want.values(), Fraction(0))


@pytest.mark.parametrize("lo, hi", [(0, 0), (2, 1), (-1, 2), (3, 5), (0, -7)])
def test_a_bad_draw_range_raises_at_the_draw(lo, hi):
    decls = (cc.VarDecl("x", 0, 4), cc.VarDecl("y", 0, 3))
    x = cc.IntVar("x")
    for body in [
        (cc.Draw("y", 0, 3), cc.Draw("x", lo, hi)),
        # in an arm no state takes, after an observe nothing survives
        (cc.Observe(cc.CFalse()), cc.If(cc.Cmp("<", x, cc.IntConst(9)), (cc.Draw("x", lo, hi),), ())),
        (cc.If(cc.CFalse(), (cc.Draw("x", lo, hi),), (cc.Draw("y", 0, 2),)),),
    ]:
        prog = cc.ConcreteProgram(decls, body)
        with pytest.raises(RangeViolationError, match="escapes x's range"):
            cc.eval_dist(prog, cc.ConcreteDistribution.uniform_joint(prog))


def test_counts_over_one_scale():
    names = ("x",)
    dist = cc.ConcreteDistribution(names, {(0,): 3, (1,): 0, (2,): 1, (3,): -2}, 8)
    assert len(dist) == 2 and dist.counts == {(0,): 3, (2,): 1}
    assert dist.items() == [((0,), Fraction(3, 8)), ((2,), Fraction(1, 8))]
    assert dist.survival == Fraction(1, 2)
    assert dist.mass_of((1,)) == 0 and dist.mass_of((5,)) == 0
    assert dist.mass_of((0,)) == Fraction(3, 8)
    kept = dist.filtered(parsing.parse_cond("x > 1", ["x"]))
    assert kept.scale == 8 and kept.counts == {(2,): 1}
    assert kept.survival == Fraction(1, 8)
    assert cc.query_prob(dist, parsing.parse_cond("x > 1", ["x"])) == Fraction(1, 4)


def test_compile_matches_reference_on_tuple_states():
    rng = random.Random(12)
    for _ in range(150):
        decls = randgen.rand_decls(rng)
        names = [d.name for d in decls]
        rng.shuffle(names)  # tuple positions need not follow declaration order
        expr = randgen.rand_int_expr(rng, decls, depth=3)
        trees = [
            (randgen.rand_cond(rng, decls, depth=3), naive_cond),
            (cc.Cmp(rng.choice(cc.CMP_OPS), expr, randgen.rand_int_expr(rng, decls)), naive_cond),
            (expr, naive_int),
        ]
        ranges = {d.name: range(d.lo, d.hi) for d in decls}
        for tree, reference in trees:
            fn = cc.compile(tree, names)
            for key in itertools.product(*(ranges[n] for n in names)):
                assert fn(key) == reference(tree, names, key)


def test_text_and_smtlib_golden():
    x, y = cc.IntVar("x"), cc.IntVar("y")
    one = cc.IntConst(1)
    cond = cc.COr(
        cc.CAnd(
            cc.Cmp("!=", cc.Sub(x, cc.Add(y, cc.IntConst(-3))), cc.Scale(-2, cc.Sub(x, y))),
            cc.CNot(cc.Cmp("<=", cc.Scale(3, x), one)),
        ),
        cc.CTrue(),
    )
    assert str(cond) == "((x - (y + -3) != -2*(x - y)) && (!(3*x <= 1))) || (T)"
    other = cc.CAnd(
        cc.Cmp("==", cc.Sub(cc.Add(x, y), cc.Sub(x, one)), cc.Scale(2, cc.Add(x, one))),
        cc.CFalse(),
    )
    assert str(other) == "(x + y - (x - 1) == 2*(x + 1)) && (F)"
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3), cc.VarDecl("y", 0, 4)])
    assert theory.emit_smtlib(ctx, "entails", cond, other) == (
        "(set-logic QF_LIA)\n"
        "(declare-const x Int)\n"
        "(assert (<= (- 2) x))\n"
        "(assert (< x 3))\n"
        "(declare-const y Int)\n"
        "(assert (<= 0 y))\n"
        "(assert (< y 4))\n"
        "(assert (or (and (not (= (- x (+ y (- 3))) (* (- 2) (- x y)))) "
        "(not (<= (* 3 x) 1))) true))\n"
        "(assert (not (and (= (- (+ x y) (- x 1)) (* 2 (+ x 1))) false)))\n"
        "(check-sat)\n"
    )


def test_long_chain_walks_without_recursion():
    chain = cc.IntVar("x")
    for _ in range(5000):
        chain = cc.Add(chain, cc.IntConst(1))
    cond = cc.Cmp("<", chain, cc.IntVar("y"))
    assert str(cond) == "x" + " + 1" * 5000 + " < y"
    assert cc.tree_vars(cond) == {"x", "y"}
    assert str(theory.wp_subst("x", cc.IntVar("z"), cond)) == "z" + " + 1" * 5000 + " < y"
    assert parsing._height(cond) == 5002


def _add_chain(links, last=1):
    chain = cc.IntVar("x")
    for i in range(links):
        chain = cc.Add(chain, cc.IntConst(last if i == links - 1 else 1))
    return chain


def test_long_chain_compares_hashes_and_prints_without_recursion():
    chain, twin = _add_chain(5000), _add_chain(5000)
    assert chain == twin and hash(chain) == hash(twin)
    assert chain != _add_chain(5000, last=2)
    assert chain != _add_chain(4999)
    text = repr(cc.Cmp("<", chain, cc.IntVar("y")))
    assert text.startswith("Cmp(op='<', left=" + "Add(left=" * 5000 + "IntVar(name='x'), ")
    assert text.endswith(", right=IntConst(value=1))" * 5000 + ", right=IntVar(name='y'))")
    assert {chain: 1}[twin] == 1


def test_equality_sees_coefficients_and_operators():
    x, y = cc.IntVar("x"), cc.IntVar("y")
    one = cc.IntConst(1)
    # trees that differ only in a label are unequal, hash apart and print differently
    for a, b in ((cc.Cmp("<", x, one), cc.Cmp("<=", x, one)), (cc.Scale(2, x), cc.Scale(3, x))):
        assert a != b and hash(a) != hash(b) and repr(a) != repr(b) and str(a) != str(b)
    assert cc.Scale(2, x) == cc.Scale(2, x) and cc.Scale(2, x) != cc.Scale(3, x)
    assert cc.Cmp("<", x, y) != cc.Cmp("<=", x, y)
    assert cc.Add(x, y) != cc.Sub(x, y) and cc.CAnd(cc.CTrue(), cc.CFalse()) != cc.COr(cc.CTrue(), cc.CFalse())
    assert len({cc.Cmp("<", x, y), cc.Cmp("<", x, y), cc.Cmp(">", x, y)}) == 2
