"""Symbolic inference: transfer functions, reachability, queries."""

import itertools
import random
from fractions import Fraction

import pytest

from bernabs import bdd as bddm
from bernabs import bern, corpus, engine, parsing, randgen
from bernabs import builder as bld
from bernabs.errors import ConditionOnImpossibleError, ModeError


def test_transfer_golden_flip_conjunction():
    # from Delta = {x<4}, the statement {x<4} = {x<4} && flip(theta) gives
    # Delta' = ({x<4} && f) || (!{x<4} && !f)
    prog = parsing.parse_bern("bool {x<4}\n{x<4} = {x<4} && flip(1/2)")
    ctx = engine.SymbolicContext(prog)
    init = ctx.state_bdd(bern.BVar("x<4"))
    out = engine.transfer(ctx, engine.SymbolicState(init, 0), ctx.program.body[0])
    x = bddm.var_bdd(ctx.universe, ctx.state_vars["x<4"])
    f = bddm.var_bdd(ctx.universe, ctx.flip_vars[0])
    assert out.delta.equiv((x & f) | (~x & ~f))


def test_transfer_observe_false():
    prog = parsing.parse_bern("bool a\nobserve(F)")
    run = engine.run_symbolic(prog)
    assert run.at("end").delta.is_false


def test_transfer_identity_assignment():
    prog = parsing.parse_bern("bool a\na = a")
    run = engine.run_symbolic(prog)
    assert run.at("end").delta.is_true


def test_run_symbolic_empty_program():
    prog = parsing.parse_bern("bool a\n")
    run = engine.run_symbolic(prog)
    assert len(run.points) == 1
    assert run.at(0).delta.is_true


def test_chain_draws_query():
    prog = parsing.parse_bern(corpus.CHAIN_DRAWS_BERN)
    result = engine.query(prog, parsing.parse_event("{c<5}", prog.decls))
    assert result.probability == Fraction(11, 32)
    assert result.survival == 1
    # five flip variables and three predicate variables in the final Delta
    run = engine.run_symbolic(prog)
    assert len(run.ctx.flip_vars) == 5
    assert len(run.ctx.state_vars) == 3


def test_a_name_may_end_in_a_prime():
    # the engine's primed copy of a is no name a program can declare
    prog = parsing.parse_bern("bool a\nbool {a'}\na = flip(1/3)\n")
    result = engine.query(prog, bern.BVar("a"), init={"a": False, "a'": False})
    assert result.probability == Fraction(1, 3)


def test_query_trivial_event():
    prog = parsing.parse_bern(corpus.CHAIN_DRAWS_BERN)
    assert engine.query(prog, bern.BTrue()).probability == 1


def test_bayes_net_conditional_query():
    prog = parsing.parse_bern(corpus.BAYES_NET_BERN)
    result = engine.query(prog, bern.BVar("a"), init={"a": False, "b": False})
    assert result.probability == Fraction(1, 2)
    assert result.survival == Fraction(1, 2)


def test_query_conditioning_on_impossible():
    prog = parsing.parse_bern("bool a\nobserve(F)")
    with pytest.raises(ConditionOnImpossibleError):
        engine.query(prog, bern.BVar("a"))
    unnorm = engine.query(prog, bern.BVar("a"), normalized=False)
    assert unnorm.probability == 0 and unnorm.survival == 0


def test_star_rejected():
    prog = parsing.parse_bern("bool a\na = *")
    with pytest.raises(ModeError):
        engine.run_symbolic(prog)


def test_init_kinds():
    """None, a state dict and a BERN expression are inits; a Bdd, which no
    caller can hold over the universe the run makes, is not."""
    prog = parsing.parse_bern("bool a\nbool b\nb = a")
    assert engine.query(prog, bern.BVar("b"), init={"a": True, "b": False}).probability == 1
    assert engine.query(prog, bern.BVar("b"), init=bern.BNot(bern.BVar("a"))).probability == 0
    assert engine.run_symbolic(prog, init=None).at(0).delta.is_true
    other = engine.SymbolicContext(prog)
    with pytest.raises(TypeError):
        engine.run_symbolic(prog, init=bddm.true_bdd(other.universe))


def test_functional_dependency_from_point_init():
    """From a point init, each flip assignment in Δ determines exactly one
    state assignment: counting over states and flips equals counting over
    the flips once the states are projected out."""
    rng = random.Random(3)
    for _ in range(20):
        prog = randgen.rand_bern_program(rng, ("v0", "v1"), max_flips=4, max_stmts=5)
        init = {n: rng.random() < 0.5 for n in prog.decls}
        run = engine.run_symbolic(prog, init=init)
        delta = run.at("end").delta
        states = list(run.ctx.state_vars.values())
        flips = list(run.ctx.flip_vars.values())
        assert delta.count_models(states + flips) == delta.exists(states).count_models(flips)


def test_monotone_survival():
    rng = random.Random(29)
    for _ in range(20):
        prog = randgen.rand_bern_program(rng, ("v0", "v1"), max_flips=5, max_stmts=6)
        init = {n: rng.random() < 0.5 for n in prog.decls}
        run = engine.run_symbolic(prog, init=init)
        masses = [run.survival(k) for k in range(len(run.points))]
        assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_query_json_shape():
    prog = parsing.parse_bern(corpus.CHAIN_DRAWS_BERN)
    blob = engine.query(prog, parsing.parse_event("{c<5}", prog.decls)).to_json()
    assert blob == {
        "point": "end",
        "event": "{c<5}",
        "numerator": 11,
        "denominator": 32,
        "survival_numerator": 1,
        "survival_denominator": 1,
    }


def _full_frame_delta(ctx, delta, stmt):
    """The relational image over the whole frame, kept as a reference: every
    variable renamed to its primed copy, one iff per declared variable
    (untouched ones included), every primed copy quantified out."""
    if isinstance(stmt, bern.PAssign):
        if not stmt.targets:
            return delta
        moved = delta.rename({ctx.state_vars[n]: ctx.primed_vars[n] for n in ctx.program.decls})
        updates = dict(zip(stmt.targets, stmt.exprs))
        cons = bddm.true_bdd(ctx.universe)
        for name in ctx.program.decls:
            e = updates.get(name, bern.BVar(name))
            rhs = engine.expr_to_bdd(ctx.universe, e, ctx.primed_vars.__getitem__, ctx.flip_var)
            cons = cons & bddm.var_bdd(ctx.universe, ctx.state_vars[name]).iff(rhs)
        return (moved & cons).exists(ctx.primed_vars.values())
    if isinstance(stmt, (bern.BObserve, bern.BAssume)):
        return delta & ctx.state_bdd(stmt.cond)
    guard = ctx.state_bdd(stmt.cond)
    then_out = delta & guard
    for s in stmt.then:
        then_out = _full_frame_delta(ctx, then_out, s)
    else_out = delta & ~guard
    for s in stmt.els:
        else_out = _full_frame_delta(ctx, else_out, s)
    return then_out | else_out


def _rotations(rng, names):
    """Multi-target assignments that read their own targets: swaps and
    rotations, some with a flip or another variable mixed in."""
    k = rng.randint(2, len(names))
    targets = rng.sample(list(names), k)
    shift = rng.randint(1, k - 1)
    exprs = [bern.BVar(targets[(i + shift) % k]) for i in range(k)]
    if rng.random() < 0.5:
        exprs[0] = bern.BAnd(exprs[0], bern.BVar(rng.choice(names)))
    return bern.PAssign(tuple(targets), tuple(exprs))


def _mixed_reads(rng, names, sites):
    """A parallel assignment whose right-hand sides read some of its
    targets and not others, or none of them, with fresh flips from the
    id counter `sites` mixed in."""
    targets = rng.sample(list(names), rng.randint(1, len(names)))
    pool = [n for n in names if n not in targets]
    if rng.random() < 0.6:
        pool += rng.sample(targets, rng.randint(1, len(targets)))
    exprs = []
    for _ in targets:
        leaves = [bern.BVar(n) for n in rng.sample(pool, min(len(pool), rng.randint(0, 2)))]
        if rng.random() < 0.4:
            leaves.append(bern.Flip(next(sites), randgen.rand_theta(rng)))
        e = leaves[0] if leaves else rng.choice((bern.BTrue(), bern.BFalse()))
        for leaf in leaves[1:]:
            e = rng.choice((bern.BAnd, bern.BOr, bern.BIff))(e, leaf)
        exprs.append(e)
    return bern.PAssign(tuple(targets), tuple(exprs))


def _reads_a_target(stmt):
    names = set()
    for e in stmt.exprs:
        bern.fold(e, lambda node, _: isinstance(node, bern.BVar) and names.add(node.name))
    return not names.isdisjoint(stmt.targets)


def test_targets_only_transfer_matches_full_frame():
    """The image renames only the targets a right-hand side reads and
    quantifies the others out of Δ first; on swaps, rotations and
    assignments that read some, all or none of their targets, from a point
    init, from T and from an expression init, it is the full-frame image."""
    rng = random.Random(41)
    kinds = set()
    for trial in range(60):
        names = tuple(f"v{i}" for i in range(rng.randint(4, 6)))
        prog = randgen.rand_bern_program(rng, names, max_flips=4, max_stmts=6)
        body = list(prog.body)
        sites = itertools.count(len(prog.flip_sites()))
        for _ in range(rng.randint(1, 3)):
            body.insert(rng.randint(0, len(body)), _rotations(rng, names))
        for _ in range(rng.randint(1, 3)):
            body.insert(rng.randint(0, len(body)), _mixed_reads(rng, names, sites))
        prog = bern.BernProgram(names, tuple(body), "prob")
        kinds.update(_reads_a_target(s) for s in body if isinstance(s, bern.PAssign))
        for init in _inits(rng, prog):
            run = engine.run_symbolic(prog, init=init)
            ctx = run.ctx
            delta = run.at(0).delta
            for k, stmt in enumerate(ctx.program.body, start=1):
                delta = _full_frame_delta(ctx, delta, stmt)
                assert run.at(k).delta.equiv(delta)
            for k in range(len(run.points)):
                assert run.survival(k) == engine._survival(ctx, run.at(k).delta)
                assert run.survival(k) is run.survival(k)  # computed once per point
    assert kinds == {False, True}


def test_an_assignment_renames_only_the_targets_it_reads(monkeypatch):
    """`a, b = b, c` renames b alone, `c = a` reads no target and renames
    nothing, and `a = a && flip(1/2)` renames a."""
    prog = parsing.parse_bern("bool a\nbool b\nbool c\na, b = b, c\nc = a\na = a && flip(1/2)")
    renamed = []
    real = bddm.Bdd.rename

    def rename(delta, mapping):
        if mapping:
            renamed.append(sorted(v.label for v in mapping))
        return real(delta, mapping)

    monkeypatch.setattr(bddm.Bdd, "rename", rename)
    run = engine.run_symbolic(prog, init={"a": False, "b": True, "c": False})
    assert renamed == [["b"], ["a"]]
    assert engine.query(run, bern.BVar("a")).probability == Fraction(1, 2)
    assert engine.query(run, bern.BVar("c")).probability == 1


def test_swap_and_rotation_images():
    prog = parsing.parse_bern("bool a\nbool b\nbool c\na, b = b, a\na, b, c = b, c, a")
    ctx = engine.SymbolicContext(prog)
    a, b, c = (bddm.var_bdd(ctx.universe, ctx.state_vars[n]) for n in "abc")
    start = engine.SymbolicState(a & ~b & c, 0)
    swapped = engine.transfer(ctx, start, ctx.program.body[0])
    assert swapped.delta.equiv(~a & b & c)
    rotated = engine.transfer(ctx, swapped, ctx.program.body[1])
    assert rotated.delta.equiv(a & b & ~c)


def _inits(rng, prog):
    """A point init, T, and a flip-free expression init over the variables."""
    point = {n: rng.random() < 0.5 for n in prog.decls}
    return [point, None, randgen._BernBuilder(rng, prog.decls, 0, 0.0).expr(2)]


def test_marginals_are_the_mass_of_each_variable():
    """At every point, from every kind of init, each variable's entry in the
    one-pass table is (Δ & v).wmc, and a query of the variable reads it;
    flips of θ = 0 and θ = 1 and points that nothing survives included."""
    rng = random.Random(17)
    impossible = 0
    for trial in range(40):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        prog = randgen.rand_bern_program(rng, names, max_flips=5, max_stmts=7, degenerate_share=0.3)
        if trial % 4 == 0:
            body = list(prog.body)
            body.insert(rng.randint(0, len(body)), bern.BObserve(bern.BFalse()))
            prog = bern.BernProgram(names, tuple(body), prog.mode)
        for init in _inits(rng, prog):
            run = engine.run_symbolic(prog, init=init)
            ctx = run.ctx
            for k in range(len(run.points)):
                delta = run.at(k).delta
                table = run.marginals(k)
                assert run.marginals(k) is table  # computed once per point
                assert set(table) == set(names)
                for name, v in ctx.state_vars.items():
                    mass = (delta & bddm.var_bdd(ctx.universe, v)).wmc(ctx.weights)
                    assert table[name] == mass
                    result = engine.query(run, bern.BVar(name), point=k, normalized=False)
                    assert result.probability == mass
                    if run.survival(k) == 0:
                        impossible += 1
                        assert mass == 0
                        with pytest.raises(ConditionOnImpossibleError):
                            engine.query(run, bern.BVar(name), point=k)
    assert impossible > 0


def test_an_event_naming_an_undeclared_variable_is_a_key_error():
    prog = parsing.parse_bern("bool a\na = flip(1/2)")
    with pytest.raises(KeyError):
        engine.query(prog, bern.BVar("zz"))



def _labels(ctx):
    return [v.label for v in ctx.universe.variables]


def test_each_flip_sits_after_the_variable_it_is_assigned_to():
    """v, v#', then the flips read in assignments to v (a choose's fresh
    flip and flips inside nested ifs included); guard and observe flips
    after every state variable, each group in site order."""
    prog = parsing.parse_bern(
        "bool a\nbool b\nbool c\n"
        "observe(a || flip(1/5))\n"
        "b, a = flip(1/2), choose(b, flip(1/3))\n"
        "if (c && flip(1/7)) { if (a) { c = flip(1/4) } else { a = !flip(1/6) } }\n"
    )
    # choose(b, flip(1/3)) desugars to b || (!flip#2 && flip#6)
    ctx = engine.SymbolicContext(bld.resolve_parameters(bern.desugar_program(prog), {6: Fraction(1, 2)}))
    assert _labels(ctx) == [
        "a", "a#'", "flip#2", "flip#6", "flip#5",
        "b", "b#'", "flip#1",
        "c", "c#'", "flip#4",
        "flip#0", "flip#3",
    ]


def _flips(e):
    sites = []
    bern.fold(e, lambda node, _: isinstance(node, bern.Flip) and sites.append(node.site))
    return sites


def test_variable_order_on_random_programs():
    """The order read off each statement: a flip in the right-hand side for
    v sits between v#' and the next declared variable, a guard or observe
    flip after every state variable, each group in program order."""
    rng = random.Random(29)
    for _ in range(40):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        prog = randgen.rand_bern_program(rng, names, max_flips=6, max_stmts=8)
        ctx = engine.SymbolicContext(prog)
        level = {label: i for i, label in enumerate(_labels(ctx))}
        groups = {name: [] for name in names}
        loose = []
        for stmt in bern.walk_stmts(ctx.program.body):
            if isinstance(stmt, bern.PAssign):
                for target, e in zip(stmt.targets, stmt.exprs):
                    groups[target] += [level[f"flip#{s}"] for s in _flips(e)]
            else:
                loose += [level[f"flip#{s}"] for s in _flips(stmt.cond)]
        ends = [level[n] for n in names[1:]] + [len(level) - len(loose)]
        for name, end in zip(names, ends):
            assert level[name + "#'"] == level[name] + 1
            assert groups[name] == list(range(level[name] + 2, end))
        assert loose == list(range(len(level) - len(loose), len(level)))


def test_a_flip_next_to_its_variable_keeps_delta_linear():
    """From T, n lines of vi = flip(1/3) end with 3 nodes per variable
    (vi, and its flip under either value); with every flip after all the
    state variables Δ grows as 3·2ⁿ."""
    n = 16
    text = "".join(f"bool v{i}\n" for i in range(n)) + "".join(f"v{i} = flip(1/3)\n" for i in range(n))
    run = engine.run_symbolic(parsing.parse_bern(text))
    assert run.at("end").delta.size() <= 3 * n
    assert engine.query(run, bern.BVar("v7")).probability == Fraction(1, 3)
