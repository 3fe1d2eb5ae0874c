"""Symbolic inference: transfer functions, reachability, queries."""

import itertools
import random
from fractions import Fraction

import pytest

from bernabs import bdd as bddm
from bernabs import bern, corpus, engine, parsing, randgen, selftest
from bernabs import builder as bld
from bernabs.errors import ConditionOnImpossibleError, ModeError, UniverseError


def test_transfer_golden_flip_conjunction():
    # from {x<4}, the statement {x<4} = {x<4} && flip(theta) gives the
    # function {x<4}#in && f, and the relational view
    # Delta' = ({x<4} && f) || (!{x<4} && !f)
    prog = parsing.parse_bern("bool {x<4}\n{x<4} = {x<4} && flip(1/2)")
    run = engine.run_symbolic(prog, init=bern.BVar("x<4"))
    ctx = run.ctx
    x = bddm.var_bdd(ctx.universe, ctx.state_vars["x<4"])
    x_in = bddm.var_bdd(ctx.universe, ctx.input_vars["x<4"])
    f = bddm.var_bdd(ctx.universe, ctx.flip_vars[0])
    assert run.at(1).f["x<4"].equiv(x_in & f)
    assert run.at(1).accept.equiv(x_in)
    assert run.at(1).delta.equiv((x & f) | (~x & ~f))


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
    # a name may end in a prime; the engine's own names hold a "#"
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


def _to_inputs(ctx, delta):
    """`delta`, a Bdd over the states and the flips, with each state variable
    v moved to v#in, the level right above it, by relabelling its nodes."""
    table = ctx.universe.table
    states = {v.index for v in ctx.state_vars.values()}

    def visit(u, level, lo, hi):
        return table.mk(level - 1 if level in states else level, lo, hi)

    return bddm.Bdd(ctx.universe, table.fold(delta.ref, visit, table.num_vars, {}))


def _full_frame_delta(ctx, delta, stmt):
    """The relational image of Δ over the whole frame, kept as a reference:
    every state variable moved to its input level, one iff per declared
    variable (untouched ones included), every input quantified out."""
    state = ctx.state_vars.__getitem__

    def flip_var(e):
        return ctx.flip_vars[e.site]

    if isinstance(stmt, bern.PAssign):
        if not stmt.targets:
            return delta
        moved = _to_inputs(ctx, delta)
        updates = dict(zip(stmt.targets, stmt.exprs))
        cons = bddm.true_bdd(ctx.universe)
        for name in ctx.program.decls:
            e = updates.get(name, bern.BVar(name))
            rhs = engine.expr_to_bdd(ctx.universe, e, ctx.input_vars.__getitem__, flip_var)
            cons = cons & bddm.var_bdd(ctx.universe, state(name)).iff(rhs)
        return (moved & cons).exists(ctx.input_vars.values())
    cond = engine.expr_to_bdd(ctx.universe, stmt.cond, state, flip_var)
    if isinstance(stmt, (bern.BObserve, bern.BAssume)):
        return delta & cond
    then_out = delta & cond
    for s in stmt.then:
        then_out = _full_frame_delta(ctx, then_out, s)
    else_out = delta & ~cond
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
    """An assignment sets only its targets' functions; on swaps, rotations
    and assignments that read some, all or none of their targets, from a
    point init, from T and from an expression init, the relational view Δ
    at each point is the full-frame image of Δ at the point before."""
    rng = random.Random(41)
    kinds = set()
    runs = 0
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
            try:
                run = engine.run_symbolic(prog, init=init)
            except ConditionOnImpossibleError:  # an expression init no state satisfies
                continue
            runs += 1
            ctx = run.ctx
            delta = run.at(0).delta
            for k, stmt in enumerate(ctx.program.body, start=1):
                delta = _full_frame_delta(ctx, delta, stmt)
                assert run.at(k).delta.equiv(delta)
                assert run.at(k).delta is run.at(k).delta  # made once per point
            for k in range(len(run.points)):
                assert run.accepted(k) is run.accepted(k)  # counted once per point
    assert kinds == {False, True}
    assert runs > 150


def test_swap_and_rotation_images():
    """Every right-hand side reads the values from before the assignment:
    swaps and rotations, as functions of the inputs and as Δ from a point."""
    prog = parsing.parse_bern("bool a\nbool b\nbool c\na, b = b, a\na, b, c = b, c, a")
    run = engine.run_symbolic(prog)
    ctx = run.ctx
    a_in, b_in, c_in = (bddm.var_bdd(ctx.universe, ctx.input_vars[n]) for n in "abc")
    assert [run.at(1).f[n] for n in "abc"] == [b_in, a_in, c_in]
    assert [run.at(2).f[n] for n in "abc"] == [a_in, c_in, b_in]
    run = engine.run_symbolic(prog, init={"a": True, "b": False, "c": True})
    ctx = run.ctx
    a, b, c = (bddm.var_bdd(ctx.universe, ctx.state_vars[n]) for n in "abc")
    assert run.at(1).delta.equiv(~a & b & c)
    assert run.at(2).delta.equiv(a & b & ~c)


def test_an_assignment_renames_only_the_targets_it_reads():
    """No assignment renames a variable: `a, b = b, c` hands a and b the
    functions of b and c, `c = a` hands c the function a holds then, and
    `a = a && flip(1/2)` conjoins a's function with its flip; a variable
    no assignment names keeps its function, and the answers follow."""
    prog = parsing.parse_bern("bool a\nbool b\nbool c\na, b = b, c\nc = a\na = a && flip(1/2)")
    run = engine.run_symbolic(prog)
    ctx = run.ctx
    b_in, c_in = (bddm.var_bdd(ctx.universe, ctx.input_vars[n]) for n in "bc")
    flip = bddm.var_bdd(ctx.universe, ctx.flip_vars[0])
    assert [run.at(1).f[n] for n in "abc"] == [b_in, c_in, c_in]
    assert [run.at(2).f[n] for n in "abc"] == [b_in, c_in, b_in]
    assert run.at(3).f["a"] == b_in & flip
    assert [run.at(3).f[n] for n in "bc"] == [c_in, b_in]
    run = engine.run_symbolic(prog, init={"a": False, "b": True, "c": False})
    assert run.at(2).f["c"].is_true
    assert engine.query(run, bern.BVar("a")).probability == Fraction(1, 2)
    assert engine.query(run, bern.BVar("b")).probability == 0
    assert engine.query(run, bern.BVar("c")).probability == 1


def _inits(rng, prog):
    """A point init, T, and a flip-free expression init over the variables."""
    point = {n: rng.random() < 0.5 for n in prog.decls}
    return [point, None, randgen._BernBuilder(rng, prog.decls, 0, 0.0).expr(2)]


def test_marginals_are_the_mass_of_each_variable():
    """At every point, from every kind of init, a query of a variable v
    reads wmc(accept & f_v): over N, the number of initial states, it is
    the unnormalized answer, and over wmc(accept) the answer; flips of
    θ = 0 and θ = 1 and points that nothing survives included."""
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
            try:
                run = engine.run_symbolic(prog, init=init)
            except ConditionOnImpossibleError:  # an expression init no state satisfies
                continue
            ctx = run.ctx
            for k in range(len(run.points)):
                state = run.at(k)
                accepted = state.accept.wmc(ctx.weights)
                assert run.accepted(k) == accepted
                assert run.survival(k) == accepted / run.starts
                for name in names:
                    mass = (state.accept & state.f[name]).wmc(ctx.weights)
                    result = engine.query(run, bern.BVar(name), point=k, normalized=False)
                    assert result.probability == mass / run.starts
                    if accepted == 0:
                        impossible += 1
                        assert mass == 0
                        with pytest.raises(ConditionOnImpossibleError):
                            engine.query(run, bern.BVar(name), point=k)
                    else:
                        assert engine.query(run, bern.BVar(name), point=k).probability == mass / accepted
    assert impossible > 0


def test_an_event_naming_an_undeclared_variable_is_a_universe_error():
    prog = parsing.parse_bern("bool a\na = flip(1/2)")
    message = "the event reads zz, which the program does not declare"
    with pytest.raises(UniverseError, match=message):
        engine.query(prog, bern.BVar("zz"))
    with pytest.raises(UniverseError, match=message):
        engine.query(prog, bern.BAnd(bern.BVar("a"), bern.BVar("zz")))
    with pytest.raises(UniverseError, match="the program has no flip site 9"):
        engine.query(prog, bern.Flip(9, Fraction(1, 2)))



def _labels(ctx):
    return [v.label for v in ctx.universe.variables]


def test_each_flip_sits_after_the_variable_it_is_assigned_to():
    """v#in, v, then the flips read in assignments to v (a choose's fresh
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
        "a#in", "a", "flip#2", "flip#6", "flip#5",
        "b#in", "b", "flip#1",
        "c#in", "c", "flip#4",
        "flip#0", "flip#3",
    ]


def _flips(e):
    sites = []
    bern.fold(e, lambda node, _: isinstance(node, bern.Flip) and sites.append(node.site))
    return sites


def test_variable_order_on_random_programs():
    """The order read off each statement: v#in right above v, a flip in the
    right-hand side for v between v and the next declared variable's
    input, a guard or observe flip after every state variable, each group
    in program order."""
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
        ends = [level[n + "#in"] for n in names[1:]] + [len(level) - len(loose)]
        for name, end in zip(names, ends):
            assert level[name + "#in"] == level[name] - 1
            assert groups[name] == list(range(level[name] + 1, end))
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


# --- wide inits against the enumerating interpreter -----------------------------


def test_an_identity_assignment_from_t_is_the_uniform_start():
    """`b = b` from T: each variable is True in half of the states, and the
    event a || !a in all of them."""
    prog = parsing.parse_bern("bool a\nbool b\nb = b\n")
    run = engine.run_symbolic(prog)
    assert engine.query(run, bern.BVar("a")).probability == Fraction(1, 2)
    assert engine.query(run, parsing.parse_event("a || !a", prog.decls)).probability == 1
    unnormalized = engine.query(run, bern.BVar("a"), normalized=False)
    assert (unnormalized.probability, unnormalized.survival) == (Fraction(1, 2), 1)
    assert selftest._engine_mismatch(prog, None) is None


def test_an_invariant_init_is_uniform_over_its_states():
    """From a || b (three of the four states of a and b) with an observe
    and an if: every answer is interp_exact's from those three states."""
    prog = parsing.parse_bern(
        "bool a\nbool b\nbool c\n"
        "c = a && flip(1/3)\n"
        "observe(b || c)\n"
        "if (a) { b = !b || flip(1/4) } else { a = b && flip(1/2) }\n"
    )
    init = parsing.parse_event("a || b", prog.decls)
    run = engine.run_symbolic(prog, init=init)
    assert run.starts == 6  # 3 states of (a, b), times 2 values of c
    assert selftest._engine_mismatch(prog, init) is None


def test_an_init_over_undeclared_variables_is_a_typed_error():
    """An init that reads names the program does not declare, or a point
    that leaves a declared name out, is named in a `UniverseError`."""
    prog = parsing.parse_bern("bool a\na = flip(1/3)\n")
    init = parsing.parse_event("p && (q || p) || a", ("p", "q", "a"))
    with pytest.raises(UniverseError, match="^the init reads p, q, which the program does not declare$"):
        engine.run_symbolic(prog, init=init)
    two = parsing.parse_bern("bool a\nbool b\nbool c\nb = a\n")
    with pytest.raises(UniverseError, match="^the init gives no value to a, c$"):
        engine.run_symbolic(two, init={"b": True, "p": False})
    assert engine.query(two, bern.BVar("b"), init={"a": True, "b": False, "c": True, "p": False}).probability == 1


def test_making_a_context_walks_no_expression(monkeypatch):
    """The universe's order comes from the program's record of its flips,
    so a choose-free program is not walked again."""
    prog = parsing.parse_bern(
        "bool a\nbool b\na = flip(1/3) && b\nif (flip(1/2)) { b = !a || flip(1/4) }\nobserve(a || flip(1/5))\n"
    )

    def no_fold(*args):
        raise AssertionError("bern.fold called")

    monkeypatch.setattr(bern, "fold", no_fold)
    ctx = engine.SymbolicContext(prog)
    assert ctx.program is prog
    assert _labels(ctx) == ["a#in", "a", "flip#0", "b#in", "b", "flip#2", "flip#1", "flip#3"]


def test_an_init_no_state_satisfies_is_a_typed_error():
    prog = parsing.parse_bern("bool a\nbool b\nb = flip(1/2)\n")
    init = parsing.parse_event("a && !a", prog.decls)
    with pytest.raises(ConditionOnImpossibleError, match="the init holds in no state"):
        engine.run_symbolic(prog, init=init)
    with pytest.raises(ConditionOnImpossibleError):
        engine.query(prog, bern.BVar("b"), init=init)


def test_a_name_ending_in_a_prime_from_t():
    prog = parsing.parse_bern("bool a\nbool {a'}\na = flip(1/3)\n{a'} = a || {a'}\n")
    assert engine.query(prog, bern.BVar("a'")).probability == Fraction(2, 3)
    assert selftest._engine_mismatch(prog, None) is None


def test_random_programs_from_wide_inits_match_interp_exact():
    """120 random programs with observes and ifs, each from T and from a
    random expression init: every marginal, mass and survival is
    interp_exact's from the uniform start over the init's states."""
    rng = random.Random(83)
    seen = {"observe": 0, "if": 0, "no state": 0}
    for _ in range(120):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
        prog = randgen.rand_bern_program(rng, names, max_flips=5, max_stmts=6, degenerate_share=0.2)
        stmts = list(bern.walk_stmts(prog.body))
        seen["observe"] += any(isinstance(s, bern.BObserve) for s in stmts)
        seen["if"] += any(isinstance(s, bern.BIf) for s in stmts)
        init = randgen.rand_bern_cond(rng, names)
        seen["no state"] += selftest._uniform_start(names, init).survival == 0
        for start in (None, init):
            assert selftest._engine_mismatch(prog, start) is None
    assert all(seen.values()), seen
