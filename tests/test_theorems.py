"""Lowering, soundness checks, invariance, and parameter fitting."""

import collections
import gc
import hashlib
import random
import weakref
from fractions import Fraction

import pytest

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import builder as bld
from bernabs import concrete as cc
from bernabs import corpus, engine, errors, parsing, randgen, theorems, theory
from bernabs.domain import PredicateList

FIXED_HALF = bld.ParamPolicy.fixed(Fraction(1, 2))


def test_lower_examples():
    prog = parsing.parse_bern(
        "bool a\nbool b\na = flip(1/2)\nb = flip(1)\nobserve(a)\na = flip(0)"
    )
    low = theorems.lower(prog)
    assert low.mode == "nondet"
    stmts = list(bern.walk_stmts(low.body))
    assert isinstance(stmts[0].exprs[0], bern.Star)
    assert stmts[1].exprs[0] == bern.BTrue()
    assert isinstance(stmts[2], bern.BAssume)
    assert stmts[3].exprs[0] == bern.BFalse()


def test_lower_support_equality():
    rng = random.Random(41)
    for _ in range(25):
        prog = randgen.rand_bern_program(rng, ("v0", "v1"), max_flips=4, max_stmts=5)
        low = theorems.lower(prog)
        bits = tuple(rng.random() < 0.5 for _ in prog.decls)
        exact = bern.interp_exact(
            prog, bern.AbstractDistribution.point(prog.decls, dict(zip(prog.decls, bits)))
        )
        assert exact.support() == bern.interp_nondet(low, {bits})


def test_sound_nondet_branch_reset(branch_reset):
    prog, ctx, preds = branch_reset
    aprog = parsing.parse_bern(corpus.BRANCH_RESET_BERN)
    inputs = [{"x": v} for v in range(-8, 7)]  # x = 7 would escape the range
    report = theorems.check_sound_nondet(prog, aprog, preds, inputs=inputs)
    assert report.ok
    assert report.stats["checked"] == 15


def test_sound_nondet_detects_broken_abstraction(branch_reset):
    prog, ctx, preds = branch_reset
    broken = parsing.parse_bern(
        "bool {x<-4}\nbool {x<3}\n{x<-4}, {x<3} = F, F"
    )
    inputs = [{"x": v} for v in range(-8, 7)]
    report = theorems.check_sound_nondet(prog, broken, preds, inputs=inputs)
    assert not report.ok
    assert report.counterexamples


def test_sound_empty_vs_empty(branch_reset):
    prog, ctx, preds = branch_reset
    empty_c = cc.ConcreteProgram(prog.decls, ())
    empty_a = bern.BernProgram(preds.labels, (), "nondet")
    report = theorems.check_sound_nondet(empty_c, empty_a, preds)
    assert report.ok


def test_sound_prob_branch_reset(branch_reset):
    prog, ctx, preds = branch_reset
    aprog, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", FIXED_HALF)
    )
    inputs = [{"x": v} for v in range(-8, 7)]
    report = theorems.check_sound_prob(prog, aprog, preds, inputs=inputs)
    assert report.ok


def test_sound_prob_degenerate_theta_breaks(branch_reset):
    prog, ctx, preds = branch_reset
    inputs = [{"x": v} for v in range(-8, 7)]
    # branch flip pinned to 0: the then-branch becomes unreachable from
    # states where the abstraction must allow it
    aprog, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.fixed(Fraction(0)))
    )
    report = theorems.check_sound_prob(prog, aprog, preds, inputs=inputs)
    assert not report.ok
    # pinned to 1: the else-direction of some choose updates disappears
    aprog1, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.fixed(Fraction(1)))
    )
    report1 = theorems.check_sound_prob(prog, aprog1, preds, inputs=inputs)
    assert not report1.ok


def test_checks_read_dict_inputs_as_the_full_sweep(monkeypatch):
    """`inputs=` given as dicts, one per joint state in sweep order,
    reports exactly what the default sweep reports, counterexamples
    included."""
    prog = parsing.parse_concrete(
        "var x in [-8, 8)\nvar y in [0, 2)\nif (x < 0) { x = 0 } else { x = x - y }"
    )
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(parsing.parse_preds(corpus.BRANCH_RESET_PREDS), ctx)
    # each dict lists y before x: a state is read by name, not by position
    every = [{"y": y, "x": x} for x, y in ctx.states()]
    nondet = parsing.parse_bern(corpus.BRANCH_RESET_BERN)
    prob, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.fixed(Fraction(0)))
    )
    # a gamma row that leaks mass into another cell, let past validation
    leaky = theorems.ConcretizationDistribution.uniform(preds)
    leaky.rows[(False, True)] = {(-4, 0): leaky.scale // 2, (-5, 0): leaky.scale // 2}
    monkeypatch.setattr(theorems.ConcretizationDistribution, "validate_strong", lambda self, p: None)
    gammas = [theorems.ConcretizationDistribution.rank_weighted(preds), leaky]
    reports = []
    for inputs in (None, every):
        reports.append([
            theorems.check_sound_nondet(prog, nondet, preds, inputs=inputs).to_json(),
            theorems.check_sound_prob(prog, prob, preds, inputs=inputs).to_json(),
            theorems.check_invariance(prob, preds, gammas, inputs=inputs).to_json(),
        ])
    assert reports[0] == reports[1]
    assert [r["status"] for r in reports[0]] == ["fail", "fail", "fail"]
    # x = 3 steps to 2 when y = 1, which the hand abstraction cannot reach
    assert [cex["z"] for cex in reports[0][0]["counterexamples"]] == [{"x": 3, "y": 1}]
    assert {cex["gamma"] for cex in reports[0][2]["counterexamples"]} == {"uniform"}
    assert len(reports[0][2]["counterexamples"]) > 1


def test_checks_need_the_programs_variable_order():
    prog = parsing.parse_concrete("var x in [0, 4)\nvar y in [0, 2)\nx = y")
    ctx = theory.TheoryContext(tuple(reversed(prog.decls)))
    preds = PredicateList([("x<2", parsing.parse_cond("x < 2", ["x"]))], ctx)
    aprog = parsing.parse_bern("bool {x<2}\n{x<2} = T")
    with pytest.raises(ValueError, match="in order"):
        theorems.check_sound_nondet(prog, aprog, preds)


def test_theorem1_verdicts_agree_on_random_pairs():
    rng = random.Random(43)
    agree = 0
    for _ in range(30):
        prog = randgen.rand_concrete_program(rng)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 2), ctx)
        aprog = randgen.rand_bern_program(rng, preds.labels, max_flips=4, max_stmts=5,
                                          degenerate_share=0.2)
        # the definition (positive mass, from the engine) against the lowering
        definition = theorems.check_sound_prob(prog, aprog, preds)
        lowered = theorems.check_sound_nondet(prog, theorems.lower(aprog), preds)
        assert definition.ok == lowered.ok
        assert definition.stats == lowered.stats
        agree += 1
    assert agree == 30


def _padded_point(aprog, preds, bits):
    by_label = dict(zip(preds.labels, bits))
    state = {n: by_label.get(n, False) for n in aprog.decls}
    return bern.AbstractDistribution.point(aprog.decls, state)


def _exact_row(aprog, preds, bits):
    """Pr_A(. | bits) by the flip-enumerating interpreter, from the padded
    point: the per-input reference for one kernel row."""
    return bern.interp_exact(aprog, _padded_point(aprog, preds, bits)).marginal(preds.labels)


def test_abstract_kernel_rows_match_enumeration():
    rng = random.Random(59)
    seen = {"degenerate": 0, "observe": 0, "snapshot": 0, "aux": 0}
    for case in range(50):
        prog = randgen.rand_concrete_program(rng, observes=case % 4 == 1)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 3), ctx)
        if case % 2:
            aprog, _ = bld.abstract_program(
                prog, preds, bld.AbstractionConfig("prob", "structural", FIXED_HALF)
            )
        else:
            aprog = randgen.rand_bern_program(
                rng, preds.labels, max_flips=5, max_stmts=6, degenerate_share=0.3
            )
        if case % 4 == 0:  # an auxiliary, read before it is written: it starts False
            first = bern.BVar(preds.labels[0])
            negate = bern.PAssign((first.name,), (bern.BIff(first, bern.BVar("aux")),))
            aprog = bern.BernProgram(aprog.decls + ("aux",), (negate, *aprog.body), aprog.mode)
        seen["degenerate"] += any(t in (0, 1) for _, t in aprog.flip_sites())
        seen["observe"] += any(isinstance(s, bern.BObserve) for s in bern.walk_stmts(aprog.body))
        seen["snapshot"] += any(d.endswith(bld.SNAPSHOT_SUFFIX) for d in aprog.decls)
        seen["aux"] += "aux" in aprog.decls
        feasible = [m.bits for m in preds.feasible_minterms()]
        kernel = theorems.abstract_kernel(aprog, preds)
        assert list(kernel) == feasible
        for a in feasible:
            want = _exact_row(aprog, preds, a)
            want = {o: want.mass_of(dict(zip(preds.labels, o))) for o in feasible}
            assert kernel[a] == {o: p for o, p in want.items() if p}
    assert all(seen.values()), seen


def _kernel_by_cell(aprog, preds):
    """The kernel by its cell-by-cell definition: accept & (f_p <=> a'_p
    for each predicate p) at the end of the run, restricted to inputs = a
    and auxiliaries = F, and counted over the flips."""
    aux = [n for n in aprog.decls if n not in preds.labels]
    init = bern.BTrue()
    for name in aux:
        init = bern.BAnd(init, bern.BNot(bern.BVar(name)))
    run = engine.run_symbolic(aprog, init=init)
    ctx, end = run.ctx, run.at("end")
    weights = {v: v.weights() for v in ctx.flip_vars.values()}
    feasible = [m.bits for m in preds.feasible_minterms()]
    kernel = {}
    for a in feasible:
        row = kernel[a] = {}
        for a_out in feasible:
            cell = end.accept
            for lbl, bit in zip(preds.labels, a_out):
                cell = cell & (end.f[lbl] if bit else ~end.f[lbl])
            for lbl, bit in zip(preds.labels, a):
                cell = cell.restrict(ctx.input_vars[lbl], bit)
            for name in aux:
                cell = cell.restrict(ctx.input_vars[name], False)
            mass = cell.wmc(weights)
            if mass:
                row[a_out] = mass
    return kernel


def test_abstract_kernel_is_the_count_of_each_cell():
    rng = random.Random(67)
    seen = {"observe": 0, "aux": 0, "infeasible": 0}
    for case in range(30):
        prog = randgen.rand_concrete_program(rng, observes=case % 3 == 1)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 1 + case % 4), ctx)
        if case % 2:
            aprog, _ = bld.abstract_program(
                prog, preds, bld.AbstractionConfig("prob", "structural", FIXED_HALF)
            )
        else:
            aprog = randgen.rand_bern_program(
                rng, preds.labels, max_flips=5, max_stmts=6, degenerate_share=0.3
            )
        seen["observe"] += any(isinstance(s, bern.BObserve) for s in bern.walk_stmts(aprog.body))
        seen["aux"] += len(aprog.decls) > len(preds)
        seen["infeasible"] += len(preds.feasible_minterms()) < 2 ** len(preds)
        kernel = theorems.abstract_kernel(aprog, preds)
        want = _kernel_by_cell(aprog, preds)
        assert kernel == want
        assert [list(row) for row in kernel.values()] == [list(row) for row in want.values()]
    assert all(seen.values()), seen


def test_abstract_kernel_counts_each_row_in_one_table(branch_reset, monkeypatch):
    prog, ctx, preds = branch_reset
    aprog, _ = bld.abstract_program(prog, preds, bld.AbstractionConfig("prob", "observe", FIXED_HALF))
    calls = []
    real_wmc, real_joint = bddm.Bdd.wmc, bddm.joint_wmc
    monkeypatch.setattr(bddm.Bdd, "wmc", lambda *a, **k: calls.append("wmc") or real_wmc(*a, **k))
    monkeypatch.setattr(bddm, "joint_wmc", lambda *a, **k: calls.append("joint_wmc") or real_joint(*a, **k))
    kernel = theorems.abstract_kernel(aprog, preds)
    assert len(kernel) == 3
    assert calls == ["joint_wmc"] * 3


def _rand_nondet_program(rng, names):
    """A random non-deterministic program: a lowered random program (stars
    and assumes), with about half of its stars turned into chooses."""
    low = theorems.lower(
        randgen.rand_bern_program(rng, names, max_flips=5, max_stmts=6, degenerate_share=0.2)
    )

    def on_node(e):
        if isinstance(e, bern.Star) and rng.random() < 0.5:
            left, right = (bern.BVar(rng.choice(names)) for _ in range(2))
            return bern.Choose(left, bern.BNot(right))
        return e

    return bern.map_program(low, on_node)


def test_abstract_kernel_row_supports_are_the_nondet_reach_sets():
    rng = random.Random(61)
    seen = {"choose": 0, "assume": 0, "aux": 0}
    for case in range(40):
        prog = randgen.rand_concrete_program(rng)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 3), ctx)
        names = preds.labels + (("aux",) if case % 3 == 0 else ())
        aprog = _rand_nondet_program(rng, names)
        seen["choose"] += any(isinstance(e, bern.Choose) for e in bern.walk_exprs(aprog.body))
        seen["assume"] += any(isinstance(s, bern.BAssume) for s in bern.walk_stmts(aprog.body))
        seen["aux"] += len(names) > len(preds.labels)
        feasible = [m.bits for m in preds.feasible_minterms()]
        kernel = theorems.abstract_kernel(theorems._star_flips(aprog), preds)
        for a in feasible:
            reach = theorems._nondet_reach(aprog, preds, a)
            assert set(kernel[a]) == reach & set(feasible)
    assert all(seen.values()), seen


def test_every_check_names_the_predicates_the_abstraction_lacks(branch_reset):
    prog, ctx, preds = branch_reset
    prob = parsing.parse_bern("bool {x<3}\n{x<3} = flip(1/2)")
    nondet = parsing.parse_bern("bool {x<3}\n{x<3} = *")
    gammas = [theorems.ConcretizationDistribution.uniform(preds)]
    for check in (
        lambda: theorems.check_sound_nondet(prog, nondet, preds),
        lambda: theorems.check_sound_prob(prog, prob, preds),
        lambda: theorems.check_invariance(prob, preds, gammas),
        lambda: theorems.concrete_semantics(prob, preds, gammas[0], (0,)),
    ):
        with pytest.raises(ValueError, match="does not declare these predicates: x<-4$"):
            check()


def test_kernel_ghost_may_not_shadow_a_declared_name():
    # x<0@0 is an auxiliary, so the prefix sets it to F, and x<0 takes its value
    ctx, preds = fig1_setting()
    aprog = bern.BernProgram(("x<0@0", "x<0"), (bern.PAssign(("x<0",), (bern.BVar("x<0@0"),)),))
    assert theorems.abstract_kernel(aprog, preds) == {(True,): {(False,): 1}, (False,): {(False,): 1}}


def test_checks_take_thirty_flips():
    # past the enumerator's cap: Pr_A comes from the engine
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 4)])
    preds = PredicateList([("a", parsing.parse_cond("x < 2", ["x"]))], ctx)
    prog = parsing.parse_concrete("var x in [0, 4)\nx = x\n")
    aprog = parsing.parse_bern("bool a\n" + "a = a <=> flip(1/2)\n" * 30)
    report = theorems.check_sound_prob(prog, aprog, preds)
    assert report.ok and report.stats == {"checked": 4, "blocked": 0, "abstract_inputs": 2}
    gammas = [g(preds) for g in theorems.GAMMA_FAMILIES]
    assert theorems.check_invariance(aprog, preds, gammas).ok
    half = {(False,): Fraction(1, 2), (True,): Fraction(1, 2)}
    assert theorems.abstract_kernel(aprog, preds) == {(False,): half, (True,): half}


def fig1_setting():
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    preds = PredicateList([("x<0", parsing.parse_cond("x < 0", ["x"]))], ctx)
    return ctx, preds


def test_gamma_families_shape():
    ctx, preds = fig1_setting()
    uni = theorems.ConcretizationDistribution.uniform(preds)
    assert uni.row((True,)) == {(-2,): Fraction(1, 2), (-1,): Fraction(1, 2)}
    rank = theorems.ConcretizationDistribution.rank_weighted(preds)
    assert rank.row((True,)) == {(-2,): Fraction(1, 3), (-1,): Fraction(2, 3)}
    point = theorems.ConcretizationDistribution.point_mass_min(preds)
    assert point.row((True,)) == {(-2,): Fraction(1)}
    for g in (uni, rank, point):
        g.validate_strong(preds)
    assert uni.is_compatible(preds)
    assert rank.is_compatible(preds)
    assert not point.is_compatible(preds)


def _fraction_rows(preds, weigher):
    """gamma's rows as they were first built, kept as the reference: each
    cell's integer weights over their total, one Fraction per state."""
    rows = {}
    for bits, keys in preds.cell_map().items():
        weights = weigher(len(keys))
        total = sum(weights)
        rows[bits] = {k: Fraction(w, total) for k, w in zip(keys, weights) if w > 0}
    return rows


def test_gamma_rows_equal_the_fraction_reference():
    """The three families' integer rows over one scale read back as the
    Fraction rows, on random domains."""
    weighers = {
        "uniform": lambda n: [1] * n,
        "rank-weighted": lambda n: list(range(1, n + 1)),
        "point-mass-min": lambda n: [1] + [0] * (n - 1),
    }
    rng = random.Random(83)
    for _ in range(30):
        decls = randgen.rand_decls(rng, max_vars=3, max_range=8)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 4), theory.TheoryContext(decls))
        for family in theorems.GAMMA_FAMILIES:
            gamma = family(preds)
            want = _fraction_rows(preds, weighers[gamma.name])
            assert {bits: gamma.row(bits) for bits in preds.cell_map()} == want
            assert all(sum(row.values()) == gamma.scale for row in gamma.rows.values())
            gamma.validate_strong(preds)


def test_concrete_semantics_cell_mass():
    # abstraction over {x<0}: mass assigned to {-2, -1} equals Pr_A(x<0)
    ctx, preds = fig1_setting()
    aprog = parsing.parse_bern("bool {x<0}\n{x<0} = flip(1/3)")
    for gamma in (g(preds) for g in theorems.GAMMA_FAMILIES):
        dist = theorems.concrete_semantics(aprog, preds, gamma, (-1,))
        cell_mass = dist.mass_of((-2,)) + dist.mass_of((-1,))
        assert cell_mass == Fraction(1, 3)


def test_concrete_semantics_point_mass_relabels():
    ctx, preds = fig1_setting()
    aprog = parsing.parse_bern("bool {x<0}\n{x<0} = flip(1/3)")
    gamma = theorems.ConcretizationDistribution.point_mass_min(preds)
    dist = theorems.concrete_semantics(aprog, preds, gamma, (0,))
    assert dist.mass_of((-2,)) == Fraction(1, 3)  # cell minimum of x<0
    assert dist.mass_of((0,)) == Fraction(2, 3)  # cell minimum of !(x<0)


def test_proposition1_collapse_equals_full_sum():
    rng = random.Random(47)
    for _ in range(10):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=5)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 2), ctx)
        aprog = randgen.rand_bern_program(rng, preds.labels, max_flips=3, max_stmts=4)
        gamma = theorems.ConcretizationDistribution.rank_weighted(preds)
        z = next(iter(ctx.states()))
        a = theorems.concrete_semantics(aprog, preds, gamma, z)
        # the full double sum: every (z_o, a_o) pair, zero terms included
        pr_a = _exact_row(aprog, preds, preds.alpha(z))
        states = {k for row in gamma.rows.values() for k in row}
        full = dict.fromkeys(states, Fraction(0))
        for a_state, p in pr_a.items():
            row = gamma.row(tuple(a_state[lbl] for lbl in preds.labels))
            for key in states:
                full[key] += row.get(key, Fraction(0)) * p
        for key in states:
            assert a.mass_of(key) == full[key]


def test_invariance_fig1_two_gammas():
    ctx, preds = fig1_setting()
    aprog = parsing.parse_bern("bool {x<0}\n{x<0} = flip(2/5)")
    gammas = [
        theorems.ConcretizationDistribution.uniform(preds),
        theorems.ConcretizationDistribution.rank_weighted(preds),
    ]
    report = theorems.check_invariance(aprog, preds, gammas, inputs=[{"x": -1}])
    assert report.ok
    # single-concrete-state cells are trivially equal
    ctx2 = theory.TheoryContext([cc.VarDecl("x", 0, 2)])
    preds2 = PredicateList([("x<1", parsing.parse_cond("x < 1", ["x"]))], ctx2)
    aprog2 = parsing.parse_bern("bool {x<1}\n{x<1} = flip(1/2)")
    report2 = theorems.check_invariance(
        aprog2, preds2, [g(preds2) for g in theorems.GAMMA_FAMILIES]
    )
    assert report2.ok


def test_gamma_validated_once_per_check(monkeypatch):
    ctx, preds = fig1_setting()
    aprog = parsing.parse_bern("bool {x<0}\n{x<0} = flip(2/5)")
    gammas = [g(preds) for g in theorems.GAMMA_FAMILIES]
    calls = []
    real = theorems.ConcretizationDistribution.validate_strong
    monkeypatch.setattr(
        theorems.ConcretizationDistribution,
        "validate_strong",
        lambda self, p: calls.append(self.name) or real(self, p),
    )
    assert theorems.check_invariance(aprog, preds, gammas).ok
    assert calls == [g.name for g in gammas]

    doubled = theorems.ConcretizationDistribution.uniform(preds)
    doubled.rows[(True,)] = {k: 2 * q for k, q in doubled.rows[(True,)].items()}
    with pytest.raises(ValueError, match="sums to 2"):
        theorems.check_invariance(aprog, preds, [doubled])
    with pytest.raises(ValueError, match="sums to 2"):
        theorems.concrete_semantics(aprog, preds, doubled, (-1,))


def test_fit_chain_parameters(chain_draws):
    prog, ctx, preds = chain_draws
    cfg = bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.fit())
    aprog, sites = bld.abstract_program(prog, preds, cfg)
    fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
    thetas = {s.predicate if s.predicate else "branch": None for s in table}
    by_site = {s.site: s.theta for s in table}
    assert by_site[0] == Fraction(1, 2)  # a = unif [0,10) vs a<5
    assert by_site[1] == Fraction(1, 2)  # b under a<5
    assert by_site[2] == Fraction(1, 4)  # b = unif [0,20) under !(a<5)
    assert by_site[3] == Fraction(1, 2)
    assert by_site[4] == Fraction(1, 4)
    assert not any(s.flagged for s in table)


def test_fit_degenerate_draw_theta_one():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 32)])
    preds = PredicateList([("x<16", parsing.parse_cond("x < 16", ["x"]))], ctx)
    prog = cc.ConcreteProgram(ctx.decls, (cc.Draw("x", 0, 20, 1),))
    cfg = bld.AbstractionConfig("prob", "none", bld.ParamPolicy.fit())
    aprog, sites = bld.abstract_program(prog, preds, cfg)
    fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
    assert table.by_id(0).theta == Fraction(16, 20)


def test_fit_zero_mass_context_flagged():
    # a site inside a branch whose context literal has no concrete mass
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 8), cc.VarDecl("y", 0, 8)])
    preds = PredicateList(
        [("x<0", parsing.parse_cond("x < 0", ["x"])), ("y<4", parsing.parse_cond("y < 4", ["y"]))],
        ctx,
    )
    text = "var x in [0, 8)\nvar y in [0, 8)\nif (x < 0) { y = unif [0, 8) } else { }\n"
    prog = parsing.parse_concrete(text)
    cfg = bld.AbstractionConfig("prob", "none", bld.ParamPolicy.fit())
    aprog, sites = bld.abstract_program(prog, preds, cfg)
    fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
    flagged = [s for s in table if s.flagged]
    assert flagged
    assert all(s.theta == Fraction(1, 2) for s in flagged)


def fraction_theta(prog, site, preds):
    """theta as fit measured it with a Fraction per state: each state's mass
    times each post-state's share, summed where `site.free` holds, with the
    free set read by restricting its Bdd rather than by walking its nodes."""
    prefix, stmt = theorems.locate(prog.body, site.path)
    base = theorems._fragment_base(prog, prefix, stmt, site, preds)
    names = prog.var_names
    n = len(preds)
    event = cc.compile(site.event, names)
    if isinstance(stmt, cc.If):
        posts, share = (lambda z: [z]), Fraction(1)
    elif isinstance(stmt, cc.Assign):
        i, value = names.index(stmt.name), cc.compile(stmt.expr, names)
        posts, share = (lambda z: [z[:i] + (value(z),) + z[i + 1 :]]), Fraction(1)
    else:
        i, values = names.index(stmt.name), range(stmt.lo, stmt.hi)
        posts, share = (lambda z: [z[:i] + (v,) + z[i + 1 :] for v in values]), Fraction(1, len(values))
    denom = num = Fraction(0)
    for z, w in base.items():
        for post in posts(z):
            free = site.free
            for var in site.free.support():
                state = z if var.index < n else post
                free = free.restrict(var, preds.alpha(state)[var.index % n])
            if free.is_true:
                denom += w * share
                num += w * share * event(post)
    return Fraction(1, 2) if denom == 0 else num / denom


def test_fit_theta_is_the_fraction_measurement():
    rng = random.Random(3)
    roles = set()
    for case in range(30):
        prog = randgen.rand_concrete_program(rng, max_stmts=8, draws=True, observes=case % 3 == 1)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 4), ctx)
        for style in bld.INVARIANT_STYLES:
            config = bld.AbstractionConfig("prob", style, bld.ParamPolicy.fit())
            aprog, sites = bld.abstract_program(prog, preds, config)
            _, table = theorems.fit_parameters(prog, aprog, sites, preds)
            for site in table:
                assert type(site.theta) is Fraction
                assert site.theta == fraction_theta(prog, site, preds)
            roles |= {site.role for site in table if not site.flagged}
    assert roles == {"branch", "assign", "draw", "structural"}


# sha256 of the fitted text and site table of FIT_CASES random programs in
# each invariant style, as fit wrote them when each role had its own
# measurement, except that a structural update allocates no flip where its
# admissible relation never goes
FIT_DIGEST = "ca5f27a2fddd3a32ebf6c3d22c96f16644b6199dc6ab20b1c10096caf46c0bf6"
FIT_CASES = 60


def test_fit_output_of_random_programs_is_pinned():
    rng = random.Random(1)
    out = []
    roles = set()
    for case in range(FIT_CASES):
        prog = randgen.rand_concrete_program(rng, draws=case % 2 == 0, observes=case % 3 == 1)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 3), ctx)
        for style in bld.INVARIANT_STYLES:
            config = bld.AbstractionConfig("prob", style, bld.ParamPolicy.fit())
            aprog, sites = bld.abstract_program(prog, preds, config)
            fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
            roles |= {s.role for s in table if not s.flagged}
            out.append(f"=== {case} {style}\n{bern.to_text(fitted)}{table.dumps()}")
    assert roles == {"branch", "assign", "draw", "structural"}
    assert hashlib.sha256("".join(out).encode()).hexdigest() == FIT_DIGEST


# sha256 of the abstract_kernel rows of KERNEL_CASES random programs over
# up to 6 predicates, abstracted in the structural style with theta fixed
# at 1/3 and fitted, as they were when the structural updates were built
# cell by cell
KERNEL_DIGEST = "bf041280edfdc4a4677deca36b32cfa4ab4a8a9362c06d6a42802fb9735315fd"
KERNEL_CASES = 40


def test_structural_kernel_rows_are_pinned():
    rng = random.Random(13)
    out = []
    for case in range(KERNEL_CASES):
        prog = randgen.rand_concrete_program(rng, draws=case % 2 == 0)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 6), ctx)
        for params in (bld.ParamPolicy.fixed(Fraction(1, 3)), bld.ParamPolicy.fit()):
            config = bld.AbstractionConfig("prob", "structural", params)
            aprog, sites = bld.abstract_program(prog, preds, config)
            if params.kind == "fit":
                aprog, _ = theorems.fit_parameters(prog, aprog, sites, preds)
            kernel = theorems.abstract_kernel(aprog, preds)
            rows = [(a, sorted(row.items())) for a, row in kernel.items()]
            out.append(f"{case} {params.kind} {rows}\n")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == KERNEL_DIGEST


def test_end_to_end_decomposed_matches_concrete(chain_draws):
    prog, ctx, preds = chain_draws
    event = parsing.parse_event("{c<5}", preds.labels)
    got = theorems.end_to_end_decomposed_query(prog, preds, event)
    dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0, 0, 0)))
    want = cc.query_prob(dist, preds.cond_of("c<5"))
    assert got == want == Fraction(11, 32)


def test_end_to_end_single_statement():
    ctx = theory.TheoryContext([cc.VarDecl("a", 0, 16)])
    preds = PredicateList([("a<6", parsing.parse_cond("a < 6", ["a"]))], ctx)
    prog = cc.ConcreteProgram(ctx.decls, (cc.Draw("a", 0, 10, 1),))
    got = theorems.end_to_end_decomposed_query(prog, preds, bern.BVar("a<6"))
    assert got == Fraction(6, 10)


def test_end_to_end_random_chain_family():
    # chain-shaped programs: draw, branch on a predicate, draw again
    rng = random.Random(53)
    for _ in range(10):
        hi1 = rng.randint(4, 10)
        cut1 = rng.randint(1, hi1 - 1)
        hi2 = rng.randint(4, 10)
        hi3 = rng.randint(4, 10)
        cut2 = rng.randint(1, min(hi2, hi3) - 1)
        text = (
            f"var a in [0, 16)\nvar b in [0, 16)\n"
            f"a = unif [0, {hi1})\n"
            f"if (a < {cut1}) {{ b = unif [0, {hi2}) }} else {{ b = unif [0, {hi3}) }}\n"
        )
        prog = parsing.parse_concrete(text)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(
            [
                (f"a<{cut1}", parsing.parse_cond(f"a < {cut1}", ["a"])),
                (f"b<{cut2}", parsing.parse_cond(f"b < {cut2}", ["b"])),
            ],
            ctx,
        )
        event = bern.BVar(f"b<{cut2}")
        got = theorems.end_to_end_decomposed_query(prog, preds, event)
        dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0, 0)))
        want = cc.query_prob(dist, preds.cond_of(f"b<{cut2}"))
        assert got == want


def test_invariance_counts_a_generator_of_gammas():
    ctx, preds = fig1_setting()
    aprog = parsing.parse_bern("bool {x<0}\n{x<0} = flip(2/5)")
    report = theorems.check_invariance(aprog, preds, (g(preds) for g in theorems.GAMMA_FAMILIES))
    assert report.ok
    assert report.stats == {"gammas": 3, "pairs": 3 * 5 * 2}


def test_invariance_reports_a_leak_for_every_input(monkeypatch):
    """A gamma row that leaks mass into another cell fails invariance at
    every input, exactly as a per-input double sum says."""
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 4)])
    preds = PredicateList(
        [("x<0", parsing.parse_cond("x < 0", ["x"])), ("x<2", parsing.parse_cond("x < 2", ["x"]))],
        ctx,
    )
    aprog = parsing.parse_bern(
        "bool {x<0}\nbool {x<2}\n{x<0} = {x<0} && flip(1/3)\n{x<2} = {x<2} || flip(1/4)"
    )
    # a row of quarters, so the uniform rows go over twice their scale, 4
    uniform = theorems.ConcretizationDistribution.uniform(preds)
    leaky = theorems.ConcretizationDistribution(
        "uniform",
        {bits: {k: 2 * w for k, w in row.items()} for bits, row in uniform.rows.items()},
        uniform.var_names,
        2 * uniform.scale,
    )
    leaky.rows[(True, True)] = {(-2,): 1, (-1,): 1, (0,): 2}
    gammas = [theorems.ConcretizationDistribution.rank_weighted(preds), leaky]
    inputs = [{"x": v} for v in range(-2, 4)]
    keys = [(v,) for v in range(-2, 4)]
    outputs = [m.bits for m in preds.feasible_minterms()]

    want = []
    for gamma in gammas:
        for z_i, key_i in zip(inputs, keys):
            pr_a = _exact_row(aprog, preds, preds.alpha(key_i))
            mass = {}
            for a_state, p in pr_a.items():
                for key, q in gamma.row(tuple(a_state[lbl] for lbl in preds.labels)).items():
                    mass[key] = mass.get(key, Fraction(0)) + q * p
            for a_o in outputs:
                got = sum((mass.get(key, Fraction(0)) for key in gamma.row(a_o)), Fraction(0))
                expected = pr_a.mass_of(dict(zip(preds.labels, a_o)))
                if got != expected:
                    want.append(
                        {
                            "gamma": gamma.name,
                            "z_i": z_i,
                            "a_o": dict(zip(preds.labels, a_o)),
                            "expected": str(expected),
                            "got": str(got),
                        }
                    )
    assert len(want) == 8 and {cex["gamma"] for cex in want} == {"uniform"}
    assert [cex["z_i"] for cex in want if cex["a_o"] == {"x<0": True, "x<2": True}] == inputs

    with pytest.raises(ValueError, match=r"mass on \{'x': 0\} outside the cell of \(True, True\)"):
        theorems.check_invariance(aprog, preds, gammas, inputs=inputs)

    monkeypatch.setattr(theorems.ConcretizationDistribution, "validate_strong", lambda self, p: None)
    report = theorems.check_invariance(aprog, preds, gammas, inputs=inputs)
    assert report.counterexamples == want
    assert report.stats == {"gammas": 2, "pairs": 2 * 6 * 3}

    # on a fresh domain each check makes one symbolic run, its kernel, and no
    # other engine or non-deterministic interpreter call; on the same domain
    # again, the kept kernel serves and it makes none
    calls = []
    for module, name in ((engine, "run_symbolic"), (engine, "query"), (bern, "interp_nondet")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
        )
    cprog = parsing.parse_concrete("var x in [-2, 4)\nif (x < 0) { x = x + 1 }")
    for check in (
        lambda p: theorems.check_invariance(aprog, p, gammas, inputs=inputs),
        lambda p: theorems.check_sound_prob(cprog, aprog, p),
        lambda p: theorems.check_sound_nondet(cprog, theorems.lower(aprog), p),
    ):
        fresh = PredicateList(zip(preds.labels, preds.conds), ctx)
        calls.clear()
        check(fresh)
        assert calls == ["run_symbolic"]
        calls.clear()
        check(fresh)
        assert calls == []


def test_a_dropped_kernel_entry_changes_every_check_at_its_class(branch_reset, monkeypatch):
    """Drop a' = (F, F) from the kernel row of a = (F, T): the soundness
    checks then fail at exactly the inputs of a whose output is a', and
    the invariance verdict changes at exactly the inputs of a."""
    prog, ctx, preds = branch_reset
    inputs = [{"x": v} for v in range(-8, 7)]
    nondet = parsing.parse_bern(corpus.BRANCH_RESET_BERN)
    prob, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", FIXED_HALF)
    )
    a, a_out = (False, True), (False, False)
    assert theorems.abstract_kernel(prob, preds)[a] == {a: Fraction(3, 4), a_out: Fraction(1, 4)}
    in_a = {z["x"] for z in inputs if preds.alpha((z["x"],)) == a}
    to_a_out = [{"x": x} for x in sorted(in_a) if preds.alpha(cc.eval_det(prog, (x,))) == a_out]
    assert to_a_out == [{"x": 2}]
    # Invariance cannot fail on a dropped entry alone: its double sum only
    # loses nonnegative terms.  So gamma's row of a' leaks into a third
    # cell, that of x = -8, which fails every input whose kernel row holds
    # a': those of a with the true kernel, and not with the mutated one.
    leaky = theorems.ConcretizationDistribution.uniform(preds)
    leaky.rows[a_out] = {(3,): leaky.scale // 2, (-8,): leaky.scale // 2}
    monkeypatch.setattr(theorems.ConcretizationDistribution, "validate_strong", lambda self, p: None)

    def reports():
        nondet_report = theorems.check_sound_nondet(prog, nondet, preds, inputs=inputs)
        prob_report = theorems.check_sound_prob(prog, prob, preds, inputs=inputs)
        invariance = theorems.check_invariance(prob, preds, [leaky], inputs=inputs)
        return nondet_report, prob_report, {cex["z_i"]["x"] for cex in invariance.counterexamples}

    nondet_report, prob_report, failing_before = reports()
    assert nondet_report.ok and prob_report.ok
    assert in_a < failing_before
    real = theorems.abstract_kernel

    def dropped(aprog, p):
        kernel = real(aprog, p)
        del kernel[a][a_out]
        return kernel

    monkeypatch.setattr(theorems, "abstract_kernel", dropped)
    nondet_report, prob_report, failing = reports()
    for report in (nondet_report, prob_report):
        assert [cex["z"] for cex in report.counterexamples] == to_a_out
        assert report.counterexamples[0]["got"] == [str({"x<-4": False, "x<3": True})]
    assert failing == failing_before - in_a


def _verdict(check):
    """The report's JSON, or the error's type and message."""
    try:
        return check().to_json()
    except (errors.BernabsError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _checks_in_pipeline_order(prog, nondet, prob, domains):
    """The verdicts of `check`'s three checks, in its order, the i-th on
    the i-th of `domains`."""
    checks = (
        lambda p: theorems.check_sound_nondet(prog, nondet, p),
        lambda p: theorems.check_sound_prob(prog, prob, p),
        lambda p: theorems.check_invariance(prob, p, [g(p) for g in theorems.GAMMA_FAMILIES]),
    )
    return [_verdict(lambda: check(p)) for check, p in zip(checks, domains)]


def test_sharing_a_domain_changes_no_verdict(monkeypatch):
    """The three checks on one domain report exactly what they report on
    three fresh ones, counterexamples and errors included, and on the
    shared domain they make one engine run per abstraction and one
    concrete run per joint state."""
    problems = [
        (parsing.parse_concrete(cp), parsing.parse_preds(preds))
        for cp, preds in (
            (corpus.BRANCH_RESET_CP, corpus.BRANCH_RESET_PREDS),
            (corpus.CHAIN_DRAWS_CP, corpus.CHAIN_DRAWS_PREDS),
            (corpus.SHIFT_TEN_CP, corpus.SHIFT_TEN_PREDS),
        )
    ]
    rng = random.Random(53)
    for _ in range(20):
        prog = randgen.rand_concrete_program(rng, observes=True)
        problems.append((prog, randgen.rand_predicates(rng, prog.decls, 3)))
    counts = collections.Counter()
    for name, module in (("run_symbolic", engine), ("eval_det", cc)):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real, **k: counts.update([name]) or real(*a, **k)
        )
    swept = failed = blocked = 0
    for i, (prog, pairs) in enumerate(problems):
        ctx = theory.TheoryContext.of_program(prog)
        shared = PredicateList(pairs, ctx)
        nondet, _ = bld.abstract_program(prog, shared, bld.AbstractionConfig("nondet"))
        if i % 3 == 2:  # an abstraction drawn at random, which mostly fails
            prob = randgen.rand_bern_program(rng, shared.labels, max_flips=3, max_stmts=4)
        else:
            config = bld.AbstractionConfig("prob", params=FIXED_HALF)
            prob, _ = bld.abstract_program(prog, shared, config)
        fresh = [PredicateList(pairs, ctx) for _ in range(3)]
        want = _checks_in_pipeline_order(prog, nondet, prob, fresh)
        counts.clear()
        got = _checks_in_pipeline_order(prog, nondet, prob, [shared] * 3)
        assert got == want
        if all(isinstance(v, dict) for v in got):
            swept += 1
            failed += any(v["status"] == "fail" for v in got)
            blocked += got[0]["stats"]["blocked"] > 0
            assert counts == {"run_symbolic": 2, "eval_det": len(list(ctx.states()))}
    assert swept == 20 and failed and blocked


def test_the_kept_kernel_and_outputs_live_with_the_domain_only(branch_reset, monkeypatch):
    """A caller's change to a returned kernel reaches no later call; a call
    that raises keeps nothing, so the next call raises again; and the
    domain's kept values go when the domain does."""
    prog, ctx, preds = branch_reset
    prob, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", FIXED_HALF)
    )
    kernel = theorems.abstract_kernel(prob, preds)
    want = {a: dict(row) for a, row in kernel.items()}
    a = next(iter(kernel))
    kernel[a].clear()
    del kernel[next(reversed(kernel))]
    assert theorems.abstract_kernel(prob, preds) == want

    ran = collections.Counter()
    real = cc.eval_det
    monkeypatch.setattr(cc, "eval_det", lambda *args: ran.update(["eval_det"]) or real(*args))
    for _ in range(2):  # x = 7 escapes the range at the last state of the sweep
        ran.clear()
        with pytest.raises(errors.RangeViolationError, match=r"x = 8 escapes \[-8, 8\)"):
            theorems.check_sound_prob(prog, prob, preds)
        assert ran["eval_det"] == 16

    lacking = parsing.parse_bern("bool {x<3}\n{x<3} = flip(1/2)")
    unfitted, _ = bld.abstract_program(
        prog, preds, bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.fit())
    )
    for _ in range(2):
        with pytest.raises(ValueError, match=r"does not declare these predicates: x<-4$"):
            theorems.abstract_kernel(lacking, preds)
        with pytest.raises(ValueError, match=r"does not declare these predicates: x<-4$"):
            theorems.check_sound_prob(prog, lacking, preds)
        with pytest.raises(errors.ModeError, match="unresolved parameter"):
            theorems.check_invariance(unfitted, preds, [])

    domain = PredicateList(zip(preds.labels, preds.conds), ctx)
    theorems.abstract_kernel(prob, domain)
    held = len(theorems._DERIVED)
    assert domain in theorems._DERIVED
    gone = weakref.ref(domain)
    del domain
    gc.collect()
    assert gone() is None and len(theorems._DERIVED) == held - 1
