"""Abstraction builder: branch/assignment/draw translation, invariants."""

import random
from fractions import Fraction

import pytest

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import builder as bld
from bernabs import concrete as cc
from bernabs import parsing, randgen, theorems, theory
from bernabs.domain import PredicateList
from bernabs.engine import expr_to_bdd

FIXED_HALF = bld.ParamPolicy.fixed(Fraction(1, 2))


def expr_bdd_over(preds, expr, extra_flips=8):
    """Build a Bdd of a BERN expression over predicate vars plus flip slots."""
    specs = [(lbl, None) for lbl in preds.labels]
    specs += [(f"f{i}", Fraction(1, 2)) for i in range(extra_flips)]
    specs += [(f"s{i}", None) for i in range(extra_flips)]
    u = bddm.make_universe(specs)
    # each * occurrence reads its own unweighted slot
    expr = bern.map_expr(
        expr, lambda e: bern.BVar(f"s{e.occurrence}") if isinstance(e, bern.Star) else e
    )
    return u, expr_to_bdd(
        u,
        expr,
        lambda name: u.var(name),
        flip_var=lambda e: u.var(f"f{e.site}"),
    )


def _relabel(b, universe):
    """The same function as `b`, over the like-labelled variables of `universe`."""
    return expr_to_bdd(universe, bld.formula_to_expr(b), universe.var)


def test_branch_scaffold_nondet(branch_reset):
    prog, ctx, preds = branch_reset
    worker = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
    stmt = prog.body[0]
    scaffold = worker.abstract_branch(stmt.cond)
    assert isinstance(scaffold.cond, bern.Star)
    then_assume, else_assume = scaffold.then[0], scaffold.els[0]
    u, then_b = expr_bdd_over(preds, then_assume.cond)
    assert then_b.equiv(bddm.var_bdd(u, u.var("x<3")))
    u2, else_b = expr_bdd_over(preds, else_assume.cond)
    assert else_b.equiv(~bddm.var_bdd(u2, u2.var("x<-4")))


def test_branch_guard_probabilistic(branch_reset):
    prog, ctx, preds = branch_reset
    worker = bld.Abstractor(preds, bld.AbstractionConfig("prob", "none", FIXED_HALF))
    scaffold = worker.abstract_branch(prog.body[0].cond)
    # guard is {x<-4} || ({x<3} && flip(theta))
    u, got = expr_bdd_over(preds, scaffold.cond)
    b1 = bddm.var_bdd(u, u.var("x<-4"))
    b2 = bddm.var_bdd(u, u.var("x<3"))
    f0 = bddm.var_bdd(u, u.var("f0"))
    assert got.equiv(b1 | (b2 & f0))


def test_branch_guard_trivial():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 4)])
    preds = PredicateList([("p", parsing.parse_cond("x < 2", ["x"]))], ctx)
    worker = bld.Abstractor(preds, bld.AbstractionConfig("prob", "none", FIXED_HALF))
    scaffold = worker.abstract_branch(cc.CTrue())
    assert scaffold.cond == bern.BTrue()
    assert worker.sites == []


def test_assignment_updates(branch_reset):
    prog, ctx, preds = branch_reset
    worker = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
    incr = cc.Assign("x", cc.Add(cc.IntVar("x"), cc.IntConst(1)))
    pa = worker.abstract_update(incr)
    assert pa.targets == ("x<-4", "x<3")
    values = dict(zip(pa.targets, pa.exprs))
    inv_b = preds.invariant_formula()
    # x<3 gets choose({x<-4}, !{x<3}); x<-4 gets choose(F, !{x<3} || !{x<-4})
    # star occurrences allocate in predicate order: x<-4 gets s0, x<3 gets s1
    u, got3 = expr_bdd_over(preds, values["x<3"])
    b1 = bddm.var_bdd(u, u.var("x<-4"))
    b2 = bddm.var_bdd(u, u.var("x<3"))
    s1 = bddm.var_bdd(u, u.var("s1"))
    inv = _relabel(inv_b, u)
    want3 = b1 | (b2 & s1)  # choose({x<-4}, !{x<3}) desugared
    assert (got3 & inv).equiv(want3 & inv)
    u2, got4 = expr_bdd_over(preds, values["x<-4"])
    b1_2 = bddm.var_bdd(u2, u2.var("x<-4"))
    b2_2 = bddm.var_bdd(u2, u2.var("x<3"))
    s0_2 = bddm.var_bdd(u2, u2.var("s0"))
    inv2 = _relabel(inv_b, u2)
    want4 = (b1_2 & b2_2) & s0_2  # choose(F, !{x<3} || !{x<-4}) desugared
    assert (got4 & inv2).equiv(want4 & inv2)


def test_assignment_to_constants(branch_reset):
    prog, ctx, preds = branch_reset
    worker = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
    zero = cc.Assign("x", cc.IntConst(0))
    pa = worker.abstract_update(zero)
    values = dict(zip(pa.targets, pa.exprs))
    assert values["x<3"] == bern.BTrue()
    assert values["x<-4"] == bern.BFalse()


def test_assignment_untracked_variable():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 4), cc.VarDecl("y", 0, 4)])
    preds = PredicateList([("p", parsing.parse_cond("x < 2", ["x"]))], ctx)
    worker = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
    pa = worker.abstract_update(cc.Assign("y", cc.IntConst(1)))
    assert pa.targets == ()


def test_uniform_draw_fitted_shape(chain_draws):
    prog, ctx, preds = chain_draws
    worker = bld.Abstractor(preds, bld.AbstractionConfig("prob", "none", FIXED_HALF))
    pa = worker.abstract_update(cc.Draw("a", 0, 10))
    assert pa.targets == ("a<5",)
    assert isinstance(pa.exprs[0], bern.Flip)


def test_uniform_draw_forced_constant():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 32)])
    preds = PredicateList([("x<20", parsing.parse_cond("x < 20", ["x"]))], ctx)
    worker = bld.Abstractor(preds, bld.AbstractionConfig("prob", "none", FIXED_HALF))
    pa = worker.abstract_update(cc.Draw("x", 0, 10))
    assert pa.exprs == (bern.BTrue(),)
    worker2 = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
    pa2 = worker2.abstract_update(cc.Draw("x", 25, 32))
    assert pa2.exprs == (bern.BFalse(),)


def test_enforce_observe_counts(shift_ten):
    prog, ctx, preds = shift_ten
    cfg = bld.AbstractionConfig("prob", "observe", FIXED_HALF)
    aprog, _ = bld.abstract_program(prog, preds, cfg)
    observes = [s for s in bern.walk_stmts(aprog.body) if isinstance(s, bern.BObserve)]
    passigns = [s for s in bern.walk_stmts(aprog.body) if isinstance(s, bern.PAssign)]
    assert len(observes) == len(passigns) == 1
    # the observed invariant is {x<-4} => {x<3}
    u, got = expr_bdd_over(preds, observes[0].cond)
    b1 = bddm.var_bdd(u, u.var("x<-4"))
    b2 = bddm.var_bdd(u, u.var("x<3"))
    assert got.equiv(b1.implies(b2))


def test_enforce_observe_inserts_after_every_assignment(chain_draws):
    prog, ctx, preds = chain_draws
    cfg = bld.AbstractionConfig("prob", "observe", FIXED_HALF)
    aprog, _ = bld.abstract_program(prog, preds, cfg)
    body = list(bern.walk_stmts(aprog.body))
    observes = [s for s in body if isinstance(s, bern.BObserve)]
    passigns = [s for s in body if isinstance(s, bern.PAssign)]
    assert len(observes) == len(passigns) == 5


def _observed_after_each_assignment(program, preds, mode):
    """The observe style as a second pass made it: `program` rebuilt with
    observe(I), or assume(I) in non-deterministic mode, after every
    parallel assignment."""
    inv = bld.formula_to_expr(preds.invariant_formula())
    guard = bern.BObserve if mode == "prob" else bern.BAssume
    return bern.map_program(
        program, on_stmt=lambda s: (s, guard(inv, s.loc)) if isinstance(s, bern.PAssign) else (s,)
    )


def test_the_observe_style_is_built_once(monkeypatch):
    """In either mode an observe-style abstraction is one `BernProgram`,
    made with no `map_program`, and it is the unguarded abstraction with
    observe(I) (assume(I)) after every parallel assignment, the empty one
    of an update that no predicate mentions included."""
    rng = random.Random(41)
    built, empty = [], 0
    post_init = bern.BernProgram.__post_init__

    def no_map(*args, **kwargs):
        raise AssertionError("map_program called")

    for trial in range(40):
        mode = bld.MODES[trial % 2]
        prog = randgen.rand_concrete_program(rng, max_vars=2, max_range=6, draws=True, observes=True)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 2), theory.TheoryContext.of_program(prog))
        plain, _ = bld.abstract_program(prog, preds, bld.AbstractionConfig(mode, "none"))
        want = _observed_after_each_assignment(plain, preds, mode)
        with monkeypatch.context() as patch:
            patch.setattr(bern.BernProgram, "__post_init__", lambda self: built.append(self) or post_init(self))
            patch.setattr(bern, "map_program", no_map)
            got, _ = bld.abstract_program(prog, preds, bld.AbstractionConfig(mode, "observe"))
        assert built == [got]
        built.clear()
        assert got == want
        empty += sum(s.targets == () for s in bern.walk_stmts(got.body) if isinstance(s, bern.PAssign))
    assert empty > 0


def test_structural_shape(shift_ten):
    prog, ctx, preds = shift_ten
    cfg = bld.AbstractionConfig("prob", "structural", FIXED_HALF)
    aprog, sites = bld.abstract_program(prog, preds, cfg)
    # no observes, one single-target assignment per predicate
    assert not any(isinstance(s, bern.BObserve) for s in bern.walk_stmts(aprog.body))
    passigns = [s for s in bern.walk_stmts(aprog.body) if isinstance(s, bern.PAssign)]
    per_pred = [s for s in passigns if len(s.targets) == 1 and not s.targets[0].endswith("@pre")]
    assert [s.targets[0] for s in per_pred] == ["x<-4", "x<3"]
    assert all(s.role == "structural" for s in sites)


def test_structural_outputs_satisfy_invariant(shift_ten):
    prog, ctx, preds = shift_ten
    cfg = bld.AbstractionConfig("prob", "structural", FIXED_HALF)
    aprog, _ = bld.abstract_program(prog, preds, cfg)
    lowered = theorems.lower(aprog)
    feasible = {m.bits for m in preds.feasible_minterms()}
    for m in preds.feasible_minterms():
        assert theorems._nondet_reach(lowered, preds, m.bits) <= feasible


def test_structural_single_predicate_plain_form():
    ctx = theory.TheoryContext([cc.VarDecl("x", -16, 16)])
    preds = PredicateList([("x<3", parsing.parse_cond("x < 3", ["x"]))], ctx)
    cfg = bld.AbstractionConfig("prob", "structural", FIXED_HALF)
    prog = cc.ConcreteProgram(ctx.decls, (cc.Assign("x", cc.Add(cc.IntVar("x"), cc.IntConst(10))),))
    aprog, sites = bld.abstract_program(prog, preds, cfg)
    assert aprog.decls == ("x<3",)  # no snapshot needed
    assert len(aprog.body) == 1
    text = bern.to_text(aprog)
    assert "{x<3} = {x<3} && flip(1/2)" in text


def test_every_structural_flip_decides_on_a_feasible_pair():
    """A structural site's `free` holds on some (pre, post) pair of feasible
    minterms: no flip is allocated only where the update never goes."""
    rng = random.Random(17)
    checked = 0
    for case in range(40):
        prog = randgen.rand_concrete_program(rng, draws=case % 2 == 0)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 3), ctx)
        cfg = bld.AbstractionConfig("prob", "structural", FIXED_HALF)
        _, sites = bld.abstract_program(prog, preds, cfg)
        feasible = [m.bits for m in preds.feasible_minterms()]
        for site in sites:
            if site.role != "structural":
                continue
            u = site.free.universe
            assert any(
                not (site.free & bddm.cube(u, zip(u.variables, pre + post))).is_false
                for pre in feasible
                for post in feasible
            ), site
            checked += 1
    assert checked


class _PerMintermAbstractor(bld.Abstractor):
    """The admissible relation as the builder first made it, kept as the
    reference: one cube over (pre, cur) per feasible minterm, OR-ed, then
    cut to the feasible post-states."""

    def admissible_relation(self, stmt, targets, scratch):
        n = len(self.preds)
        pre, cur = scratch.variables[:n], scratch.variables[n:]
        pairs = {i: self._pair(stmt, i) for i in targets}
        admissible = feasible_cur = bddm.false_bdd(scratch)
        for m in self.preds.feasible_minterms():
            at_m = bddm.cube(self.preds.universe, zip(self.preds.universe.variables, m.bits))
            lits = list(zip(pre, m.bits))
            for j, bit in enumerate(m.bits):
                if j not in pairs:
                    lits.append((cur[j], bit))
                elif not (pairs[j][0] & at_m).is_false:
                    lits.append((cur[j], True))
                elif not (pairs[j][1] & at_m).is_false:
                    lits.append((cur[j], False))
            admissible = admissible | bddm.cube(scratch, lits)
            feasible_cur = feasible_cur | bddm.cube(scratch, zip(cur, m.bits))
        return admissible & feasible_cur


def test_structural_relation_matches_the_per_minterm_reference(monkeypatch):
    """The admissible relation built as one formula gives the same fitted
    text and site table as the per-minterm reference, on random programs
    with draws, branches and updates that read an already-updated
    predicate (a snapshot)."""
    rng = random.Random(59)
    formula_abstractor = bld.Abstractor
    cfg = bld.AbstractionConfig("prob", "structural", bld.ParamPolicy.fit())
    seen = {"draw": 0, "branch": 0, "snapshot": 0}
    for case in range(120):
        prog = randgen.rand_concrete_program(rng, draws=case % 2 == 0)
        ctx = theory.TheoryContext.of_program(prog)
        preds = PredicateList(randgen.rand_predicates(rng, prog.decls, 8), ctx)
        outputs = []
        for worker in (formula_abstractor, _PerMintermAbstractor):
            monkeypatch.setattr(bld, "Abstractor", worker)
            aprog, sites = bld.abstract_program(prog, preds, cfg)
            fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
            outputs.append((bern.to_text(fitted), table.dumps()))
        assert outputs[0] == outputs[1], case
        stmts = list(bern.walk_stmts(prog.body))
        seen["draw"] += any(isinstance(s, cc.Draw) for s in stmts)
        seen["branch"] += any(isinstance(s, cc.If) for s in stmts)
        seen["snapshot"] += bld.SNAPSHOT_SUFFIX in outputs[0][0]
    assert min(seen.values()) >= 20, seen


def _ladder(rng, n):
    """n two-valued variables, two of them drawn, and one predicate
    `x_i == c` each: every one of the 2^n minterms is feasible."""
    lines = [f"var x{i} in [0, 2)" for i in range(n)]
    lines += [f"x{i} = unif [0, 2)" for i in rng.sample(range(n), 2)]
    prog = parsing.parse_concrete("\n".join(lines) + "\n")
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(
        parsing.parse_preds("".join(f"x{i}: x{i} == {rng.randint(0, 1)}\n" for i in range(n))), ctx
    )
    return prog, preds


@pytest.mark.parametrize("n", [9, 10, 11])
def test_structural_ladder_answers_the_concrete_marginals(n, monkeypatch):
    """Past 8 predicates the structural fit answers, with no minterm
    enumerated, and each predicate's marginal from the alpha-image of the
    uniform concrete prior is the concrete program's."""
    prog, preds = _ladder(random.Random(n), n)
    cfg = bld.AbstractionConfig("prob", "structural", bld.ParamPolicy.fit())
    with monkeypatch.context() as patch:

        def enumerated(self):
            raise AssertionError("a minterm was enumerated")

        patch.setattr(PredicateList, "feasible_minterms", enumerated)
        aprog, sites = bld.abstract_program(prog, preds, cfg)
    fitted, _ = theorems.fit_parameters(prog, aprog, sites, preds)
    prior = cc.ConcreteDistribution.uniform_joint(prog)
    image = {}
    for key, w in prior.items():
        bits = preds.alpha(key) + (False,) * (len(fitted.decls) - n)
        image[bits] = image.get(bits, 0) + w
    out = bern.interp_exact(fitted, bern.AbstractDistribution(fitted.decls, image))
    dist = cc.eval_dist(prog, prior)
    for label, cond in zip(preds.labels, preds.conds):
        got = sum((w for state, w in out.items() if state[label]), Fraction(0)) / out.survival
        assert got == cc.query_prob(dist, cond), label


def test_branch_coverage_property():
    # !alpha && !beta is infeasible: the two branch conditions cover I
    rng = random.Random(31)
    for _ in range(25):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 2), ctx)
        worker = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
        guard = randgen.rand_cond(rng, decls)
        alpha = preds.strongest_implied(guard)
        beta = preds.strongest_implied(cc.CNot(guard))
        inv = preds.invariant_formula()
        assert ((alpha | beta) & inv).equiv(inv)


def test_choose_guard_disjointness():
    rng = random.Random(37)
    for _ in range(25):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 2), ctx)
        worker = bld.Abstractor(preds, bld.AbstractionConfig("nondet", "none"))
        stmt = randgen.rand_safe_assign(rng, decls)
        for i in range(len(preds)):
            if stmt.name not in cc.tree_vars(preds.conds[i]):
                continue
            t, f = worker.choose_pair(stmt, i)
            both = t & f & preds.invariant_formula()
            assert both.is_false


@pytest.mark.parametrize("n", [10, 13, 16])
def test_independent_predicate_ladder(n):
    """n two-valued variables with one predicate each, up to the predicate
    bound: all 2^n minterms are feasible and nothing recurses per minterm."""
    lines = [f"var x{i} in [0, 2)" for i in range(n)]
    lines += ["x0 = unif [0, 2)", f"x{n - 1} = unif [0, 2)"]
    prog = parsing.parse_concrete("\n".join(lines) + "\n")
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(parsing.parse_preds("".join(f"x{i}: x{i} == 1\n" for i in range(n))), ctx)
    config = bld.AbstractionConfig(mode="prob", invariant_style="observe", params=bld.ParamPolicy.fit())
    aprog, sites = bld.abstract_program(prog, preds, config)
    fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
    assert len(preds.feasible_minterms()) == 2**n
    assert preds.invariant_formula().is_true
    assert [s.theta for s in table.sites] == [Fraction(1, 2)] * 2


def test_concrete_observe_becomes_observe():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 8)])
    preds = PredicateList([("x<4", parsing.parse_cond("x < 4", ["x"]))], ctx)
    prog = cc.ConcreteProgram(ctx.decls, (cc.Observe(parsing.parse_cond("x < 2", ["x"])),))
    aprog, _ = bld.abstract_program(prog, preds, bld.AbstractionConfig("prob", "none", FIXED_HALF))
    assert isinstance(aprog.body[0], bern.BObserve)
    nprog, _ = bld.abstract_program(prog, preds, bld.AbstractionConfig("nondet", "none"))
    assert isinstance(nprog.body[0], bern.BAssume)


def test_empty_program_abstracts_to_empty(branch_reset):
    prog, ctx, preds = branch_reset
    empty = cc.ConcreteProgram(prog.decls, ())
    aprog, sites = bld.abstract_program(empty, preds, bld.AbstractionConfig("nondet", "none"))
    assert aprog.body == ()
    assert len(sites) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        bld.AbstractionConfig("nondet", "structural")
    with pytest.raises(ValueError):
        bld.ParamPolicy.fixed(Fraction(3, 2))
    with pytest.raises(ValueError):
        bld.AbstractionConfig("maybe")


def test_site_table_json(chain_draws):
    prog, ctx, preds = chain_draws
    cfg = bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.symbolic())
    _, sites = bld.abstract_program(prog, preds, cfg)
    blob = sites.to_json()
    assert len(blob) == 5
    assert blob[1]["context"] == ["a<5"]
    assert blob[2]["context"] == ["!a<5"]
    assert all(entry["theta"].get("symbolic") for entry in blob)


_STALE_INNER = {
    "flat": "  y = unif [0, 16)\n",
    "nested": "  if (x < 0) {\n    y = unif [0, 16)\n  }\n",
}


@pytest.mark.parametrize("style", bld.INVARIANT_STYLES)
@pytest.mark.parametrize("inner", sorted(_STALE_INNER))
def test_a_write_drops_the_context_literals_it_makes_stale(inner, style):
    """The branch on y < 4 puts a and b in the context, and the draw to y
    (or an `if` that may draw it) makes both stale: the site of r after
    x = y - 1 has an empty context and fits 1/4, as without the branch,
    instead of deciding on no mass where a and b still held."""
    text = ("var x in [-8, 16)\nvar y in [0, 16)\nif (y < 4) {\n"
            + _STALE_INNER[inner] + "  x = y - 1\n}\n")
    prog = parsing.parse_concrete(text)
    preds = PredicateList(parsing.parse_preds("a: y < 4\nb: y < 8\nr: x < 4\n"),
                          theory.TheoryContext.of_program(prog))
    cfg = bld.AbstractionConfig("prob", style, bld.ParamPolicy.fit())
    aprog, sites = bld.abstract_program(prog, preds, cfg)
    _, table = theorems.fit_parameters(prog, aprog, sites, preds)
    (site,) = [s for s in table if s.predicate == "r"]
    assert (site.context, site.theta, site.flagged) == ((), Fraction(1, 4), False)
