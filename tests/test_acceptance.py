"""Acceptance criteria, one test per criterion, each with its time bound.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import contextlib
import time
from fractions import Fraction

import pytest

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import builder as bld
from bernabs import concrete as cc
from bernabs import corpus, engine, parsing, selftest, theorems, theory
from bernabs.domain import PredicateList
from bernabs.engine import expr_to_bdd

FIXED_HALF = bld.ParamPolicy.fixed(Fraction(1, 2))


@contextlib.contextmanager
def criterion(number, description, bound_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[acceptance {number}] FAIL {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < bound_seconds, (
        f"criterion {number} took {elapsed:.1f}s, bound {bound_seconds}s"
    )
    print(f"[acceptance {number}] PASS {description} ({elapsed:.2f}s < {bound_seconds:g}s)")


def _setting():
    prog = parsing.parse_concrete(corpus.BRANCH_RESET_CP)
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(parsing.parse_preds(corpus.BRANCH_RESET_PREDS), ctx)
    return prog, ctx, preds


def _value_bdd(preds, expr):
    """Bdd of an update expression with every flip/star leaf mapped to one
    shared choice variable (each emitted update has at most one leaf)."""
    specs = [(lbl, None) for lbl in preds.labels]
    specs.append(("<choice>", None))
    u = bddm.make_universe(specs)
    choice = u.var("<choice>")
    expr = bern.map_expr(expr, lambda e: bern.BVar("<choice>") if isinstance(e, bern.Star) else e)
    return u, expr_to_bdd(
        u,
        expr,
        lambda name: u.var(name),
        flip_var=lambda e: choice,
    )


def test_criterion_1_branch_reset_golden():
    with criterion(1, "Boolean-program abstraction of the branch/reset program", 1.0):
        prog, ctx, preds = _setting()
        aprog, _ = bld.abstract_program(
            prog, preds, bld.AbstractionConfig("nondet", "none")
        )
        branch = aprog.body[0]
        assert isinstance(branch.cond, bern.Star)
        then_assume, else_assume = branch.then[0], branch.els[0]
        assert isinstance(then_assume, bern.BAssume)

        # branch information: exactly {x<3} and !{x<-4}
        u1, then_b = _value_bdd(preds, then_assume.cond)
        assert then_b.equiv(bddm.var_bdd(u1, u1.var("x<3")))
        u2, else_b = _value_bdd(preds, else_assume.cond)
        assert else_b.equiv(~bddm.var_bdd(u2, u2.var("x<-4")))

        # x = x + 1 updates, equivalent over feasible states to
        # choose({x<-4}, !{x<3}) and choose(F, !{x<3} || !{x<-4})
        update = branch.els[1]
        values = dict(zip(update.targets, update.exprs))

        def check(label, want_t, want_f):
            u, got = _value_bdd(preds, values[label])
            b1 = bddm.var_bdd(u, u.var("x<-4"))
            b2 = bddm.var_bdd(u, u.var("x<3"))
            t, f = want_t(b1, b2, u), want_f(b1, b2)
            choice = bddm.var_bdd(u, u.var("<choice>"))
            want = t | (~f & choice)
            inv_b = b1.implies(b2)
            assert (got & inv_b).equiv(want & inv_b)

        check("x<3", lambda b1, b2, u: b1, lambda b1, b2: ~b2)
        check("x<-4", lambda b1, b2, u: bddm.false_bdd(u), lambda b1, b2: ~b2 | ~b1)


def test_criterion_2_reachability():
    with criterion(2, "model checking: !{x<-4} always, !{x<3} reachable", 1.0):
        prog, ctx, preds = _setting()
        built, _ = bld.abstract_program(
            prog, preds, bld.AbstractionConfig("nondet", "none")
        )
        hand = parsing.parse_bern(corpus.BRANCH_RESET_BERN)
        feasible = {m.bits for m in preds.feasible_minterms()}
        for aprog in (built, hand):
            finals = bern.interp_nondet(aprog, feasible)
            assert finals, "no reachable end states"
            assert all(not s[0] for s in finals)  # {x<-4} is always F
            assert any(not s[1] for s in finals)  # x >= 0 is NOT provable


def test_criterion_3_eleven_thirty_seconds_three_ways():
    prog = parsing.parse_concrete(corpus.CHAIN_DRAWS_CP)
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(parsing.parse_preds(corpus.CHAIN_DRAWS_PREDS), ctx)
    results = {}
    with criterion(3, "11/32 via infer on the hand-written abstraction", 1.0):
        hand = parsing.parse_bern(corpus.CHAIN_DRAWS_BERN)
        event = parsing.parse_event("{c<5}", hand.decls)
        results["infer"] = engine.query(hand, event).probability
        assert results["infer"] == Fraction(11, 32)
    with criterion(3, "11/32 via fit followed by infer", 1.0):
        cfg = bld.AbstractionConfig("prob", "observe", bld.ParamPolicy.fit())
        aprog, sites = bld.abstract_program(prog, preds, cfg)
        fitted, _ = theorems.fit_parameters(prog, aprog, sites, preds)
        event = parsing.parse_event("{c<5}", fitted.decls)
        results["fit"] = engine.query(
            fitted, event, init=bld.formula_to_expr(preds.invariant_formula())
        ).probability
        assert results["fit"] == Fraction(11, 32)
    with criterion(3, "11/32 via brute-force concrete enumeration", 1.0):
        dist = cc.eval_dist(prog, cc.ConcreteDistribution.point(prog, (0, 0, 0)))
        results["concrete"] = cc.query_prob(dist, preds.cond_of("c<5"))
        assert results["concrete"] == Fraction(11, 32)
    assert len(set(results.values())) == 1


def test_criterion_4_delta_transfer():
    with criterion(4, "Delta transfer through {x<4} = {x<4} && flip(theta)", 1.0):
        aprog = parsing.parse_bern("bool {x<4}\n{x<4} = {x<4} && flip(1/2)")
        run = engine.run_symbolic(aprog, init=bern.BVar("x<4"))
        sym = run.ctx
        x = bddm.var_bdd(sym.universe, sym.state_vars["x<4"])
        f = bddm.var_bdd(sym.universe, sym.flip_vars[0])
        assert run.at(1).delta.equiv((x & f) | (~x & ~f))
        assert engine.query(run, bern.BVar("x<4")).probability == Fraction(1, 2)


def test_criterion_5_theorem_1_suite():
    with criterion(5, "theorem 1: 200 random pairs, prob iff lowered-nondet", 60.0):
        result = selftest.suite_theorem1(seed=2024, cases=200)
        assert result.failures == []
        assert result.cases == 200


def test_criterion_6_theorem_2_suite():
    with criterion(6, "theorem 2: 100 abstractions x 3 gamma families", 60.0):
        result = selftest.suite_theorem2(seed=2024, cases=100)
        assert result.failures == []


def test_criterion_7_engine_equivalence():
    with criterion(7, "engine equivalence: 200 random BERN programs", 60.0):
        result = selftest.suite_engine_equivalence(seed=2024, cases=200)
        assert result.failures == []


def test_criterion_8_invariant_styles():
    with criterion(8, "observe vs structural lowered supports, 100 cases", 30.0):
        result = selftest.suite_invariant_styles(seed=2024, cases=100)
        assert result.failures == []


def test_criterion_9_generated_soundness():
    with criterion(9, "soundness of 100 generated abstractions at theta=1/2", 60.0):
        result = selftest.suite_generated_soundness(seed=2024, cases=100)
        assert result.failures == []


def test_criterion_10_oracle_crosscheck():
    with criterion(10, "theory oracle vs independent evaluator, 500 queries", 30.0):
        result = selftest.suite_oracle_crosscheck(seed=2024, cases=500)
        assert result.failures == []


def test_criterion_10_smt_crosscheck_optional():
    name, path = selftest.find_smt_solver()
    if path is None:
        print("[acceptance 10b] SKIP external SMT solver not installed")
        pytest.skip("no external SMT solver on PATH")
    with criterion("10b", f"SMT-LIB2 scripts agree with {name}", 30.0):
        result = selftest.suite_smt_crosscheck(seed=2024, cases=20)
        assert result.failures == []
