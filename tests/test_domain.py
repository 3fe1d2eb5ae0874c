"""Predicate domain: alpha/gamma, minterms, approximation operators."""

import itertools
import random

import pytest

from bernabs import bdd as bddm
from bernabs import concrete as cc
from bernabs import parsing, randgen, theory
from bernabs.domain import PredicateList
from bernabs.errors import ParseError, PredicateBoundError
from bernabs.selftest import naive_cond


def pred_bdd(preds, label):
    return bddm.var_bdd(preds.universe, preds.var(label))


def minterm_bdd(preds, bits):
    return bddm.cube(preds.universe, zip(preds.universe.variables, bits))


def equivalent_mod_invariant(preds, f, g):
    """Semantic equality restricted to feasible abstract states."""
    inv = preds.invariant_formula()
    return (f & inv).equiv(g & inv)


def single_pred_domain():
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    preds = PredicateList([("x<0", parsing.parse_cond("x < 0", ["x"]))], ctx)
    return ctx, preds


def two_pred_domain():
    ctx = theory.TheoryContext([cc.VarDecl("x", -8, 8)])
    preds = PredicateList(
        parsing.parse_preds("x<-4: x < -4\nx<3: x < 3"), ctx
    )
    return ctx, preds


def test_alpha_examples():
    _, preds = single_pred_domain()
    assert preds.alpha((-1,)) == (True,)
    _, preds2 = two_pred_domain()
    assert preds2.alpha((0,)) == (False, True)
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 2)])
    empty = PredicateList([], ctx)
    assert empty.alpha((1,)) == ()


def test_gamma_lower_examples():
    _, preds = single_pred_domain()
    assert preds.gamma_lower((True,)) == [(-2,), (-1,)]
    _, preds2 = two_pred_domain()
    assert preds2.gamma_lower((True, False)) == []  # x<-4 and not x<3
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 3)])
    empty = PredicateList([], ctx)
    assert len(empty.gamma_lower(())) == 3


def test_each_condition_and_the_cells_are_swept_once(monkeypatch):
    ctx, preds = two_pred_domain()
    swept = []
    real = theory.TheoryContext.states
    monkeypatch.setattr(theory.TheoryContext, "states", lambda c: swept.append(1) or real(c))
    cond = parsing.parse_cond("x < 0", ["x"])
    first = preds.strongest_implied(cond)
    sweeps = len(swept)
    # the same text again, and the same condition as the negated target
    again = preds.strongest_implied(parsing.parse_cond("x < 0", ["x"]))
    assert again.equiv(first) and len(swept) == sweeps
    assert preds.weakest_sufficient(cc.CNot(cond)).equiv(preds.weakest_sufficient(cc.CNot(cond)))
    assert len(swept) == sweeps + 1
    # a condition and then its negation, through either operator: one sweep,
    # and the negation's image is the one a sweep of its own finds
    for query, text in ((preds.strongest_implied, "x >= 5"), (preds.weakest_sufficient, "x != -6")):
        g = parsing.parse_cond(text, ["x"])
        sweeps = len(swept)
        query(g)
        query(cc.CNot(g))
        assert len(swept) == sweeps + 1
        for c in (g, cc.CNot(g), cc.CNot(cc.CNot(g))):
            direct = PredicateList(zip(preds.labels, preds.conds), ctx)._image_of(c)
            want = {preds.alpha((x,)) for x in range(-8, 8) if naive_cond(c, ["x"], (x,))}
            assert preds._image_of(c) == direct == want
    # a condition over an undeclared variable is still refused
    with pytest.raises(ParseError, match="undeclared variables: y"):
        preds.strongest_implied(parsing.parse_cond("y < 0", ["x", "y"]))
    cells = preds.cells()
    sweeps = len(swept)
    cells[(False, True)].clear()
    preds.gamma_lower((True, True)).clear()
    assert preds.cells() == {bits: preds.gamma_lower(bits) for bits in cells}
    assert preds.gamma_lower((True, True)) == [(x,) for x in range(-8, -4)]
    assert len(preds.gamma_lower((False, True))) == 7
    assert len(swept) == sweeps


def test_predicate_bound():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 2)])
    many = [(f"p{i}", parsing.parse_cond("x < 1", ["x"])) for i in range(3)]
    with pytest.raises(PredicateBoundError):
        PredicateList(
            [(f"p{i}", parsing.parse_cond("x < 1", ["x"])) for i in range(17)], ctx
        )
    # duplicates of the same condition are fine as long as labels differ
    PredicateList(many, ctx)


def test_strongest_implied_examples():
    _, preds = two_pred_domain()
    guard = parsing.parse_cond("x < 0", ["x"])
    p_t = preds.strongest_implied(guard)
    p_f = preds.strongest_implied(cc.CNot(guard))
    assert p_t.equiv(pred_bdd(preds, "x<3"))
    assert p_f.equiv(~pred_bdd(preds, "x<-4"))
    assert preds.strongest_implied(cc.CFalse()).is_false


def test_weakest_sufficient_examples():
    _, preds = two_pred_domain()
    x_plus_1 = cc.Add(cc.IntVar("x"), cc.IntConst(1))
    t = preds.weakest_sufficient(
        theory.wp_subst("x", x_plus_1, preds.cond_of("x<3"))
    )
    f = preds.weakest_sufficient(
        theory.wp_subst("x", x_plus_1, cc.CNot(preds.cond_of("x<3")))
    )
    b1 = pred_bdd(preds, "x<-4")
    b2 = pred_bdd(preds, "x<3")
    assert equivalent_mod_invariant(preds, t, b1)
    assert equivalent_mod_invariant(preds, f, ~b2)
    # target T: all feasible minterms, i.e. the invariant
    top = preds.weakest_sufficient(cc.CTrue())
    assert top.equiv(preds.invariant_formula())


def test_invariant_examples():
    _, preds = two_pred_domain()
    b1 = pred_bdd(preds, "x<-4")
    b2 = pred_bdd(preds, "x<3")
    assert preds.invariant_formula().equiv(b1.implies(b2))

    ctx, single = single_pred_domain()[0], single_pred_domain()[1]
    assert single.invariant_formula().is_true

    ctx2 = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    dup = PredicateList(
        [("a", parsing.parse_cond("x < 0", ["x"])), ("b", parsing.parse_cond("x < 0", ["x"]))],
        ctx2,
    )
    va, vb = (pred_bdd(dup, n) for n in ("a", "b"))
    assert dup.invariant_formula().equiv(va.iff(vb))


def test_compatibility_properties():
    rng = random.Random(4)
    for _ in range(25):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 3), ctx)
        cells = {}
        for key in ctx.states():
            bits = preds.alpha(key)
            cells.setdefault(bits, set()).add(key)
            # compatibility: z lies in the cell of its own abstraction
            assert key in preds.gamma_lower(bits)
        # strong compatibility: distinct cells are disjoint by construction
        seen = {}
        for bits, keys in cells.items():
            for k in keys:
                assert k not in seen
                seen[k] = bits
        # gamma_lower is the brute-force cell, empty for infeasible minterms;
        # alpha is taken here by the reference evaluator, not compiled
        states = list(ctx.states())
        for m in preds.minterms():
            cell = [
                z for z in states
                if tuple(naive_cond(c, ctx.names, z) for c in preds.conds) == m.bits
            ]
            assert preds.gamma_lower(m.bits) == cell


def test_strongest_implied_is_strongest():
    rng = random.Random(6)
    for _ in range(20):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 2), ctx)
        c = randgen.rand_cond(rng, decls)
        d = preds.strongest_implied(c)
        # implied by c: every satisfying state abstracts into the formula
        for z in ctx.states():
            if naive_cond(c, ctx.names, z):
                bits = preds.alpha(z)
                assert not (d & minterm_bdd(preds, bits)).is_false
        # strongest: every included minterm is witnessed by some c-state
        for m in preds.minterms():
            assert m.feasible == ctx.satisfiable(m.cond)
            inc = not (d & minterm_bdd(preds, m.bits)).is_false
            witnessed = ctx.satisfiable(cc.CAnd(m.cond, c))
            assert inc == witnessed


def test_weakest_sufficient_is_weakest():
    rng = random.Random(13)
    for _ in range(20):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 2), ctx)
        t = randgen.rand_cond(rng, decls)
        d = preds.weakest_sufficient(t)
        for m in preds.feasible_minterms():
            inc = not (d & minterm_bdd(preds, m.bits)).is_false
            # sufficiency for the included, maximality for the excluded
            assert inc == ctx.entails(m.cond, t)


def test_duality_on_feasible_minterms():
    rng = random.Random(21)
    for _ in range(20):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 2), ctx)
        t = randgen.rand_cond(rng, decls)
        inv = preds.invariant_formula()
        ws = preds.weakest_sufficient(t)
        si = preds.strongest_implied(cc.CNot(t))
        assert (ws & inv).equiv(~si & inv)


def test_preds_serialization_round_trip():
    _, preds = two_pred_domain()
    from bernabs.domain import predicate_list_text

    text = predicate_list_text(preds)
    again = parsing.parse_preds(text)
    assert [lbl for lbl, _ in again] == list(preds.labels)
