"""Predicate domain: alpha/gamma, minterms, approximation operators."""

import itertools
import random

import pytest

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import concrete as cc
from bernabs import parsing, randgen, theory
from bernabs.domain import PredicateList
from bernabs.errors import ParseError, PredicateBoundError, RangeViolationError, TheoryCapError
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


def test_alpha_is_the_truth_of_each_predicate():
    """α of a state is each predicate's truth there, read off the α-image,
    on random domains with negative bounds and width-1 variables, and on a
    ladder too fine for cell masks; a value out of its range, a key of the
    wrong length and a domain past the cap are refused."""
    rng = random.Random(17)
    cases = []
    for _ in range(40):
        decls = tuple(
            cc.VarDecl(f"v{i}", lo, lo + rng.choice((1, 1, 2, 3, 5)))
            for i, lo in enumerate(rng.randint(-6, 2) for _ in range(rng.randint(1, 4)))
        )
        cases.append((decls, [(f"p{i}", randgen.rand_cond(rng, decls)) for i in range(rng.randint(0, 4))]))
    ladder = tuple(cc.VarDecl(f"x{i}", -1, 1) for i in range(7))
    cases.append((ladder, [(f"p{i}", parsing.parse_cond(f"x{i} < 0", [f"x{i}"])) for i in range(7)]))
    for decls, pairs in cases:
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(pairs, ctx)
        for z in ctx.states():
            assert preds.alpha(z) == tuple(naive_cond(c, ctx.names, z) for c in preds.conds)
        top = tuple(d.hi for d in decls)
        with pytest.raises(RangeViolationError, match=f"{decls[-1].name} = {decls[-1].hi} escapes"):
            preds.alpha(tuple(d.lo for d in decls[:-1]) + top[-1:])
        with pytest.raises(ValueError):
            preds.alpha(top[:-1])
    assert preds._cell_masks is None
    wide = theory.TheoryContext([cc.VarDecl(f"x{i}", 0, 2) for i in range(40)])
    with pytest.raises(TheoryCapError):
        PredicateList([("a", parsing.parse_cond("x0 < 1", ["x0"]))], wide).alpha((0,) * 40)


def test_gamma_lower_examples():
    _, preds = single_pred_domain()
    assert preds.gamma_lower((True,)) == [(-2,), (-1,)]
    _, preds2 = two_pred_domain()
    assert preds2.gamma_lower((True, False)) == []  # x<-4 and not x<3
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 3)])
    empty = PredicateList([], ctx)
    assert len(empty.gamma_lower(())) == 3


def test_each_condition_and_the_cells_are_built_once(monkeypatch):
    """Counts the masks the theory builds (its folds of a condition) and
    the sweeps of ``states()``: a repeated text costs nothing, a condition
    and its negation cost one mask, and the cells are made once."""
    ctx, preds = two_pred_domain()
    built, swept = [], []
    real_fold, real_states = bern.fold, theory.TheoryContext.states

    def fold(tree, visit):
        if getattr(visit, "__func__", None) is theory.TheoryContext._combine:
            built.append(str(tree))
        return real_fold(tree, visit)

    monkeypatch.setattr(bern, "fold", fold)
    monkeypatch.setattr(theory.TheoryContext, "states", lambda c: swept.append(1) or real_states(c))
    cond = parsing.parse_cond("x < 0", ["x"])
    first = preds.strongest_implied(cond)
    # the condition, then the cells: all states and one mask per predicate
    assert built == ["x < 0", "T", "x < -4", "x < 3"] and swept == []
    # the same text again, and the same condition as the negated target
    again = preds.strongest_implied(parsing.parse_cond("x < 0", ["x"]))
    assert again.equiv(first) and len(built) == 4
    assert preds.weakest_sufficient(cc.CNot(cond)).equiv(preds.weakest_sufficient(cc.CNot(cond)))
    assert len(built) == 4
    # a condition and then its negation, through either operator: one mask,
    # and each image is the one a sweep of the states finds
    for query, text in ((preds.strongest_implied, "x >= 5"), (preds.weakest_sufficient, "x != -6")):
        g = parsing.parse_cond(text, ["x"])
        builds = len(built)
        query(g)
        query(cc.CNot(g))
        assert len(built) == builds + 1
    assert swept == []
    for text in ("x >= 5", "x != -6"):
        g = parsing.parse_cond(text, ["x"])
        for c in (g, cc.CNot(g), cc.CNot(cc.CNot(g))):
            direct = PredicateList(zip(preds.labels, preds.conds), ctx)._image_of(c)
            want = {preds.alpha((x,)) for x in range(-8, 8) if naive_cond(c, ["x"], (x,))}
            assert preds._image_of(c) == direct == want
    # a condition over an undeclared variable is still refused
    with pytest.raises(ParseError, match="undeclared variables: y"):
        preds.strongest_implied(parsing.parse_cond("y < 0", ["x", "y"]))
    cells = preds.cells()
    builds, sweeps = len(built), len(swept)
    cells[(False, True)].clear()
    preds.gamma_lower((True, True)).clear()
    assert preds.cells() == {bits: preds.gamma_lower(bits) for bits in cells}
    assert preds.gamma_lower((True, True)) == [(x,) for x in range(-8, -4)]
    assert len(preds.gamma_lower((False, True))) == 7
    assert (len(built), len(swept)) == (builds, sweeps)


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


def test_the_invariant_is_built_once_per_domain(monkeypatch):
    """A second call hands back the Bdd the first call built, which is the
    node a fresh build of the feasible minterms gives."""
    built, canonical = [], PredicateList._canonical
    monkeypatch.setattr(PredicateList, "_canonical", lambda self, rows: built.append(1) or canonical(self, rows))
    _, preds = two_pred_domain()
    first = preds.invariant_formula()
    assert preds.invariant_formula() is first
    assert len(built) == 1
    assert canonical(preds, (m.bits for m in preds.feasible_minterms())).ref == first.ref


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


def _reference(preds, conds):
    """A sweep of every state with the reference evaluator: the α-image,
    the cells in sorted order, and the image of each of `conds`."""
    ctx = preds.ctx
    states = list(ctx.states())
    image = [tuple(naive_cond(p, ctx.names, z) for p in preds.conds) for z in states]
    cells = {}
    for z, bits in sorted(zip(states, image), key=lambda pair: pair[1]):
        cells.setdefault(bits, {})[z] = None
    images = {
        str(c): {bits for z, bits in zip(states, image) if naive_cond(c, ctx.names, z)}
        for c in conds
    }
    return image, cells, images


def test_cells_and_images_match_a_state_sweep():
    """The cells, `cell_map`, the α-image and `_image_of` equal a sweep of
    every state, for partitions kept as cell masks and for partitions too
    fine for them (more than `DENSE_CELLS` cells), which are read off the
    α-image."""
    from bernabs.domain import DENSE_CELLS

    rng = random.Random(41)
    cases = []
    for _ in range(30):
        decls = randgen.rand_decls(rng, max_vars=3, max_range=6)
        pairs = randgen.rand_predicates(rng, decls, 4)
        cases.append((decls, pairs))
    for n in (6, 7, 9):  # a ladder: 2**n one-state cells
        decls = tuple(cc.VarDecl(f"x{i}", 0, 2) for i in range(n))
        cases.append((decls, [(f"p{i}", parsing.parse_cond(f"x{i} == 1", [f"x{i}"])) for i in range(n)]))
    kinds = set()
    for decls, pairs in cases:
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(pairs, ctx)
        conds = [randgen.rand_cond(rng, decls) for _ in range(4)]
        image, cells, images = _reference(preds, conds + [cc.CNot(c) for c in conds])
        for c in conds:
            assert preds._image_of(c) == images[str(c)]
            assert preds._image_of(cc.CNot(c)) == images[str(cc.CNot(c))]
        kinds.add(preds._cell_masks is None)
        assert (preds._cell_masks is None) == (len(cells) > DENSE_CELLS)
        assert preds._alpha_image()[0] == image
        assert list(preds._alpha_image()[1]) == list(cells)
        assert [m.bits for m in preds.feasible_minterms()] == list(cells)
        assert preds.cell_map() == cells and list(preds.cell_map()) == list(cells)
        assert all(list(preds.cell_map()[bits]) == list(cells[bits]) for bits in cells)
    assert kinds == {True, False}
