"""Propositional layer: apply/exists, weighted and joint counting, BERN round trip."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import builder as bld
from bernabs import engine, kernel
from bernabs.engine import expr_to_bdd
from bernabs.errors import UniverseError


def pred_universe(n):
    return bddm.make_universe([(f"b{i}", None) for i in range(n)])


def formulas(universe, max_depth=4):
    """Flip-free BERN expressions over the universe's variables."""
    refs = [bern.BVar(v.label) for v in universe.variables]
    base = st.sampled_from(refs + [bern.BTrue(), bern.BFalse()])

    def extend(children):
        return st.one_of(
            st.builds(bern.BNot, children),
            st.builds(bern.BAnd, children, children),
            st.builds(bern.BOr, children, children),
            st.builds(bern.BImp, children, children),
            st.builds(bern.BIff, children, children),
        )

    return st.recursive(base, extend, max_leaves=2**max_depth)


def build(universe, e):
    return expr_to_bdd(universe, e, universe.var)


def holds(e, assignment):
    """`e` under a {BoolVar: bool} assignment, by the BERN interpreter."""
    return bern.eval_expr(e, {v.label: bit for v, bit in assignment.items()}, {})


def truth_table(f, universe):
    rows = []
    for bits in itertools.product((False, True), repeat=len(universe)):
        rows.append(holds(f, dict(zip(universe.variables, bits))))
    return tuple(rows)


def ref(v):
    return bern.BVar(v.label)


# --- golden examples --------------------------------------------------------


def test_contradiction_and_tautology():
    u = pred_universe(1)
    a = ref(u.variables[0])
    assert build(u, bern.BAnd(a, bern.BNot(a))).is_false
    assert build(u, bern.BOr(a, bern.BNot(a))).is_true


def test_biconditional_structure():
    # {x<4} <-> f: only the two agreeing assignments satisfy, and the
    # canonical no-complement-edge diagram has three internal nodes
    u = bddm.make_universe(
        [("{x<4}", None), ("f", Fraction(1, 2))]
    )
    p, f = u.variables
    d = build(u, bern.BIff(ref(p), ref(f)))
    vp, vf = bddm.var_bdd(u, p), bddm.var_bdd(u, f)
    assert d.count_models([p, f]) == 2
    assert d.equiv((vp & vf) | (~vp & ~vf))
    assert d.size() == 3


def test_apply_identities():
    u = pred_universe(2)
    a, b = (bddm.var_bdd(u, v) for v in u.variables)
    assert (bddm.true_bdd(u) & a).equiv(a)
    assert (a | ~a).is_true
    both = a & b
    assert both.count_models(u.variables) == 1
    assert both.restrict(u.variables[0], True).restrict(u.variables[1], True).is_true


def test_exists_examples():
    u = pred_universe(2)
    a, b = u.variables
    d = build(u, bern.BAnd(ref(a), ref(b)))
    assert d.exists([a]).equiv(bddm.var_bdd(u, b))
    assert bddm.false_bdd(u).exists([a]).is_false
    # (p && f) || (!p && !f): either p value has a witnessing f
    u2 = bddm.make_universe(
        [("p", None), ("f", Fraction(1, 2))]
    )
    p, f = u2.variables
    iff = build(u2, bern.BIff(ref(p), ref(f)))
    assert iff.exists([f]).is_true


def test_wmc_examples():
    u = bddm.make_universe([("f", Fraction(1, 2))])
    assert bddm.true_bdd(u).wmc({v: v.weights() for v in u.variables}) == 1

    u2 = bddm.make_universe(
        [("f1", Fraction(1, 2)), ("f2", Fraction(1, 4))]
    )
    f1, f2 = u2.variables
    d = build(u2, bern.BAnd(ref(f1), ref(f2)))
    assert d.wmc({v: v.weights() for v in u2.variables}) == Fraction(1, 8)


def test_wmc_missing_entry():
    u = pred_universe(2)
    a, b = u.variables
    d = build(u, bern.BAnd(ref(a), ref(b)))
    with pytest.raises(UniverseError):
        d.wmc({a: (Fraction(1), Fraction(1))})


def test_enumerate_models_examples():
    u = pred_universe(1)
    (a,) = u.variables
    assert bddm.false_bdd(u).count_models([a]) == 0
    assert bddm.true_bdd(u).count_models([a]) == 2
    u2 = pred_universe(2)
    a, b = u2.variables
    d = build(u2, bern.BOr(ref(a), ref(b)))
    assert d.count_models([a, b]) == 3
    # the one non-model is a = b = F
    assert d.restrict(a, False).restrict(b, False).is_false


def test_universe_mixing_rejected():
    u1, u2 = pred_universe(1), pred_universe(1)
    with pytest.raises(UniverseError):
        bddm.true_bdd(u1) & bddm.true_bdd(u2)


def test_dot_export():
    u = pred_universe(2)
    a, b = u.variables
    dot = build(u, bern.BAnd(ref(a), ref(b))).to_dot()
    assert 'label="b0"' in dot and "style=dashed" in dot and "style=solid" in dot


def test_dot_escapes_labels():
    u = bddm.make_universe([('a"b', None), ("c\\d", None)])
    a, c = u.variables
    dot = build(u, bern.BAnd(ref(a), ref(c))).to_dot()
    assert 'label="a\\"b"' in dot and 'label="c\\\\d"' in dot


def test_every_walk_runs_on_a_chain_deeper_than_the_stack():
    """b0 && b2 && ... over 3,200 levels, built with ``mk``, each odd level
    free: every walk over it is a fold, which does not recurse per level."""
    n = 3200
    u = pred_universe(2 * n)
    table = u.table
    ref_ = kernel.TRUE
    for level in range(2 * n - 2, -1, -2):
        ref_ = table.mk(level, kernel.FALSE, ref_)
    d = bddm.Bdd(u, ref_)
    evens, odds = u.variables[0::2], u.variables[1::2]
    assert d.size() == n
    assert d.support() == evens
    assert d.count_models(u.variables) == 2**n
    assert d.wmc({v: (Fraction(1, 2), Fraction(1, 2)) for v in evens}) == Fraction(1, 2**n)
    assert d.to_dot().count("style=solid") == n
    assert build(u, bld.formula_to_expr(d)).equiv(d)
    assert (~~d).equiv(d) and not (~d).equiv(d)
    assert d.restrict(evens[-1], False).is_false
    assert d.exists([evens[-1]]).equiv(d.restrict(evens[-1], True))


# --- properties ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonicity(data):
    u = pred_universe(4)
    f = data.draw(formulas(u))
    g = data.draw(formulas(u))
    same = truth_table(f, u) == truth_table(g, u)
    assert build(u, f).equiv(build(u, g)) == same


# flip parameters with unlike denominators, and the degenerate 0 and 1
THETAS = [Fraction(1, 3), Fraction(2, 7), Fraction(0), Fraction(1), Fraction(5, 6)]
# weight pairs that do not sum to 1, two of them summing to 0
ODD_PAIRS = [(1, 1), (2, 3), (Fraction(3, 4), Fraction(5, 9)), (0, 0), (Fraction(-1, 2), Fraction(1, 2))]


def weighted_diagram(data):
    """A diagram over predicates weighted (1, 1) mixed with flips, its
    formula, and a weight map that covers the support and any subset of the
    other variables, and may override pairs."""
    n = data.draw(st.integers(1, 6))
    specs = []
    for i in range(n):
        if data.draw(st.booleans()):
            specs.append((f"p{i}", None))
        else:
            specs.append((f"f{i}", data.draw(st.sampled_from(THETAS))))
    u = bddm.make_universe(specs)
    f = data.draw(formulas(u))
    d = build(u, f)
    support = set(d.support())
    keys = [v for v in u.variables if v in support or data.draw(st.booleans())]
    weights = {}
    for v in keys:
        odd = data.draw(st.booleans())
        weights[v] = data.draw(st.sampled_from(ODD_PAIRS)) if odd else v.weights()
    return u, f, d, weights


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wmc_matches_bruteforce(data):
    u, f, d, weights = weighted_diagram(data)
    keys = list(weights)
    total = Fraction(0)
    for bits in itertools.product((False, True), repeat=len(keys)):
        assignment = {v: False for v in u.variables}
        assignment.update(zip(keys, bits))
        if holds(f, assignment):
            w = Fraction(1)
            for v, bit in zip(keys, bits):
                wt, wf = weights[v]
                w *= wt if bit else wf
            total += w
    assert d.wmc(weights) == total


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_weights_counts_many_diagrams(data):
    """A Weights keeps each node's count for the next diagram: the counts
    of several diagrams, in any order and repeated, are each one's count
    over a fresh map."""
    u, _, d, weights = weighted_diagram(data)
    others = [build(u, data.draw(formulas(u, max_depth=3))) for _ in range(3)]
    weights.update((v, v.weights()) for e in others for v in e.support() if v not in weights)
    kept = bddm.Weights(u, weights)
    for e in [d, *others, d, others[0] & d]:
        assert e.wmc(kept) == e.wmc(dict(weights))
    with pytest.raises(UniverseError, match="another universe"):
        bddm.true_bdd(pred_universe(1)).wmc(kept)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wmc_table_is_wmc_of_each_restriction(data):
    """The joint walk over variables as roots is the table of the counts of
    each restriction to them: keys in any order, some of them levels the
    diagram skips or does not mention; some other variables fixed; the
    rest weighted, some pairs summing to 0."""
    u, _, d, weights = weighted_diagram(data)
    keys = data.draw(st.lists(st.sampled_from(u.variables), unique=True))
    others = [v for v in u.variables if v not in keys]
    fixed = data.draw(st.dictionaries(st.sampled_from(others), st.booleans())) if others else {}
    rest = {v: w for v, w in weights.items() if v not in keys and v not in fixed}
    want = {}
    for bits in itertools.product((False, True), repeat=len(keys)):
        restricted = d
        for v, bit in [*zip(keys, bits), *fixed.items()]:
            restricted = restricted.restrict(v, bit)
        mass = restricted.wmc(rest)
        if mass:
            want[bits] = mass
    walk_weights = {**rest, **{v: (1, 1) for v in keys}}
    roots = [bddm.var_bdd(u, v) for v in keys]
    assert bddm.joint_wmc(d, roots, walk_weights, fixed) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_joint_wmc_is_wmc_of_each_combination(data):
    """Any diagrams as roots, repeats and constants among them: the mass of
    each combination of their values is the count of cond and that
    combination."""
    u, _, d, weights = weighted_diagram(data)
    roots = [build(u, data.draw(formulas(u, max_depth=3))) for _ in range(data.draw(st.integers(0, 3)))]
    weights.update((v, v.weights()) for r in roots for v in r.support() if v not in weights)
    want = {}
    for bits in itertools.product((False, True), repeat=len(roots)):
        cell = d
        for r, bit in zip(roots, bits):
            cell = cell & (r if bit else ~r)
        mass = cell.wmc(weights)
        if mass:
            want[bits] = mass
    assert bddm.joint_wmc(d, roots, weights, {}) == want


def test_wmc_table_examples():
    """``joint_wmc`` on small diagrams: variables and constants as roots,
    fixed variables, and a skipped level of weight sum 0."""
    u = pred_universe(4)
    a, b, c, e = u.variables
    va, vb, vc, ve = (bddm.var_bdd(u, v) for v in (a, b, c, e))
    f = (va & ~vc) | (~va & vb)
    # roots c then a, b weighted (1, 2), e unweighted and never met
    ones = {a: (1, 1), c: (1, 1)}
    assert bddm.joint_wmc(f, [vc, va], {**ones, b: (1, 2)}, {}) == {
        (False, False): 1, (True, False): 1, (False, True): 3,
    }
    # a weighted level that no edge of cond tests is counted per root value
    assert bddm.joint_wmc(va, [ve, va], {a: (1, 1), e: (1, 1)}, {}) == {
        (False, True): 1, (True, True): 1,
    }
    assert bddm.joint_wmc(bddm.true_bdd(u), [vb], {b: (1, 1)}, {}) == {(False,): 1, (True,): 1}
    assert bddm.joint_wmc(bddm.false_bdd(u), [vb], {b: (1, 1)}, {}) == {}
    assert bddm.joint_wmc(f, [], {b: (1, 2)}, {a: False, c: True}) == {(): 1}
    # a fixed level steers every root at once
    assert bddm.joint_wmc(f, [vb, ~vc], {b: (1, 2)}, {a: True, c: False}) == {
        (False, True): 2, (True, True): 1,
    }
    # a skipped level of weight sum 0 leaves no mass
    half = (Fraction(-1, 2), Fraction(1, 2))
    assert bddm.joint_wmc(va & vc, [va], {a: (1, 1), b: half, c: (1, 1)}, {}) == {}


def test_wmc_table_rejects_a_weighted_key_and_a_missing_weight():
    u = pred_universe(3)
    a, b, c = u.variables
    f = bddm.var_bdd(u, a) & bddm.var_bdd(u, c)
    with pytest.raises(UniverseError, match="fixed variable 'b0' has a weight entry"):
        bddm.joint_wmc(f, [], {a: (1, 1), c: (1, 1)}, {a: True})
    with pytest.raises(UniverseError, match="missing weight entry for 'b2'"):
        bddm.joint_wmc(f, [], {b: (1, 1)}, {a: True})
    with pytest.raises(UniverseError, match="missing weight entry for 'b0'"):
        bddm.joint_wmc(bddm.true_bdd(u), [f], {c: (1, 1)}, {})
    other = pred_universe(1)
    with pytest.raises(UniverseError, match="does not belong"):
        bddm.joint_wmc(f, [], {c: (1, 1)}, {other.variables[0]: True})
    with pytest.raises(UniverseError, match="different universes"):
        bddm.joint_wmc(f, [bddm.true_bdd(other)], {a: (1, 1), c: (1, 1)}, {})


def test_joint_wmc_at_the_engine_level_bound():
    """The walk recurses once per level: a chain over every level the
    engine allows counts without a RecursionError."""
    n = engine.MAX_LEVELS
    u = bddm.make_universe([(f"f{i}", Fraction(1, 2)) for i in range(n)])
    table = u.table
    chain = kernel.TRUE
    for level in range(n - 1, -1, -1):
        chain = table.mk(level, kernel.FALSE, chain)
    d = bddm.Bdd(u, chain)
    weights = {v: v.weights() for v in u.variables}
    assert bddm.joint_wmc(bddm.true_bdd(u), [d], weights, {}) == {
        (True,): Fraction(1, 2**n), (False,): 1 - Fraction(1, 2**n),
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cube_is_the_conjunction_of_its_literals(data):
    """Literals in any order, repeats and opposite pairs among them."""
    u = pred_universe(data.draw(st.integers(1, 6)))
    literals = data.draw(st.lists(st.tuples(st.sampled_from(u.variables), st.booleans()), max_size=10))
    expected = bddm.true_bdd(u)
    for var, bit in literals:
        v = bddm.var_bdd(u, var)
        expected = expected & (v if bit else ~v)
    assert bddm.cube(u, literals).equiv(expected)


def test_cube_rejects_a_variable_of_another_universe():
    u, other = pred_universe(2), pred_universe(3)
    a, b = u.variables
    with pytest.raises(UniverseError):
        bddm.cube(u, [(a, True), (other.variables[2], False)])
    with pytest.raises(UniverseError):  # also after two literals that clash
        bddm.cube(u, [(b, True), (b, False), (other.variables[2], True)])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_model_count_is_unweighted_wmc(data):
    u = pred_universe(4)
    f = data.draw(formulas(u))
    d = build(u, f)
    count = d.count_models(u.variables)
    assert type(count) is int
    assert count == sum(truth_table(f, u))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exists_is_disjunction_of_restrictions(data):
    u = pred_universe(4)
    f = data.draw(formulas(u))
    v = data.draw(st.sampled_from(u.variables))
    d = build(u, f)
    assert d.exists([v]).equiv(d.restrict(v, True) | d.restrict(v, False))
    assert v not in d.exists([v]).support()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_formula_to_expr_round_trips(data):
    u = pred_universe(4)
    f = data.draw(formulas(u))
    d = build(u, f)
    assert build(u, bld.formula_to_expr(d)).equiv(d)
