"""Boolean variables and reduced ordered decision diagrams, plus weighted counting.

A :class:`Universe` is an ordered set of :class:`BoolVar` with one shared
node store; every decision diagram belongs to exactly one universe.  The
variable order is the declaration order, which callers arrange (the
engine's order is set out in ``engine``).

A :class:`Bdd` is the one form a Boolean formula over a universe takes
here: the predicate domain answers with Bdds, and the builder turns a Bdd
into BERN text only where it emits a program.  Semantic equality is node
identity: within one universe, two Bdds are equivalent iff they hold the
same node id.  Weighted model counting is the exact-rational inference
primitive; the summation domain is the weight map's key set, so callers
choose which variables an assignment ranges over (sub-universe counts are
the norm for survival-mass queries).  ``joint_wmc`` counts several
diagrams at once: one memoised walk over a tuple of roots gives the mass
of every combination of their values, with some variables held fixed
(the transition kernel's rows read the joint values of the predicates'
functions from one fixed start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from bernabs import kernel
from bernabs.errors import UniverseError

# --- variables and universes ----------------------------------------------


@dataclass(frozen=True)
class BoolVar:
    """A variable of a universe; a flip variable carries its parameter `theta`."""

    index: int
    label: str
    theta: Fraction | None = None

    def __post_init__(self):
        if self.theta is not None and not 0 <= self.theta <= 1:
            raise UniverseError(f"flip variable {self.label!r} needs theta in [0,1]")

    def weights(self):
        """(weight-if-true, weight-if-false); (1, 1) for non-flip variables."""
        if self.theta is None:
            return Fraction(1), Fraction(1)
        return self.theta, 1 - self.theta


class Universe:
    """A fixed, ordered variable universe with one shared node store.

    The store is a ``kernel.NodeTable`` with one level per variable, in
    the universe's order.  The order is immutable after construction; Bdds
    from different universes must never be combined (doing so raises
    ``UniverseError``).
    The store is single-threaded: confine each universe to one execution
    context at a time (read-only queries on a quiescent store are safe to
    share).
    """

    def __init__(self, variables):
        self.variables = tuple(variables)
        labels = set()
        for i, v in enumerate(self.variables):
            if v.index != i:
                raise UniverseError(f"variable {v.label!r} has index {v.index}, expected {i}")
            if v.label in labels:
                raise UniverseError(f"duplicate variable label {v.label!r}")
            labels.add(v.label)
        self._by_label = {v.label: v for v in self.variables}
        self.table = kernel.NodeTable(len(self.variables))

    def __len__(self):
        return len(self.variables)

    def __contains__(self, var):
        return 0 <= var.index < len(self.variables) and self.variables[var.index] is var

    def var(self, label) -> BoolVar:
        try:
            return self._by_label[label]
        except KeyError:
            raise UniverseError(f"no variable labelled {label!r}") from None


def make_universe(specs) -> Universe:
    """Build a universe from (label, theta) pairs in order; theta is None
    for every variable but a flip."""
    return Universe(BoolVar(i, label, theta) for i, (label, theta) in enumerate(specs))


# --- decision diagrams ----------------------------------------------------


@dataclass(frozen=True)
class Bdd:
    universe: Universe
    ref: int

    def _peer(self, other) -> "Bdd":
        if not isinstance(other, Bdd) or other.universe is not self.universe:
            raise UniverseError("cannot combine Bdds from different universes")
        return other

    # Boolean structure -------------------------------------------------

    def _apply(self, op, other) -> "Bdd":
        return Bdd(self.universe, self.universe.table.apply(op, self.ref, self._peer(other).ref))

    def __and__(self, other):
        return self._apply(kernel.OP_AND, other)

    def __or__(self, other):
        return self._apply(kernel.OP_OR, other)

    def __invert__(self):
        return Bdd(self.universe, self.universe.table.not_(self.ref))

    def implies(self, other):
        return self._apply(kernel.OP_IMP, other)

    def iff(self, other):
        return self._apply(kernel.OP_IFF, other)

    @property
    def is_true(self):
        return self.ref == kernel.TRUE

    @property
    def is_false(self):
        return self.ref == kernel.FALSE

    def equiv(self, other) -> bool:
        return self.ref == self._peer(other).ref

    def size(self) -> int:
        """Number of internal nodes reachable from the root."""
        table = self.universe.table
        reached = {kernel.FALSE: None, kernel.TRUE: None}
        table.fold(self.ref, lambda u, level, lo, hi: None, table.num_vars, reached)
        return len(reached) - 2

    # Queries ------------------------------------------------------------

    def support(self):
        return tuple(self.universe.variables[i] for i in self.universe.table.support(self.ref))

    def restrict(self, var: BoolVar, value: bool) -> "Bdd":
        _check_var(self.universe, var)
        return Bdd(self.universe, self.universe.table.restrict(self.ref, var.index, value))

    def _levels(self, variables):
        levels = []
        for v in variables:
            _check_var(self.universe, v)
            levels.append(v.index)
        return levels

    def exists(self, variables) -> "Bdd":
        return Bdd(self.universe, self.universe.table.exists(self.ref, self._levels(variables)))

    def and_exists(self, other, variables) -> "Bdd":
        """``(self & other).exists(variables)``, computed in one walk."""
        table = self.universe.table
        ref = table.and_exists(self.ref, self._peer(other).ref, self._levels(variables))
        return Bdd(self.universe, ref)

    def wmc(self, weights) -> Fraction:
        """Sum of per-variable weight products over satisfying assignments.

        Assignments range over exactly the variables in `weights`; every
        variable in the support must have an entry.  Variables skipped
        along an edge contribute (weight-true + weight-false), which is 1
        for flips and 2 for unweighted variables, so plain model counting
        is the all-(1,1) special case.

        The count is exact and runs in integers: each weight pair is scaled
        to integers over the lcm of its two denominators, the walk sums
        integer products, and one Fraction divides the total by the product
        of the scales.  `weights` is a map from variables to pairs, or a
        :class:`Weights` made from one, which keeps every node's count for
        the next count over the same map.
        """
        total, scale = self._scaled_count(weights)
        return Fraction(total, scale)

    def count_models(self, variables) -> int:
        """Number of assignments to `variables` that satisfy the diagram."""
        return self._scaled_count({v: (1, 1) for v in variables})[0]

    def _scaled_count(self, weights):
        """(integer count, scale) with wmc(weights) == count / scale."""
        w = _as_weights(self.universe, weights)
        count, root = w.count(self.ref)
        return w.skip(0, root) * count, w.scale

    def to_dot(self) -> str:
        """DOT dump: one line per node, low edges dashed, high edges solid."""
        table = self.universe.table
        lines = []

        def visit(u, level, lo, hi):
            label = self.universe.variables[level].label
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{u} [label="{label}"]')
            lines.append(f"  n{u} -> n{lo} [style=dashed]")
            lines.append(f"  n{u} -> n{hi} [style=solid]")
            return u

        reached = {}
        table.fold(self.ref, visit, table.num_vars, reached)
        leaves = [f'  n{u} [label="{u}", shape=box]' for u in (0, 1) if u in reached]
        return "\n".join(["digraph bdd {", *leaves, *lines, "}"])


def _rational(w):
    """`w` as an exact rational; ints and Fractions skip the constructor's cost."""
    return w if isinstance(w, (int, Fraction)) else Fraction(w)


class Weights:
    """A weight map over a universe as integers, and the count of each node.

    Each pair is scaled to integers over the lcm of its two denominators,
    and `scale` is the product of those lcms.  Per level: `pairs` holds the
    integer (weight-true, weight-false), or None for a level without an
    entry, and `sums` what a skipped level multiplies a count by, which is
    1 for a level without an entry.  A node's count depends on the node
    and the map alone, so the counts made for one root are kept for every
    later root that shares the node (the engine counts many functions of
    one universe with one map).
    """

    def __init__(self, universe, weights):
        top = len(universe)  # the terminals' level
        self.pairs = [None] * top
        self.sums = [1] * top
        self.scale = 1
        for v, (wt, wf) in weights.items():
            _check_var(universe, v)
            wt, wf = _rational(wt), _rational(wf)
            d = math.lcm(wt.denominator, wf.denominator)
            pair = (wt.numerator * (d // wt.denominator), wf.numerator * (d // wf.denominator))
            self.pairs[v.index] = pair
            self.sums[v.index] = pair[0] + pair[1]
            self.scale *= d
        # suffix[x] is the product of the nonzero sums of the levels >= x, and
        # zero[x] the first level >= x whose sum is 0, or top + 1 if none is.
        self.suffix = [1] * (top + 1)
        self.zero = [top + 1] * (top + 1)
        for level in range(top - 1, -1, -1):
            self.suffix[level] = self.suffix[level + 1] * (self.sums[level] or 1)
            self.zero[level] = self.zero[level + 1] if self.sums[level] else level
        self.universe = universe
        self._counts = {kernel.FALSE: (0, top), kernel.TRUE: (1, top)}

    def skip(self, first, end):
        """What an edge that skips the levels first .. end-1 multiplies by."""
        return self.suffix[first] // self.suffix[end] if self.zero[first] >= end else 0

    def count(self, root):
        """(count, level) of the node `root`: its count over the levels from
        its own down, so that a parent reads how many levels its edge to
        the node skips.  One fold, which visits only the nodes no earlier
        count has reached."""
        pairs, suffix, zero = self.pairs, self.suffix, self.zero
        variables = self.universe.variables

        def visit(u, level, lo, hi):
            pair = pairs[level]
            if pair is None:
                raise UniverseError(f"missing weight entry for {variables[level].label!r}")
            below, first_zero = suffix[level + 1], zero[level + 1]
            (lo_count, m), (hi_count, n) = lo, hi
            r = pair[1] * lo_count * (below // suffix[m] if first_zero >= m else 0)
            r += pair[0] * hi_count * (below // suffix[n] if first_zero >= n else 0)
            return r, level

        table = self.universe.table
        return table.fold(root, visit, table.num_vars, self._counts)


def _as_weights(universe, weights) -> Weights:
    """`weights`, a map from variables to pairs or a Weights, as a Weights."""
    if not isinstance(weights, Weights):
        return Weights(universe, weights)
    if weights.universe is not universe:
        raise UniverseError("cannot count with the weights of another universe")
    return weights


def _check_var(universe, var):
    if var not in universe:
        raise UniverseError(f"variable {var.label!r} does not belong to this universe")


def true_bdd(universe) -> Bdd:
    return Bdd(universe, kernel.TRUE)


def false_bdd(universe) -> Bdd:
    return Bdd(universe, kernel.FALSE)


def var_bdd(universe, var) -> Bdd:
    _check_var(universe, var)
    return Bdd(universe, universe.table.var(var.index))


def cube(universe, literals) -> Bdd:
    """The conjunction of `literals`, (variable, polarity) pairs, made as
    one chain of nodes from the deepest level up.  A repeated literal
    counts once, and two opposite ones make it False."""
    bits = {}
    clash = False
    for var, bit in literals:
        _check_var(universe, var)
        clash |= bits.setdefault(var.index, bit) != bit
    if clash:
        return false_bdd(universe)
    table = universe.table
    ref = kernel.TRUE
    for level in sorted(bits, reverse=True):
        ref = table.mk(level, kernel.FALSE, ref) if bits[level] else table.mk(level, ref, kernel.FALSE)
    return Bdd(universe, ref)


def joint_wmc(cond: Bdd, roots, weights, fixed) -> dict:
    """For each tuple of values the Bdds `roots` take where `cond` holds,
    the weighted count of the assignments that give it.

    Assignments range over the variables in `weights` (a map or a
    :class:`Weights`), counted as in ``Bdd.wmc``, with each variable of `fixed` (a map to a bool) held at
    its value; no fixed variable may have a weight entry, and every other
    variable a diagram tests needs one.  The result maps each tuple of
    values, bools in the order of `roots`, to its mass, leaving out the
    tuples of mass 0.  ``cond.wmc(weights)`` restricted to `fixed` is the
    sum of the masses.

    It is one walk over the tuple (cond, *roots), memoised per tuple of
    nodes: a step takes the topmost level of the tuple, follows the fixed
    branch or sums both weighted ones, and moves every node at that level
    to its child.  Each step's result is a dict from the roots' values, as
    bits, to an integer count over ``wmc``'s scaled weights, and a parent
    multiplies a child's counts by the levels its edge skips.  A tuple
    whose cond node is False counts nothing.  The walk recurses once per
    level, as ``apply`` does.
    """
    universe = cond.universe
    refs = (cond.ref, *(cond._peer(r).ref for r in roots))
    w = _as_weights(universe, weights)
    pairs, skip = w.pairs, w.skip
    held = {}
    for v, bit in fixed.items():
        _check_var(universe, v)
        if pairs[v.index] is not None:
            raise UniverseError(f"fixed variable {v.label!r} has a weight entry")
        held[v.index] = bool(bit)
    table = universe.table
    top = table.num_vars
    node = table.node
    memo = {}

    def lift(result, first):
        """A step's counts seen from an edge into it that skips the levels
        first .. (the step's level) - 1."""
        counts, end = result
        factor = skip(first, end)
        if not factor:
            return {}
        return counts if factor == 1 else {k: c * factor for k, c in counts.items()}

    def walk(nodes):
        if nodes[0] == kernel.FALSE:
            return {}, top
        r = memo.get(nodes)
        if r is not None:
            return r
        triples = [node(u) for u in nodes]
        level = min(t[0] for t in triples)
        if level == top:
            bits = 0
            for i, u in enumerate(nodes[1:]):
                if u == kernel.TRUE:
                    bits |= 1 << i
            r = {bits: 1}, top
        else:
            lo = tuple([t[1] if t[0] == level else u for u, t in zip(nodes, triples)])
            hi = tuple([t[2] if t[0] == level else u for u, t in zip(nodes, triples)])
            bit = held.get(level)
            if bit is not None:
                r = lift(walk(hi if bit else lo), level + 1), level
            else:
                pair = pairs[level]
                if pair is None:
                    raise UniverseError(f"missing weight entry for {universe.variables[level].label!r}")
                wt, wf = pair
                out = {k: wf * c for k, c in lift(walk(lo), level + 1).items()} if wf else {}
                if wt:
                    for k, c in lift(walk(hi), level + 1).items():
                        out[k] = out.get(k, 0) + wt * c
                r = out, level
        memo[nodes] = r
        return r

    counts = lift(walk(refs), 0)
    width = range(len(refs) - 1)
    return {
        tuple([k >> i & 1 == 1 for i in width]): Fraction(c, w.scale)
        for k, c in counts.items()
        if c
    }
