"""Boolean variables and reduced ordered decision diagrams, plus weighted counting.

A :class:`Universe` is an ordered set of :class:`BoolVar` with one shared
node store; every decision diagram belongs to exactly one universe.  The
variable order is the declaration order, which callers arrange as:
predicate variables (with primed partners adjacent, when present), then
flip variables in program order.

A :class:`Bdd` is the one form a Boolean formula over a universe takes
here: the predicate domain answers with Bdds, and the builder turns a Bdd
into BERN text only where it emits a program.  Semantic equality is node
identity: within one universe, two Bdds are equivalent iff they hold the
same node id.  Weighted model counting is the exact-rational inference
primitive; the summation domain is the weight map's key set, so callers
choose which variables an assignment ranges over (sub-universe counts are
the norm for survival-mass queries).
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

    def exists(self, variables) -> "Bdd":
        levels = []
        for v in variables:
            _check_var(self.universe, v)
            levels.append(v.index)
        return Bdd(self.universe, self.universe.table.exists(self.ref, levels))

    def rename(self, mapping) -> "Bdd":
        """Substitute ``mapping[v]`` for each variable v, by relabelling nodes.

        The mapping must be injective and keep the order of the variables
        on every path of the diagram, as mapping v to a variable right
        after it that the diagram does not mention does; a mapping that
        would reorder them raises ``UniverseError``.
        """
        perm = {}
        targets = set()
        for src, dst in mapping.items():
            _check_var(self.universe, src)
            _check_var(self.universe, dst)
            if dst.index in targets:
                raise UniverseError("rename mapping is not injective")
            targets.add(dst.index)
            perm[src.index] = dst.index
        try:
            return Bdd(self.universe, self.universe.table.rename(self.ref, perm))
        except ValueError as exc:
            raise UniverseError(str(exc)) from None

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
        of the scales.
        """
        total, scale = self._scaled_count(weights)
        return Fraction(total, scale)

    def count_models(self, variables) -> int:
        """Number of assignments to `variables` that satisfy the diagram."""
        return self._scaled_count({v: (1, 1) for v in variables})[0]

    def _scaled_count(self, weights):
        """(integer count, scale) with wmc(weights) == count / scale."""
        universe = self.universe
        table = universe.table
        top = table.num_vars  # the terminals' level
        pairs = [None] * top  # per level: integer (weight-true, weight-false)
        sums = [1] * top  # per level: what a skipped level multiplies by
        scale = 1
        for v, (wt, wf) in weights.items():
            _check_var(universe, v)
            wt, wf = _rational(wt), _rational(wf)
            d = math.lcm(wt.denominator, wf.denominator)
            pair = (wt.numerator * (d // wt.denominator), wf.numerator * (d // wf.denominator))
            pairs[v.index] = pair
            sums[v.index] = pair[0] + pair[1]
            scale *= d
        # An edge from level l to a node at level m skips the levels l+1 .. m-1,
        # which multiply the count by the product of their sums: that is
        # suffix[l+1] // suffix[m] when none of those sums is 0, and 0 when
        # one is (zero[x] is the first level >= x whose sum is 0, or top + 1).
        suffix = [1] * (top + 1)
        zero = [top + 1] * (top + 1)
        for level in range(top - 1, -1, -1):
            suffix[level] = suffix[level + 1] * (sums[level] or 1)
            zero[level] = zero[level + 1] if sums[level] else level

        # A node's result is (its count, its level), so that its parents see
        # how many levels their edge to it skips.
        def visit(u, level, lo, hi):
            pair = pairs[level]
            if pair is None:
                raise UniverseError(
                    f"missing weight entry for {universe.variables[level].label!r}"
                )
            below, first_zero = suffix[level + 1], zero[level + 1]
            (lo_count, m), (hi_count, n) = lo, hi
            r = pair[1] * lo_count * (below // suffix[m] if first_zero >= m else 0)
            r += pair[0] * hi_count * (below // suffix[n] if first_zero >= n else 0)
            return r, level

        terminals = {kernel.FALSE: (0, top), kernel.TRUE: (1, top)}
        count, root = table.fold(self.ref, visit, top, terminals)
        return (suffix[0] // suffix[root] if zero[0] >= root else 0) * count, scale

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
    """The conjunction of `literals`, (variable, polarity) pairs."""
    acc = true_bdd(universe)
    for var, bit in literals:
        v = var_bdd(universe, var)
        acc = acc & (v if bit else ~v)
    return acc
