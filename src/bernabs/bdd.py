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
the norm for survival-mass queries).  Two counts read a whole family of
restrictions off one walk, each a visitor of the node table's ``fold``:
``marginals`` gives the mass of Δ & v for every variable v, and
``wmc_table`` the mass of every assignment to a set of key variables.
"""

from __future__ import annotations

import itertools
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
        w = _IntegerWeights(self.universe, weights)
        count, root = w.count_up(self.ref)[self.ref]
        return w.skip(0, root) * count, w.scale

    def marginals(self, weights, variables) -> dict:
        """``(self & v).wmc(weights)`` for each v in `variables`, all from one
        pass up the diagram and one pass down it.

        This is the differential approach to compiled inference (Darwiche,
        JACM 2003).  The pass up is ``wmc``'s count of each node; the pass
        down, over node ids in descending order (a parent's id exceeds its
        children's), gives each node the mass of the paths from the root to
        it.  A node at level l adds (its path mass) x (weight-true of l) x
        (its high child's count) to l's marginal.  An edge that skips
        levels adds its mass to each of them, scaled by that level's
        weight-true over its sum; a difference array over the levels does
        this for each edge in constant time.  Every v must be in `weights`.
        """
        universe = self.universe
        table = universe.table
        w = _IntegerWeights(universe, weights)
        counts = w.count_up(self.ref)
        pairs, sums, suffix, zero = w.pairs, w.sums, w.suffix, w.zero
        top = table.num_vars
        marginal = [0] * top  # per level: mass of the paths that take a hi edge there
        span = [0] * (top + 1)  # difference array of the edges over levels of nonzero sum
        lone = [0] * top  # per level of sum 0: mass of the edges whose only such level it is

        def across(first, end, mass):
            """Record `mass`, the product of what lies above and below an
            edge, for the levels first .. end-1 that the edge skips."""
            if first >= end or not mass:
                return
            z = zero[first]
            if z >= end:
                mass *= suffix[first] // suffix[end]
                span[first] += mass
                span[end] -= mass
            elif zero[z + 1] >= end:
                lone[z] += mass * (suffix[first] // suffix[end])

        count, root = counts[self.ref]
        across(0, root, count)
        path = {self.ref: w.skip(0, root)}  # node -> mass of the paths from the root to it
        for u in sorted(counts, reverse=True):
            if u <= kernel.TRUE:
                break
            mass = path.pop(u, 0)
            if not mass:
                continue
            level, lo, hi = table.node(u)
            wt, wf = pairs[level]
            first = level + 1
            for child, weight, taken in ((lo, wf, False), (hi, wt, True)):
                child_count, end = counts[child]
                edge = mass * weight
                across(first, end, edge * child_count)
                if zero[first] >= end:
                    edge *= suffix[first] // suffix[end]
                    if taken:
                        marginal[level] += edge * child_count
                    if child > kernel.TRUE:
                        path[child] = path.get(child, 0) + edge

        skipping = list(itertools.accumulate(span))  # per level: mass of the edges over it
        out = {}
        for v in variables:
            if v not in weights:
                raise UniverseError(f"missing weight entry for {v.label!r}")
            level = v.index
            wt, total = pairs[level][0], sums[level]
            mass = marginal[level] + (skipping[level] * wt // total if total else lone[level] * wt)
            out[v] = Fraction(mass, w.scale)
        return out

    def wmc_table(self, weights, variables) -> dict:
        """``wmc(weights)`` of the diagram restricted to `variables` = bits,
        for every assignment `bits` (a tuple in the order of `variables`)
        whose mass is not 0, all from one pass up the diagram.

        Like ``marginals``, this is a visitor of the node table's fold over
        ``wmc``'s integer weights.  Each node's result is a dict from the
        bits of the key variables at or below its level to its count.  An
        edge that skips a key level doubles the dict, one copy per value of
        that level; an edge that skips weighted levels multiplies the counts
        as in ``wmc``.  No key variable may have a weight entry.
        """
        keys = self._levels(variables)
        if len(set(keys)) != len(keys):
            raise UniverseError("a key variable is given twice")
        for v in variables:
            if v in weights:
                raise UniverseError(f"key variable {v.label!r} has a weight entry")
        universe = self.universe
        w = _IntegerWeights(universe, weights)
        pairs, skip = w.pairs, w.skip
        top = len(universe)
        bit = {level: 1 << i for i, level in enumerate(keys)}  # bit i: the i-th key
        below = [0] * (top + 1)  # per level x: the bits of the key levels >= x
        for level in range(top - 1, -1, -1):
            below[level] = below[level + 1] | bit.get(level, 0)

        def lift(child, first):
            """The child's dict seen from an edge into it that skips the
            levels first .. (the child's level) - 1."""
            counts, end = child
            factor = skip(first, end)
            if not factor or not counts:
                return {}
            if factor != 1:
                counts = {k: c * factor for k, c in counts.items()}
            skipped = below[first] ^ below[end]
            while skipped:
                b = skipped & -skipped
                counts = {**counts, **{k | b: c for k, c in counts.items()}}
                skipped ^= b
            return counts

        def visit(u, level, lo, hi):
            lo, hi = lift(lo, level + 1), lift(hi, level + 1)
            b = bit.get(level)
            if b is not None:
                out = dict(lo)
                out.update((k | b, c) for k, c in hi.items())
                return out, level
            pair = pairs[level]
            if pair is None:
                raise UniverseError(f"missing weight entry for {universe.variables[level].label!r}")
            wt, wf = pair
            out = {k: wf * c for k, c in lo.items()} if wf else {}
            if wt:
                for k, c in hi.items():
                    out[k] = out.get(k, 0) + wt * c
            return out, level

        table = universe.table
        memo = {kernel.FALSE: ({}, top), kernel.TRUE: ({0: 1}, top)}
        root = lift(table.fold(self.ref, visit, top, memo), 0)
        width = range(len(keys))
        return {
            tuple([k >> i & 1 == 1 for i in width]): Fraction(c, w.scale)
            for k, c in root.items()
            if c
        }

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


class _IntegerWeights:
    """A weight map over a universe as integers, and the count of each node.

    Each pair is scaled to integers over the lcm of its two denominators,
    and `scale` is the product of those lcms.  Per level: `pairs` holds the
    integer (weight-true, weight-false), or None for a level without an
    entry, and `sums` what a skipped level multiplies a count by, which is
    1 for a level without an entry.
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

    def skip(self, first, end):
        """What an edge that skips the levels first .. end-1 multiplies by."""
        return self.suffix[first] // self.suffix[end] if self.zero[first] >= end else 0

    def count_up(self, root):
        """The fold memo of `root`'s diagram: each node's (count, level),
        its count over the levels from its own down, so that a parent reads
        how many levels its edge to the node skips."""
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
        top = table.num_vars
        memo = {kernel.FALSE: (0, top), kernel.TRUE: (1, top)}
        table.fold(root, visit, top, memo)
        return memo


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
