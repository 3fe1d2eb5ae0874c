"""Reduced ordered decision diagrams over a Universe, plus weighted counting.

Semantic equality is node identity: within one universe, two Bdds are
equivalent iff they hold the same node id.  Weighted model counting is the
exact-rational inference primitive; the summation domain is the weight
map's key set, so callers choose which variables an assignment ranges
over (sub-universe counts are the norm for survival-mass queries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from bernabs import formula as fm
from bernabs import kernel
from bernabs.errors import UniverseError

_OPS = {
    "and": kernel.OP_AND,
    "or": kernel.OP_OR,
    "xor": kernel.OP_XOR,
    "implies": kernel.OP_IMP,
    "iff": kernel.OP_IFF,
}


@dataclass(frozen=True)
class Bdd:
    universe: fm.Universe
    ref: int

    def _peer(self, other) -> "Bdd":
        if not isinstance(other, Bdd) or other.universe is not self.universe:
            raise UniverseError("cannot combine Bdds from different universes")
        return other

    # Boolean structure -------------------------------------------------

    def __and__(self, other):
        return apply("and", self, self._peer(other))

    def __or__(self, other):
        return apply("or", self, self._peer(other))

    def __xor__(self, other):
        return apply("xor", self, self._peer(other))

    def __invert__(self):
        return Bdd(self.universe, self.universe.table.not_(self.ref))

    def implies(self, other):
        return apply("implies", self, self._peer(other))

    def iff(self, other):
        return apply("iff", self, self._peer(other))

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
        seen = set()
        stack = [self.ref]
        while stack:
            u = stack.pop()
            if u < 2 or u in seen:
                continue
            seen.add(u)
            _, lo, hi = table.node(u)
            stack.append(lo)
            stack.append(hi)
        return len(seen)

    # Queries ------------------------------------------------------------

    def support(self):
        return tuple(self.universe.variables[i] for i in self.universe.table.support(self.ref))

    def restrict(self, var: fm.BoolVar, value: bool) -> "Bdd":
        _check_var(self.universe, var)
        return Bdd(self.universe, self.universe.table.restrict(self.ref, var.index, value))

    def exists(self, variables) -> "Bdd":
        levels = []
        for v in variables:
            _check_var(self.universe, v)
            levels.append(v.index)
        return Bdd(self.universe, self.universe.table.exists(self.ref, levels))

    def rename(self, mapping) -> "Bdd":
        perm = {}
        targets = set()
        for src, dst in mapping.items():
            _check_var(self.universe, src)
            _check_var(self.universe, dst)
            if dst.index in targets:
                raise UniverseError("rename mapping is not injective")
            targets.add(dst.index)
            perm[src.index] = dst.index
        return Bdd(self.universe, self.universe.table.rename(self.ref, perm))

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
        node = table.node
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
        memo = {kernel.FALSE: 0, kernel.TRUE: 1}

        def walk(u):
            r = memo.get(u)
            if r is not None:
                return r
            level, lo, hi = node(u)
            pair = pairs[level]
            if pair is None:
                raise UniverseError(
                    f"missing weight entry for {universe.variables[level].label!r}"
                )
            below, first_zero = suffix[level + 1], zero[level + 1]
            m = node(lo)[0]
            r = pair[1] * walk(lo) * (below // suffix[m] if first_zero >= m else 0)
            m = node(hi)[0]
            r += pair[0] * walk(hi) * (below // suffix[m] if first_zero >= m else 0)
            memo[u] = r
            return r

        count = walk(self.ref)
        root = node(self.ref)[0]
        return (suffix[0] // suffix[root] if zero[0] >= root else 0) * count, scale

    def models(self, variables):
        """All satisfying total assignments over `variables`, each exactly once.

        `variables` must cover the support.  Deterministic order: variable
        order with the True branch first.
        """
        table = self.universe.table
        for v in variables:
            _check_var(self.universe, v)
        order = sorted(variables, key=lambda v: v.index)
        for lvl in table.support(self.ref):
            if not any(v.index == lvl for v in order):
                raise UniverseError(
                    f"models() variables must cover support; missing "
                    f"{self.universe.variables[lvl].label!r}"
                )
        out = []

        def walk(u, i, partial):
            if u == kernel.FALSE:
                return
            if i == len(order):
                out.append(dict(partial))
                return
            v = order[i]
            level, lo, hi = table.node(u)
            for value, child in ((True, hi), (False, lo)):
                partial[v] = value
                if level == v.index:
                    walk(child, i + 1, partial)
                else:
                    # v absent from this path: both values allowed
                    walk(u, i + 1, partial)
                del partial[v]

        walk(self.ref, 0, {})
        return out

    # Reconstruction / debugging ------------------------------------------

    def to_formula(self) -> fm.BoolFormula:
        """Rebuild a compact formula by Shannon expansion of the diagram."""
        table = self.universe.table
        memo = {}

        def walk(u):
            if u == kernel.TRUE:
                return fm.TrueF()
            if u == kernel.FALSE:
                return fm.FalseF()
            r = memo.get(u)
            if r is not None:
                return r
            level, lo, hi = table.node(u)
            v = fm.Ref(self.universe.variables[level])
            if lo == kernel.FALSE and hi == kernel.TRUE:
                r = v
            elif lo == kernel.TRUE and hi == kernel.FALSE:
                r = fm.Not(v)
            elif lo == kernel.FALSE:
                r = fm.And(v, walk(hi))
            elif hi == kernel.FALSE:
                r = fm.And(fm.Not(v), walk(lo))
            elif lo == kernel.TRUE:
                r = fm.Or(fm.Not(v), walk(hi))
            elif hi == kernel.TRUE:
                r = fm.Or(v, walk(lo))
            else:
                r = fm.Or(fm.And(v, walk(hi)), fm.And(fm.Not(v), walk(lo)))
            memo[u] = r
            return r

        return walk(self.ref)

    def to_dot(self) -> str:
        """DOT dump: one line per node, low edges dashed, high edges solid."""
        table = self.universe.table
        lines = ["digraph bdd {"]
        seen = set()
        stack = [self.ref]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if u < 2:
                lines.append(f'  n{u} [label="{u}", shape=box]')
                continue
            level, lo, hi = table.node(u)
            label = self.universe.variables[level].label
            lines.append(f'  n{u} [label="{label}"]')
            lines.append(f"  n{u} -> n{lo} [style=dashed]")
            lines.append(f"  n{u} -> n{hi} [style=solid]")
            stack.extend((lo, hi))
        lines.append("}")
        return "\n".join(lines)


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


def build(universe, f: fm.BoolFormula) -> Bdd:
    """Canonical Bdd of a formula (all referenced vars must be in the universe)."""
    table = universe.table

    def walk(node):
        if isinstance(node, fm.TrueF):
            return kernel.TRUE
        if isinstance(node, fm.FalseF):
            return kernel.FALSE
        if isinstance(node, fm.Ref):
            _check_var(universe, node.var)
            return table.var(node.var.index)
        if isinstance(node, fm.Not):
            return table.not_(walk(node.operand))
        for klass, op in (
            (fm.And, kernel.OP_AND),
            (fm.Or, kernel.OP_OR),
            (fm.Implies, kernel.OP_IMP),
            (fm.Iff, kernel.OP_IFF),
        ):
            if isinstance(node, klass):
                return table.apply(op, walk(node.left), walk(node.right))
        raise TypeError(f"not a formula: {node!r}")

    return Bdd(universe, walk(f))


def apply(op: str, a: Bdd, b: Bdd) -> Bdd:
    if a.universe is not b.universe:
        raise UniverseError("cannot combine Bdds from different universes")
    try:
        code = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    return Bdd(a.universe, a.universe.table.apply(code, a.ref, b.ref))


def ite(c: Bdd, t: Bdd, e: Bdd) -> Bdd:
    if c.universe is not t.universe or c.universe is not e.universe:
        raise UniverseError("cannot combine Bdds from different universes")
    return Bdd(c.universe, c.universe.table.ite(c.ref, t.ref, e.ref))
