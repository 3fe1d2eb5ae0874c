"""Boolean variables and propositional formulas.

A :class:`Universe` is an ordered set of :class:`BoolVar` with one shared
node store; every formula and every decision diagram belongs to exactly one
universe.  The variable order is the declaration order, which callers
arrange as: predicate variables (with primed partners adjacent, when
present), then flip variables in program order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from bernabs import kernel
from bernabs.errors import UniverseError


class VarKind(enum.Enum):
    PREDICATE = "predicate"
    FLIP = "flip"
    AUX = "aux"


@dataclass(frozen=True)
class BoolVar:
    index: int
    label: str
    kind: VarKind
    theta: Fraction | None = None

    def __post_init__(self):
        if self.kind is VarKind.FLIP:
            if self.theta is None or not 0 <= self.theta <= 1:
                raise UniverseError(f"flip variable {self.label!r} needs theta in [0,1]")
        elif self.theta is not None:
            raise UniverseError(f"non-flip variable {self.label!r} cannot carry a weight")

    def weights(self):
        """(weight-if-true, weight-if-false); (1, 1) for non-flip variables."""
        if self.kind is VarKind.FLIP:
            return self.theta, 1 - self.theta
        return Fraction(1), Fraction(1)


# --- formula AST ---------------------------------------------------------


class BoolFormula:
    __slots__ = ()

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)

    def __rshift__(self, other):
        return Implies(self, other)

    def iff(self, other):
        return Iff(self, other)


@dataclass(frozen=True)
class TrueF(BoolFormula):

    def __str__(self):
        return "T"


@dataclass(frozen=True)
class FalseF(BoolFormula):

    def __str__(self):
        return "F"


@dataclass(frozen=True)
class Ref(BoolFormula):
    var: BoolVar

    def __str__(self):
        return self.var.label


@dataclass(frozen=True)
class Not(BoolFormula):
    operand: BoolFormula

    def __str__(self):
        return f"!{_paren(self.operand)}"


@dataclass(frozen=True)
class And(BoolFormula):
    left: BoolFormula
    right: BoolFormula

    def __str__(self):
        return f"{_paren(self.left)} && {_paren(self.right)}"


@dataclass(frozen=True)
class Or(BoolFormula):
    left: BoolFormula
    right: BoolFormula

    def __str__(self):
        return f"{_paren(self.left)} || {_paren(self.right)}"


@dataclass(frozen=True)
class Implies(BoolFormula):
    left: BoolFormula
    right: BoolFormula

    def __str__(self):
        return f"{_paren(self.left)} => {_paren(self.right)}"


@dataclass(frozen=True)
class Iff(BoolFormula):
    left: BoolFormula
    right: BoolFormula

    def __str__(self):
        return f"{_paren(self.left)} <=> {_paren(self.right)}"


def _paren(f):
    if isinstance(f, (TrueF, FalseF, Ref)):
        return str(f)
    return f"({f})"


def and_all(formulas):
    out = TrueF()
    for i, f in enumerate(formulas):
        out = f if i == 0 else And(out, f)
    return out


def or_all(formulas):
    out = FalseF()
    for i, f in enumerate(formulas):
        out = f if i == 0 else Or(out, f)
    return out


def formula_vars(f: BoolFormula):
    """All variables referenced by f, in first-occurrence order."""
    seen = {}
    stack = [f]
    order = []
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            if node.var.index not in seen:
                seen[node.var.index] = True
                order.append(node.var)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.append(node.right)
            stack.append(node.left)
    return order


def eval_formula(f: BoolFormula, assignment) -> bool:
    """Evaluate under a {BoolVar: bool} assignment (used as a test oracle)."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Ref):
        return assignment[f.var]
    if isinstance(f, Not):
        return not eval_formula(f.operand, assignment)
    if isinstance(f, And):
        return eval_formula(f.left, assignment) and eval_formula(f.right, assignment)
    if isinstance(f, Or):
        return eval_formula(f.left, assignment) or eval_formula(f.right, assignment)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, assignment)) or eval_formula(f.right, assignment)
    if isinstance(f, Iff):
        return eval_formula(f.left, assignment) == eval_formula(f.right, assignment)
    raise TypeError(f"not a formula: {f!r}")


# --- universe ------------------------------------------------------------


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

    def default_weights(self):
        """WeightMap over the whole universe, induced by flip parameters."""
        return {v: v.weights() for v in self.variables}


def make_universe(specs) -> Universe:
    """Build a universe from (label, kind[, theta]) tuples in order."""
    out = []
    for i, spec in enumerate(specs):
        label, vkind = spec[0], spec[1]
        theta = spec[2] if len(spec) > 2 else None
        out.append(BoolVar(i, label, vkind, theta))
    return Universe(out)
