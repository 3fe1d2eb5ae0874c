"""Concrete language: loop-free imperative programs over bounded integers.

A concrete state is a tuple of values in declaration order
(`ConcreteProgram.var_names`), here and in every module that sweeps
states.  Semantics are exact.  Deterministic evaluation maps a state to a
state (or to ``BLOCKED`` when an observe fails); distribution evaluation
enumerates every draw outcome, as integer counts over one scale, and drops
observe-failing paths, recording the lost mass in the survival total.
Arithmetic escaping a variable's declared range is a hard error, never
wrapping or clamping.

Expression and condition trees are `bern.Node` trees: their classes join
BERN's child table, so `bern.fold` walks them with no depth limit, and
`bern` gives them their equality, hashing, `repr` and rebuild
(`bern.map_expr`).  `compile` is the language's one evaluator: it turns a
tree into a closure over states, once per tree, and the loops over states
call the closure.  A compiled closure still nests one call per level,
which the parser's nesting cap bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from bernabs import bern
from bernabs.errors import (
    ConditionOnImpossibleError,
    EnumerationCapError,
    RangeViolationError,
)

# The most states a joint concrete domain may hold: the theory's sweeps and
# the uniform joint distribution both enumerate it.
DEFAULT_STATE_CAP = 2**20


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int  # half-open: values lo .. hi-1

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"empty range for {self.name!r}: [{self.lo}, {self.hi})")

    @property
    def size(self):
        return self.hi - self.lo

    def contains(self, value):
        return self.lo <= value < self.hi


# --- integer expressions (linear) -----------------------------------------


class IntExpr(bern.Node):
    __slots__ = ()

    def __str__(self):
        return bern.fold(self, node_text)


@dataclass(frozen=True)
class IntConst(IntExpr):
    value: int


@dataclass(frozen=True)
class IntVar(IntExpr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Add(bern._Inner, IntExpr):
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True, eq=False, repr=False)
class Sub(bern._Inner, IntExpr):
    left: IntExpr
    right: IntExpr


@dataclass(frozen=True, eq=False, repr=False)
class Scale(bern._Inner, IntExpr):
    coeff: int
    operand: IntExpr


# --- conditions ------------------------------------------------------------

CMP_OPS = ("<", "<=", "==", "!=", ">", ">=")


class Cond(bern.Node):
    __slots__ = ()

    def __str__(self):
        return bern.fold(self, node_text)


@dataclass(frozen=True)
class CTrue(Cond):
    pass


@dataclass(frozen=True)
class CFalse(Cond):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Cmp(bern._Inner, Cond):
    op: str
    left: IntExpr
    right: IntExpr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True, eq=False, repr=False)
class CNot(bern._Inner, Cond):
    operand: Cond


@dataclass(frozen=True, eq=False, repr=False)
class CAnd(bern._Inner, Cond):
    left: Cond
    right: Cond


@dataclass(frozen=True, eq=False, repr=False)
class COr(bern._Inner, Cond):
    left: Cond
    right: Cond


bern.add_inner(Add, Sub, Scale, Cmp, CNot, CAnd, COr)


def cond_and_all(conds):
    out = CTrue()
    for i, c in enumerate(conds):
        out = c if i == 0 else CAnd(out, c)
    return out


# --- statements -------------------------------------------------------------


class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    expr: IntExpr
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Draw(Stmt):
    name: str
    lo: int
    hi: int
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Observe(Stmt):
    cond: Cond
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class If(Stmt):
    cond: Cond
    then: tuple
    els: tuple
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ConcreteProgram:
    decls: tuple
    body: tuple
    # the hash by value, made by the first `hash` of this program
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.decls, self.body)))
        return self._hash

    def __post_init__(self):
        names = [d.name for d in self.decls]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable declaration")

    def decl(self, name) -> VarDecl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)

    @property
    def var_names(self):
        return tuple(d.name for d in self.decls)

    @functools.cached_property
    def compiled(self):
        """The body with every tree compiled over value tuples in
        declaration order, once per program; see `_compile_block`."""
        return _compile_block(self.body, self.var_names)

    def is_deterministic(self):
        return not any(isinstance(s, Draw) for s in bern.walk_stmts(self.body))


def joint_size(decls) -> int:
    """How many states the declared ranges span together."""
    n = 1
    for d in decls:
        n *= d.size
    return n


def tree_vars(tree) -> set:
    """The names of the variables an expression or a condition reads."""
    nodes = []
    bern.fold(tree, lambda node, _: nodes.append(node))
    return {node.name for node in nodes if type(node) is IntVar}


def _grouped(child, text):
    return f"({text})" if type(child) in (Add, Sub) else text


# the text of each node, given its children's texts: what `str()` prints
_TEXT = {
    IntConst: lambda node: str(node.value),
    IntVar: lambda node: node.name,
    CTrue: lambda node: "T",
    CFalse: lambda node: "F",
    Add: lambda node, a, b: f"{a} + {b}",
    Sub: lambda node, a, b: f"{a} - {_grouped(node.right, b)}",
    Scale: lambda node, a: f"{node.coeff}*{_grouped(node.operand, a)}",
    Cmp: lambda node, a, b: f"{a} {node.op} {b}",
    CNot: lambda node, a: f"!({a})",
    CAnd: lambda node, a, b: f"({a}) && ({b})",
    COr: lambda node, a, b: f"({a}) || ({b})",
}


def node_text(node, values):
    """The text of `node`, given its children's texts."""
    return _TEXT[type(node)](node, *values)


# --- the evaluator ----------------------------------------------------------------


def _constant(value):
    return lambda s: value


def _scaled(coeff, f):
    return lambda s: coeff * f(s)


_COMPARE = {
    "<": lambda f, g: lambda s: f(s) < g(s),
    "<=": lambda f, g: lambda s: f(s) <= g(s),
    "==": lambda f, g: lambda s: f(s) == g(s),
    "!=": lambda f, g: lambda s: f(s) != g(s),
    ">": lambda f, g: lambda s: f(s) > g(s),
    ">=": lambda f, g: lambda s: f(s) >= g(s),
}

# the closure of each node but a variable, given its children's closures
_CLOSURE = {
    IntConst: lambda node: _constant(node.value),
    CTrue: lambda node: _constant(True),
    CFalse: lambda node: _constant(False),
    Add: lambda node, f, g: lambda s: f(s) + g(s),
    Sub: lambda node, f, g: lambda s: f(s) - g(s),
    Scale: lambda node, f: _scaled(node.coeff, f),
    Cmp: lambda node, f, g: _COMPARE[node.op](f, g),
    CNot: lambda node, f: lambda s: not f(s),
    CAnd: lambda node, f, g: lambda s: f(s) and g(s),
    COr: lambda node, f, g: lambda s: f(s) or g(s),
}


def compile(tree, names):
    """The closure that evaluates an integer expression or a condition at a
    state: a tuple of values in the order of `names`."""
    slot = {n: i for i, n in enumerate(names)}

    def visit(node, fns):
        if type(node) is IntVar:
            return operator.itemgetter(slot[node.name])
        return _CLOSURE[type(node)](node, *fns)

    return bern.fold(tree, visit)


# --- deterministic semantics ------------------------------------------------


class _Blocked:
    def __repr__(self):
        return "BLOCKED"


BLOCKED = _Blocked()


def _compile_block(body, names):
    """`body` ready to run on value tuples in the order of `names`: each
    statement as ``(stmt, fn, slot, blocks)``, where `fn` is its tree
    compiled (None for a draw), `slot` the position of the variable it
    writes (None when it writes none) and `blocks` the compiled ``then``
    and ``else`` blocks of an `if` (None otherwise)."""
    out = []
    for stmt in body:
        if isinstance(stmt, Assign):
            out.append((stmt, compile(stmt.expr, names), names.index(stmt.name), None))
        elif isinstance(stmt, Draw):
            out.append((stmt, None, names.index(stmt.name), None))
        elif isinstance(stmt, Observe):
            out.append((stmt, compile(stmt.cond, names), None, None))
        elif isinstance(stmt, If):
            blocks = (_compile_block(stmt.then, names), _compile_block(stmt.els, names))
            out.append((stmt, compile(stmt.cond, names), None, blocks))
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return tuple(out)


def _checked(decl, value):
    """`value`, which a state gives `decl`'s variable, if in range."""
    if not decl.contains(value):
        raise RangeViolationError(f"{decl.name} = {value} escapes [{decl.lo}, {decl.hi})")
    return value


def eval_det(program: ConcreteProgram, key: tuple):
    """Run a draw-free program from the state `key`; returns the output
    state or BLOCKED."""

    def run(block, key):
        for stmt, fn, slot, blocks in block:
            kind = type(stmt)
            if kind is Assign:
                value = _checked(program.decls[slot], fn(key))
                key = key[:slot] + (value,) + key[slot + 1 :]
            elif kind is Observe:
                if not fn(key):
                    return BLOCKED
            elif kind is If:
                key = run(blocks[0] if fn(key) else blocks[1], key)
                if key is BLOCKED:
                    return BLOCKED
            else:
                raise ValueError("eval_det requires a draw-free program")
        return key

    return run(program.compiled, key)


# --- distribution semantics ---------------------------------------------------


class ConcreteDistribution:
    """Exact finite map from states (value tuples in the order of
    `var_names`) to positive rational mass, held as integer counts over one
    scale: the mass of state k is ``counts[k] / scale``.  The survival mass
    is the total mass (inputs are often 1; after observe statements it may
    be smaller).  Readers get each mass as a Fraction, made when read.
    """

    def __init__(self, var_names, counts, scale):
        self.var_names = tuple(var_names)
        self.counts = {k: c for k, c in counts.items() if c > 0}
        self.scale = scale

    @classmethod
    def point(cls, program: ConcreteProgram, key: tuple):
        if len(key) != len(program.decls):
            raise ValueError(f"{key!r} is not a state of {program.var_names!r}")
        for d, v in zip(program.decls, key):
            _checked(d, v)
        return cls(program.var_names, {key: 1}, 1)

    @classmethod
    def uniform_joint(cls, program: ConcreteProgram):
        n = joint_size(program.decls)
        if n > DEFAULT_STATE_CAP:
            raise EnumerationCapError(f"joint domain has {n} states (cap {DEFAULT_STATE_CAP})")
        counts = dict.fromkeys(itertools.product(*(range(d.lo, d.hi) for d in program.decls)), 1)
        return cls(program.var_names, counts, n)

    @property
    def survival(self) -> Fraction:
        return Fraction(sum(self.counts.values()), self.scale)

    def __len__(self):
        return len(self.counts)

    def items(self):
        """(state, mass) pairs in state order."""
        return [(k, Fraction(c, self.scale)) for k, c in sorted(self.counts.items())]

    def mass_of(self, key: tuple) -> Fraction:
        return Fraction(self.counts.get(key, 0), self.scale)

    def filtered(self, cond) -> "ConcreteDistribution":
        fn = compile(cond, self.var_names)
        return ConcreteDistribution(
            self.var_names, {k: c for k, c in self.counts.items() if fn(k)}, self.scale
        )


def eval_dist(
    program: ConcreteProgram,
    dist: ConcreteDistribution | None = None,
) -> ConcreteDistribution:
    """Exact output distribution by exhaustive enumeration of draw outcomes.

    The counts stay integers.  D (`widths`), the product of the widths of
    every draw in the program, is fixed before the run, and the input
    counts are multiplied by it; a draw of width k then divides each
    state's count by k.  The division is exact: a path crosses each draw
    at most once, so a path's share of a count still holds, as a factor of
    D, the width of every draw it has not crossed, this one included, and
    a sum of such shares is divisible too.  Branches merge by integer
    addition, and the output's scale is the input's times D.  A draw that
    leaves more than `DEFAULT_STATE_CAP` states raises
    ``EnumerationCapError``.
    """
    if dist is None:
        dist = ConcreteDistribution.point(program, tuple(d.lo for d in program.decls))
    if dist.var_names != program.var_names:
        raise ValueError("input distribution does not match the program's variables")
    # a bad width counts 1 here; its draw raises when the run reaches it
    widths = math.prod(
        max(s.hi - s.lo, 1) for s in bern.walk_stmts(program.body) if type(s) is Draw
    )

    def step(block, mass):
        for stmt, fn, i, blocks in block:
            kind = type(stmt)
            if kind is Assign:
                decl = program.decls[i]
                out = {}
                for key, c in mass.items():
                    value = _checked(decl, fn(key))
                    nk = key[:i] + (value,) + key[i + 1 :]
                    out[nk] = out.get(nk, 0) + c
                mass = out
            elif kind is Draw:
                decl = program.decls[i]
                if not (decl.lo <= stmt.lo < stmt.hi <= decl.hi):
                    raise RangeViolationError(
                        f"draw [{stmt.lo}, {stmt.hi}) escapes {stmt.name}'s range"
                    )
                width = stmt.hi - stmt.lo
                out = {}
                for key, c in mass.items():
                    share = c // width
                    for value in range(stmt.lo, stmt.hi):
                        nk = key[:i] + (value,) + key[i + 1 :]
                        out[nk] = out.get(nk, 0) + share
                    if len(out) > DEFAULT_STATE_CAP:
                        raise EnumerationCapError(f"more than {DEFAULT_STATE_CAP} states in flight")
                mass = out
            elif kind is Observe:
                mass = {k: c for k, c in mass.items() if fn(k)}
            else:
                then_in, else_in = {}, {}
                for key, c in mass.items():
                    (then_in if fn(key) else else_in)[key] = c
                mass = step(blocks[0], then_in)
                for key, c in step(blocks[1], else_in).items():
                    mass[key] = mass.get(key, 0) + c
        return mass

    counts = {k: c * widths for k, c in dist.counts.items()}
    return ConcreteDistribution(
        program.var_names, step(program.compiled, counts), dist.scale * widths
    )


def query_prob(dist: ConcreteDistribution, cond) -> Fraction:
    """Normalized probability of `cond` under the surviving mass."""
    total = sum(dist.counts.values())
    if total == 0:
        raise ConditionOnImpossibleError("no surviving executions to condition on")
    return Fraction(sum(dist.filtered(cond).counts.values()), total)
