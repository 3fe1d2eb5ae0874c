"""BERN: the Boolean target language with Bernoulli flips.

One language serves two modes.  Probabilistic programs use ``flip(theta)``
and ``observe``; the non-deterministic Boolean-program mode replaces flips
by the unconstrained choice ``*`` and filters with ``assume``.  A program
never mixes ``flip`` and ``*``.  ``observe`` and ``assume`` filter
executions identically; they stay distinct node kinds because abstraction
reporting distinguishes branch information from invariant conditioning.

The exact interpreter here is the reference oracle: it enumerates total
assignments to the flip sites and runs the program deterministically for
each, so smarter engines can be checked against it.

The trees of both languages, BERN expressions and the concrete language's
integer expressions and conditions, share one node base, `Node`, and one
child table, which each language enters its inner node classes in.  They
are walked only through `fold`, a post-order fold with an explicit stack,
and rewritten only through `map_expr` and `map_program` on top of it;
callers supply what a node means.  Equality, hashing and `repr` of an
inner node are visitors of the same fold.  No expression walk has a depth
limit, so a flat chain of thousands of operands (a tree that deep) is as
safe as one leaf.  `walk_stmts` walks statement blocks with an explicit
stack, but `map_program`, the interpreters and the engine recurse into
them, so a program may nest ``if`` blocks at most `MAX_NESTING` deep;
`BernProgram` measures that depth without recursion before any of them
runs.  That validating walk, the one fold of each expression of a built
program, also keeps a record for the program's lifetime: its flips left
to right with the variable each is assigned to, its largest flip or star
id, and whether it holds a choose or a ``*``.  `flip_owners`,
`desugar_program` and `exact_inference_input` read the record and make
no walk of their own; every program built, by `map_program` or
`dataclasses.replace` too, makes its own.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import re
import typing
from dataclasses import dataclass, field
from fractions import Fraction

from bernabs.errors import EnumerationCapError, ModeError, NestingError

DEFAULT_FLIP_CAP = 24

# How deeply parsed text may nest (the parser's limit) and how deeply `if`
# blocks may nest in a program however it was built; deeper input is rejected
# before a recursive parser or walker could exhaust the interpreter stack.
MAX_NESTING = 100


# --- expressions -----------------------------------------------------------


class Node:
    """A node of a tree of either language: a BERN expression, or a concrete
    integer expression or condition."""

    __slots__ = ()


class _Inner(Node):
    """A node with children, which are the fields that hold a `Node`; its
    other fields are labels, such as a comparison's operator.  Equality,
    hashing and `repr` go through `fold`."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):  # what the dataclass test does, in O(1)
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __hash__(self):
        return hash(tuple(_shape(self)))

    def __repr__(self):
        return fold(self, _repr)


class BernExpr(Node):
    __slots__ = ()


@dataclass(frozen=True)
class BTrue(BernExpr):
    pass


@dataclass(frozen=True)
class BFalse(BernExpr):
    pass


@dataclass(frozen=True)
class BVar(BernExpr):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class BNot(_Inner, BernExpr):
    operand: BernExpr


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(_Inner, BernExpr):
    left: BernExpr
    right: BernExpr


class BAnd(_Binary):
    pass


class BOr(_Binary):
    pass


class BImp(_Binary):
    pass


class BIff(_Binary):
    pass


@dataclass(frozen=True)
class Flip(BernExpr):
    site: int
    theta: object  # Fraction, or str for a symbolic parameter

    def __post_init__(self):
        if isinstance(self.theta, Fraction) and not 0 <= self.theta <= 1:
            raise ModeError(f"flip parameter {self.theta} outside [0, 1]")


@dataclass(frozen=True)
class Star(BernExpr):
    occurrence: int


@dataclass(frozen=True, eq=False, repr=False)
class Choose(_Inner, BernExpr):
    when_true: BernExpr
    when_false: BernExpr


# --- statements --------------------------------------------------------------


class BernStmt:
    __slots__ = ()


@dataclass(frozen=True)
class PAssign(BernStmt):
    targets: tuple
    exprs: tuple
    loc: int = field(default=0, compare=False)

    def __post_init__(self):
        if len(self.targets) != len(self.exprs):
            raise ValueError("parallel assignment arity mismatch")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("parallel assignment targets must be distinct")


@dataclass(frozen=True)
class BIf(BernStmt):
    cond: BernExpr
    then: tuple
    els: tuple
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BObserve(BernStmt):
    cond: BernExpr
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BAssume(BernStmt):
    cond: BernExpr
    loc: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BernProgram:
    decls: tuple  # variable names, in declaration order
    body: tuple
    mode: str | None = None  # 'prob' | 'nondet' | None (no flips and no stars)
    # the validating walk's record (see the module docstring); a top id of -1 means none
    _flips: tuple = field(init=False, repr=False, compare=False)
    _owners: tuple = field(init=False, repr=False, compare=False)
    _top_id: int = field(init=False, repr=False, compare=False)
    _has_choose: bool = field(init=False, repr=False, compare=False)
    _has_star: bool = field(init=False, repr=False, compare=False)
    # the hash by value, made by the first `hash` of this program
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.decls, self.body, self.mode)))
        return self._hash

    def __post_init__(self):
        """Check the program in one walk over its statements, which folds
        each expression once and notes the deepest nesting, the faults in
        the expressions and the first undeclared target.  One error is
        raised after the walk, the first of: nesting too deep, a variable
        declared twice, the first fault in the expressions (an undeclared
        read, or a flip or star id used twice), an undeclared target, and
        a mix of modes.  The same walk makes the program's record."""
        declared = set(self.decls)
        flips, stars = set(), set()
        sites, owners = [], []
        owner, chooses = None, False
        faults = []  # the faults in the expressions, in walk order

        def visit(node, _):
            nonlocal chooses
            kind = type(node)
            if kind is BVar:
                if node.name not in declared:
                    faults.append(f"undeclared variable {node.name!r}")
            elif kind is Flip:
                if node.site in flips:
                    faults.append(f"duplicate flip site id {node.site}")
                flips.add(node.site)
                sites.append(node)
                owners.append(owner)
            elif kind is Star:
                if node.occurrence in stars:
                    faults.append(f"duplicate star occurrence id {node.occurrence}")
                stars.add(node.occurrence)
            elif kind is Choose:
                chooses = True

        undeclared_target = None
        deepest, todo = 0, [(iter(self.body), 0)]
        while todo:
            block, depth = todo[-1]
            for stmt in block:
                if isinstance(stmt, PAssign):
                    for t, e in zip(stmt.targets, stmt.exprs):
                        if undeclared_target is None and t not in declared:
                            undeclared_target = t
                        owner = t
                        fold(e, visit)
                else:
                    owner = None
                    fold(stmt.cond, visit)
                if isinstance(stmt, BIf):
                    todo += ((iter(stmt.els), depth + 1), (iter(stmt.then), depth + 1))
                    deepest = max(deepest, depth + 1)
                    break
            else:
                todo.pop()
        if deepest > MAX_NESTING:
            raise NestingError(f"if blocks nested more than {MAX_NESTING} levels deep")
        if len(declared) != len(self.decls):
            raise ValueError("duplicate Boolean variable declaration")
        if faults:
            raise ValueError(faults[0])
        if undeclared_target is not None:
            raise ValueError(f"undeclared variable {undeclared_target!r}")
        if flips and stars:
            raise ModeError("flip and * cannot appear in one program")
        if self.mode == "prob" and stars:
            raise ModeError("* is not allowed in probabilistic mode")
        if self.mode == "nondet" and flips:
            raise ModeError("flip is not allowed in non-deterministic mode")
        object.__setattr__(self, "_flips", tuple(sites))
        object.__setattr__(self, "_owners", tuple(owners))
        object.__setattr__(self, "_top_id", max(flips or stars, default=-1))
        object.__setattr__(self, "_has_choose", chooses)
        object.__setattr__(self, "_has_star", bool(stars))

    def flip_sites(self):
        """(site id, theta) pairs, left to right through the program."""
        return [(e.site, e.theta) for e in self._flips]

    def flip_owners(self):
        """(site id, theta, owner) triples, left to right through the
        program, statement by statement as `walk_stmts` visits them.  The
        owner is the variable whose assignment reads the flip, or None for
        a flip read in an `if` guard, an observe or an assume.  They come
        from the program's own validating walk."""
        return [(e.site, e.theta, owner) for e, owner in zip(self._flips, self._owners)]


# --- the traversal ---------------------------------------------------------------

# The child table: each inner node class, and the getter of its children
# (in field order), the names of its child fields and those of its labels.
_CHILDREN = {}


def add_inner(*classes):
    """Enter inner node classes in the child table.  A field whose type is
    a `Node` class holds a child; any other field holds a label."""
    for cls in classes:
        hints = typing.get_type_hints(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        kids = tuple(n for n in names if isinstance(hints[n], type) and issubclass(hints[n], Node))
        labels = tuple(n for n in names if n not in kids)
        if len(kids) == 1:
            getter = lambda node, name=kids[0]: (getattr(node, name),)
        else:
            getter = operator.attrgetter(*kids)
        _CHILDREN[cls] = (getter, kids, labels)


add_inner(BNot, BAnd, BOr, BImp, BIff, Choose)


def fold(expr, visit):
    """Post-order fold of one tree of either language, with an explicit stack.

    ``visit(node, values)`` is called once per node, children before their
    parent and siblings left to right; `values` holds the results for the
    node's children (empty for a leaf).  Returns the result for `expr`.
    A node whose class is not in the child table is a leaf.
    """
    values, todo = [], [expr]
    while todo:
        node = todo.pop()
        if type(node) is int:  # that many children are done; their parent is next
            cut = len(values) - node
            values[cut:] = [visit(todo.pop(), values[cut:])]
        elif type(node) in _CHILDREN:
            kids = _CHILDREN[type(node)][0](node)
            todo += (node, len(kids))
            todo += reversed(kids)
        else:
            values.append(visit(node, ()))
    return values[0]


def _shape(expr):
    """Post-order list of the leaves themselves and of each inner node's
    type followed by its labels; two trees are equal exactly when their
    lists are."""
    out = []

    def visit(node, values):
        if values:
            out.append(type(node))
            for name in _CHILDREN[type(node)][2]:
                out.append(getattr(node, name))
        else:
            out.append(node)

    fold(expr, visit)
    return out


def _repr(node, values):
    """The dataclass `repr` of a node, given its children's."""
    if not values:
        return repr(node)
    kids = dict(zip(_CHILDREN[type(node)][1], values))
    fields = ", ".join(
        f"{f.name}={kids[f.name] if f.name in kids else repr(getattr(node, f.name))}"
        for f in dataclasses.fields(node)
    )
    return f"{type(node).__name__}({fields})"


def map_expr(expr, on_node):
    """Bottom-up rewrite of a tree of either language: ``on_node`` gets each
    node over its rewritten children, with its own labels, and returns the
    node that replaces it.  A node whose children all come back unchanged
    is passed on as it is."""

    def visit(node, values):
        if values:
            getter, kids, _ = _CHILDREN[type(node)]
            if any(map(operator.is_not, values, getter(node))):
                node = dataclasses.replace(node, **dict(zip(kids, values)))
        return on_node(node)

    return fold(expr, visit)


def map_program(program: BernProgram, on_node=None, on_stmt=None, mode=None) -> BernProgram:
    """Rebuild a program: every expression through `map_expr` with
    ``on_node``, then every statement, its blocks already rebuilt, through
    ``on_stmt``, which returns the statements that take its place.  The
    result has `mode`, or the program's own mode when that is None."""

    def expr(e):
        return e if on_node is None else map_expr(e, on_node)

    def block(body):
        out = []
        for stmt in body:
            if isinstance(stmt, PAssign):
                stmt = PAssign(stmt.targets, tuple(map(expr, stmt.exprs)), stmt.loc)
            elif isinstance(stmt, BIf):
                stmt = BIf(expr(stmt.cond), block(stmt.then), block(stmt.els), stmt.loc)
            else:
                stmt = type(stmt)(expr(stmt.cond), stmt.loc)
            out.extend(on_stmt(stmt) if on_stmt else (stmt,))
        return tuple(out)

    return BernProgram(program.decls, block(program.body), mode or program.mode)


def walk_stmts(body):
    """Every statement under `body`, each before those in its blocks: the
    walk of BERN and of concrete statements, whose `if` holds `then` and `els`.
    The walk keeps a stack of the blocks it is inside, so a statement costs
    one step however deeply it nests."""
    todo = [iter(body)]
    while todo:
        for stmt in todo[-1]:
            yield stmt
            if hasattr(stmt, "then"):
                todo += (iter(stmt.els), iter(stmt.then))
                break
        else:
            todo.pop()


def walk_exprs(body):
    """Every expression node under `body`, statement by statement; within
    an expression children come before their parent, leaves left to right."""
    nodes = []
    for stmt in walk_stmts(body):
        for e in stmt.exprs if isinstance(stmt, PAssign) else (stmt.cond,):
            fold(e, lambda node, _: nodes.append(node))
    return nodes


# --- choose desugaring --------------------------------------------------------


def desugar_program(program: BernProgram, mode=None) -> BernProgram:
    """Replace every choose(a, b) with a || (!b && <fresh>).

    The fresh leaf is ``*`` in non-deterministic mode and a flip with a new
    site parameter in probabilistic mode.  Fresh ids continue after the
    existing ones; inner chooses are replaced before the ones that hold
    them, so fresh ids rise left to right through the program.  A program
    with no choose, already in `mode`, is returned as it is.  Both the
    choose and the largest id are read from the program's record, so only
    a program that is rebuilt is walked.
    """
    mode = mode or program.mode
    if mode not in ("prob", "nondet"):
        raise ModeError("cannot desugar choose without a program mode")
    if mode == program.mode and not program._has_choose:
        return program
    counter = itertools.count(program._top_id + 1)

    def alloc():
        n = next(counter)
        if mode == "prob":
            return Flip(n, f"theta{n}")
        return Star(n)

    def on_node(e):
        if isinstance(e, Choose):
            return BOr(e.when_true, BAnd(BNot(e.when_false), alloc()))
        return e

    return map_program(program, on_node, mode=mode)


# --- exact probabilistic interpretation ---------------------------------------


class AbstractDistribution:
    """Exact sub-distribution over total assignments to the declared variables."""

    def __init__(self, var_names, mass):
        self.var_names = tuple(var_names)
        self._mass = {k: v for k, v in mass.items() if v > 0}

    @classmethod
    def point(cls, var_names, state):
        key = tuple(bool(state[n]) for n in var_names)
        return cls(var_names, {key: Fraction(1)})

    @classmethod
    def uniform(cls, var_names):
        names = tuple(var_names)
        w = Fraction(1, 2 ** len(names))
        return cls(names, {k: w for k in itertools.product((False, True), repeat=len(names))})

    @property
    def survival(self) -> Fraction:
        return sum(self._mass.values(), Fraction(0))

    def __len__(self):
        return len(self._mass)

    def items(self):
        for key, w in sorted(self._mass.items()):
            yield dict(zip(self.var_names, key)), w

    def mass_of(self, state) -> Fraction:
        key = tuple(bool(state[n]) for n in self.var_names)
        return self._mass.get(key, Fraction(0))

    def support(self):
        return {k for k in self._mass}

    def marginal(self, names) -> "AbstractDistribution":
        names = tuple(names)
        idx = [self.var_names.index(n) for n in names]
        out = {}
        for key, w in self._mass.items():
            nk = tuple(key[i] for i in idx)
            out[nk] = out.get(nk, Fraction(0)) + w
        return AbstractDistribution(names, out)

    def prob(self, predicate) -> Fraction:
        """Unnormalized mass of states satisfying `predicate(state_dict)`."""
        total = Fraction(0)
        for state, w in self.items():
            if predicate(state):
                total += w
        return total


# Python's meaning of each connective, shared by both interpreters
_BOOL_OPS = {
    BNot: operator.not_,
    BAnd: lambda a, b: a and b,
    BOr: lambda a, b: a or b,
    BImp: lambda a, b: (not a) or b,
    BIff: operator.eq,
}


def _leaf(node, state, flips):
    if isinstance(node, (BTrue, BFalse)):
        return isinstance(node, BTrue)
    if isinstance(node, BVar):
        return state[node.name]
    if isinstance(node, Flip):
        return flips[node.site]
    if isinstance(node, Star):
        return flips[("star", node.occurrence)]
    if isinstance(node, Choose):
        raise ModeError("choose must be desugared before interpretation")
    raise TypeError(f"not a BERN expression: {node!r}")


def eval_expr(e, state, flips) -> bool:
    """Deterministic evaluation with all flip/star choices resolved."""

    def visit(node, values):
        op = _BOOL_OPS.get(type(node))
        return op(*values) if op else _leaf(node, state, flips)

    return fold(e, visit)


def _run_deterministic(program, state, flips):
    """Returns the end state dict, or None when an observe/assume fails."""

    def run(body, st):
        for stmt in body:
            if isinstance(stmt, PAssign):
                values = [eval_expr(e, st, flips) for e in stmt.exprs]
                st = dict(st)
                for t, v in zip(stmt.targets, values):
                    st[t] = v
            elif isinstance(stmt, BIf):
                st = run(stmt.then if eval_expr(stmt.cond, st, flips) else stmt.els, st)
                if st is None:
                    return None
            elif isinstance(stmt, (BObserve, BAssume)):
                if not eval_expr(stmt.cond, st, flips):
                    return None
            else:
                raise TypeError(f"not a statement: {stmt!r}")
        return st

    return run(program.body, dict(state))


def exact_inference_input(program: BernProgram):
    """The program exact inference runs, and its flip sites as
    `BernProgram.flip_owners` lists them.

    Both exact engines (`interp_exact` and the symbolic engine) take their
    input through here: a program in ``nondet`` mode is rejected, chooses
    are desugared to flips, and a flip whose parameter is still a name is
    rejected.  Nothing is walked here: only a program whose record shows a
    choose or a ``*`` is desugared (which rejects the ``*``), every other
    one is returned as it is, and the sites are the record's.
    """
    if program.mode == "nondet":  # a prob-mode program holds no * (BernProgram checks)
        raise ModeError(
            "exact inference needs a probabilistic program; "
            "run non-deterministic programs through interp_nondet"
        )
    if program._has_choose or program._has_star:
        program = desugar_program(program, "prob")
    sites = program.flip_owners()
    for site, theta, _ in sites:
        if isinstance(theta, str):
            raise ModeError(f"flip site {site} has unresolved parameter {theta!r}")
    return program, sites


def interp_exact(
    program: BernProgram,
    dist: AbstractDistribution | None = None,
) -> AbstractDistribution:
    """Exact output distribution by enumerating all flip-site assignments.

    For every input state and every total assignment to the flip sites the
    (now deterministic) program is run once; the run's weight is the
    product of theta / (1 - theta) factors, and runs failing an observe or
    assume are dropped.
    """
    program, sites = exact_inference_input(program)
    if len(sites) > DEFAULT_FLIP_CAP:
        raise EnumerationCapError(f"{len(sites)} flip sites exceed cap {DEFAULT_FLIP_CAP}")
    if dist is None:
        dist = AbstractDistribution.uniform(program.decls)

    out = {}
    site_ids = [s for s, _, _ in sites]
    thetas = {s: t for s, t, _ in sites}
    for state, w0 in dist.items():
        for bits in itertools.product((False, True), repeat=len(site_ids)):
            weight = w0
            flips = {}
            for site, bit in zip(site_ids, bits):
                theta = thetas[site]
                weight *= theta if bit else 1 - theta
                flips[site] = bit
            if weight == 0:
                continue
            end = _run_deterministic(program, state, flips)
            if end is None:
                continue
            key = tuple(end[n] for n in program.decls)
            out[key] = out.get(key, Fraction(0)) + weight
    return AbstractDistribution(program.decls, out)


# --- non-deterministic interpretation -------------------------------------------


def eval_expr_set(e, state) -> frozenset:
    """Set of possible values; each syntactic * occurrence is independent."""

    def visit(node, values):
        op = _BOOL_OPS.get(type(node))
        if op:
            return frozenset(op(*combo) for combo in itertools.product(*values))
        if isinstance(node, Star):
            return frozenset((False, True))
        if isinstance(node, Flip):
            raise ModeError("flip encountered in non-deterministic interpretation")
        return frozenset((_leaf(node, state, None),))

    return fold(e, visit)


def interp_nondet(program: BernProgram, states) -> set:
    """All reachable end states over every resolution of *, assume-filtered.

    `states` holds total assignments as bool tuples in declaration order;
    the result is a set of the same shape.
    """
    program = desugar_program(program, program.mode or "nondet")
    names = program.decls

    def to_dict(key):
        return dict(zip(names, key))

    def run(body, current):
        for stmt in body:
            if isinstance(stmt, PAssign):
                nxt = set()
                for key in current:
                    st = to_dict(key)
                    value_sets = [eval_expr_set(e, st) for e in stmt.exprs]
                    for combo in itertools.product(*value_sets):
                        st2 = dict(st)
                        for t, v in zip(stmt.targets, combo):
                            st2[t] = v
                        nxt.add(tuple(st2[n] for n in names))
                current = nxt
            elif isinstance(stmt, BIf):
                then_in, else_in = set(), set()
                for key in current:
                    vals = eval_expr_set(stmt.cond, to_dict(key))
                    if True in vals:
                        then_in.add(key)
                    if False in vals:
                        else_in.add(key)
                current = run(stmt.then, then_in) | run(stmt.els, else_in)
            elif isinstance(stmt, (BObserve, BAssume)):
                current = {
                    key for key in current if True in eval_expr_set(stmt.cond, to_dict(key))
                }
            else:
                raise TypeError(f"not a statement: {stmt!r}")
        return current

    return run(program.body, {tuple(bool(v) for v in key) for key in states})


# --- serialization ---------------------------------------------------------------

IDENT_OK = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
RESERVED_WORDS = {"bool", "if", "else", "observe", "assume", "flip", "choose", "T", "F"}


# a braced name holds no brace, comment or line break, nor space at its ends
_UNBRACEABLE = re.compile(r"[{}#\n]|^\s|\s$")


def name_text(name):
    """`name` as .bern text: bare if it is an identifier, else braced."""
    if IDENT_OK.fullmatch(name) and name not in RESERVED_WORDS:
        return name
    if not name or _UNBRACEABLE.search(name):
        raise ValueError(f"the name {name!r} cannot be written as .bern text")
    return "{" + name + "}"


def _theta_text(theta):
    if isinstance(theta, str):
        return theta
    f = Fraction(theta)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# binding level and symbol of the infix connectives; ! binds at 5, atoms at 6
_INFIX = {BIff: (1, "<=>"), BImp: (2, "=>"), BOr: (3, "||"), BAnd: (4, "&&")}
_CONSTANTS = {BTrue: "T", BFalse: "F", Star: "*"}


def _bracket(text_level, prec):
    text, level = text_level
    return f"({text})" if level < prec else text


def expr_text(e, prec=0) -> str:
    def visit(node, values):
        t = type(node)
        if t in _INFIX:
            level, sym = _INFIX[t]
            # => is right-associative, the rest left-associative; the off side
            # gets a higher binding level so tree shapes survive a parse round trip
            left, right = (level + 1, level) if t is BImp else (level, level + 1)
            return f"{_bracket(values[0], left)} {sym} {_bracket(values[1], right)}", level
        if t is BNot:
            return "!" + _bracket(values[0], 5), 5
        if t is Choose:
            return f"choose({values[0][0]}, {values[1][0]})", 6
        if t is BVar:
            return name_text(node.name), 6
        if t is Flip:
            return f"flip({_theta_text(node.theta)})", 6
        return _CONSTANTS[t], 6

    return _bracket(fold(e, visit), prec)


def to_text(program: BernProgram) -> str:
    lines = [f"bool {name_text(n)}" for n in program.decls]

    def emit(body, indent):
        pad = "  " * indent
        for stmt in body:
            if isinstance(stmt, PAssign):
                if not stmt.targets:
                    continue
                lhs = ", ".join(name_text(t) for t in stmt.targets)
                rhs = ", ".join(expr_text(e) for e in stmt.exprs)
                lines.append(f"{pad}{lhs} = {rhs}")
            elif isinstance(stmt, BIf):
                lines.append(f"{pad}if ({expr_text(stmt.cond)}) {{")
                emit(stmt.then, indent + 1)
                if stmt.els:
                    lines.append(f"{pad}}} else {{")
                    emit(stmt.els, indent + 1)
                lines.append(f"{pad}}}")
            elif isinstance(stmt, BObserve):
                lines.append(f"{pad}observe({expr_text(stmt.cond)})")
            elif isinstance(stmt, BAssume):
                lines.append(f"{pad}assume({expr_text(stmt.cond)})")
    emit(program.body, 0)
    return "\n".join(lines) + "\n"
