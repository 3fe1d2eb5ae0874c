"""Decision procedure for conditions over bounded integer domains.

The states that satisfy a condition are one integer bitset over the joint
domain, its mask: bit k stands for the k-th state of
`TheoryContext.states`, the state at `TheoryContext.index` k.  A mask is
one `bern.fold` (``&``, ``|`` and complement with the all-states mask);
each comparison atom is evaluated, through `concrete.compile`, only over
the ranges of the variables it reads, and repeated over the rest of the
domain as binary digits.  A negation's mask is the complement: stacked
``!`` are stripped in a loop, so a condition and its negation share one
build.  Satisfiability and entailment are one big-int test on masks (the
role an SMT solver would play for unbounded theories), bounded by
``concrete.DEFAULT_STATE_CAP`` alone.  Masks are memoized on the
condition's text and atoms on theirs; the cap is checked on a miss,
before anything of the domain's size is allocated, and closedness on
each new atom, whose text and variables come from the mask's fold.  The
weakest precondition is a `bern.map_expr` rebuild and the SMT-LIB2 text
a fold with one entry per node class.  The predicate domain answers its
per-cube questions from the masks of its cells, so these are left to
the builder's few direct checks and to the tests, which use them as the
oracle.  The query log holds every distinct query asked here or answered
by the cells, as SMT-LIB2 an external solver can cross-check.
"""

from __future__ import annotations

import itertools

from bernabs import bern
from bernabs import concrete as cc
from bernabs.errors import ParseError, TheoryCapError


class TheoryContext:
    def __init__(self, decls, record_queries=False):
        self.decls = tuple(decls)
        self.names = tuple(d.name for d in self.decls)
        self._masks = {}  # str(cond) -> mask
        self._atoms = {}  # str(atom) -> mask
        self._full = None  # the all-states mask, made after the cap check
        self.query_log = [] if record_queries else None
        self._logged = set()  # memo keys of the logged queries

    @classmethod
    def of_program(cls, program: cc.ConcreteProgram, record_queries=False):
        return cls(program.decls, record_queries=record_queries)

    def check_closed(self, cond) -> frozenset:
        """The variables `cond` reads, if this context declares them all."""
        return self._closed(frozenset(cc.tree_vars(cond)))

    def _closed(self, reads) -> frozenset:
        """`reads`, if this context declares every one of them."""
        extra = reads - set(self.names)
        if extra:
            raise ParseError(f"condition mentions undeclared variables: {', '.join(sorted(extra))}")
        return reads

    def size(self) -> int:
        """How many joint states there are; a domain of more than
        ``concrete.DEFAULT_STATE_CAP`` states raises ``TheoryCapError``."""
        n = cc.joint_size(self.decls)
        if n > cc.DEFAULT_STATE_CAP:
            raise TheoryCapError(f"joint domain has {n} states (cap {cc.DEFAULT_STATE_CAP})")
        return n

    def states(self):
        """All joint states as tuples in declaration order; a domain over
        the cap raises ``TheoryCapError`` before any is enumerated."""
        self.size()
        return itertools.product(*(range(d.lo, d.hi) for d in self.decls))

    def digits(self, mask) -> str:
        """`mask` as one character per state in ``states()`` order, "1"
        where its bit is set and "0" where it is not."""
        return bin(mask)[:1:-1].ljust(self.size(), "0")

    def index(self, key) -> int:
        """The position of the state `key` in ``states()`` order; a value
        out of its range or a key of the wrong length raises."""
        if len(key) != len(self.decls):
            raise ValueError(f"{key!r} is not a state of {self.names!r}")
        k = 0
        for d, value in zip(self.decls, key):
            k = k * d.size + cc._checked(d, value) - d.lo
        return k

    def members(self, mask):
        """The states whose bits are set in `mask`, in ``states()`` order."""
        return itertools.compress(self.states(), map("1".__eq__, self.digits(mask)))

    def mask(self, cond) -> int:
        """The states that satisfy `cond`, as an integer whose bit k is set
        iff the k-th state of ``states()`` does: the complement for each
        stacked ``!``, of the condition under them, memoized on its text."""
        negated = False
        while type(cond) is cc.CNot:
            cond, negated = cond.operand, not negated
        key = str(cond)
        result = self._masks.get(key)
        if result is None:
            if self._full is None:
                self._full = (1 << self.size()) - 1
            try:
                result = self._masks[key] = bern.fold(cond, self._combine)
            except ParseError:
                self.check_closed(cond)  # names every undeclared variable, not the atom's
                raise
        return self._full ^ result if negated else result

    def _combine(self, node, values):
        """The mask of a condition node, given its children's: or, below an
        atom, the text of an integer expression, which names its atom, and
        the variables it reads."""
        kind = type(node)
        if kind is cc.CAnd:
            return values[0] & values[1]
        if kind is cc.COr:
            return values[0] | values[1]
        if kind is cc.CNot:
            return self._full ^ values[0]
        if kind is cc.CTrue:
            return self._full
        if kind is cc.CFalse:
            return 0
        if kind is cc.IntVar:
            return node.name, frozenset((node.name,))
        text = cc.node_text(node, [text for text, _ in values])
        reads = frozenset().union(*(reads for _, reads in values))
        return self._atom(node, text, reads) if kind is cc.Cmp else (text, reads)

    def _atom(self, atom, key, reads) -> int:
        """The mask of a comparison whose text is `key`: its truth table
        over the variables it reads, in ``itertools.product`` order, laid
        out as binary digits level by level from the last variable up.
        At each level a variable the atom reads puts each run of
        consecutive blocks side by side, the first value lowest, and any
        other repeats each block once per value.  A loop, not a recursion,
        over the levels, and linear in the digits made.  The variables it
        `reads` must be declared."""
        hit = self._atoms.get(key)
        if hit is not None:
            return hit
        self._closed(reads)
        levels = [i for i, name in enumerate(self.names) if name in reads]
        fn = cc.compile(atom, [self.names[i] for i in levels])
        ranges = (range(self.decls[i].lo, self.decls[i].hi) for i in levels)
        blocks = ["1" if fn(s) else "0" for s in itertools.product(*ranges)]
        for level in reversed(range(len(self.decls))):
            size = self.decls[level].size
            if levels and levels[-1] == level:
                levels.pop()
                blocks = ["".join(reversed(blocks[i : i + size])) for i in range(0, len(blocks), size)]
            else:
                blocks = [block * size for block in blocks]
        result = self._atoms[key] = int(blocks[0], 2)
        return result

    def satisfiable(self, cond) -> bool:
        result = self.mask(cond) != 0
        self.log_query("sat", cond)
        return result

    def entails(self, a, b) -> bool:
        """Every state satisfying a satisfies b."""
        result = self.mask(a) & ~self.mask(b) == 0
        self.log_query("entails", a, b)
        return result

    def log_query(self, kind, a, b=None):
        """Append a query to the log, if it is on, once per memo key."""
        if self.query_log is None:
            return
        key = str(a) if kind == "sat" else (str(a), str(b))
        if key not in self._logged:
            self._logged.add(key)
            self.query_log.append((kind, a, b))


# --- weakest precondition ---------------------------------------------------


def wp_subst(name: str, expr, cond):
    """Weakest precondition of `name = expr` w.r.t. cond: syntactic substitution."""
    target = cc.IntVar(name)
    return bern.map_expr(cond, lambda node: expr if node == target else node)


# --- SMT-LIB2 export -----------------------------------------------------------


def _smt_number(value):
    return str(value) if value >= 0 else f"(- {-value})"


_SMT_CMP = {"<": "<", "<=": "<=", "==": "=", ">": ">", ">=": ">="}

# the SMT-LIB2 term of each node, given its children's terms
_SMT = {
    cc.IntConst: lambda node: _smt_number(node.value),
    cc.IntVar: lambda node: node.name,
    cc.CTrue: lambda node: "true",
    cc.CFalse: lambda node: "false",
    cc.Add: lambda node, a, b: f"(+ {a} {b})",
    cc.Sub: lambda node, a, b: f"(- {a} {b})",
    cc.Scale: lambda node, a: f"(* {_smt_number(node.coeff)} {a})",
    cc.Cmp: lambda node, a, b: (
        f"(not (= {a} {b}))" if node.op == "!=" else f"({_SMT_CMP[node.op]} {a} {b})"
    ),
    cc.CNot: lambda node, a: f"(not {a})",
    cc.CAnd: lambda node, a, b: f"(and {a} {b})",
    cc.COr: lambda node, a, b: f"(or {a} {b})",
}


def smt_cond(c) -> str:
    """The SMT-LIB2 term of a condition or an integer expression."""
    return bern.fold(c, lambda node, values: _SMT[type(node)](node, *values))


def emit_smtlib(ctx: TheoryContext, kind: str, a, b=None) -> str:
    """Self-contained QF_LIA script.

    kind='sat': sat iff `a` is satisfiable within the declared ranges.
    kind='entails': asserts a AND NOT b, so unsat iff a entails b.
    """
    lines = ["(set-logic QF_LIA)"]
    for d in ctx.decls:
        lines.append(f"(declare-const {d.name} Int)")
        var = cc.IntVar(d.name)
        lines.append(f"(assert {smt_cond(cc.Cmp('<=', cc.IntConst(d.lo), var))})")
        lines.append(f"(assert {smt_cond(cc.Cmp('<', var, cc.IntConst(d.hi)))})")
    if kind == "sat":
        lines.append(f"(assert {smt_cond(a)})")
    elif kind == "entails":
        lines.append(f"(assert {smt_cond(a)})")
        lines.append(f"(assert (not {smt_cond(b)}))")
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def dump_query_log(ctx: TheoryContext) -> str:
    """All recorded queries as one concatenated script, (reset) separated."""
    if ctx.query_log is None:
        return ""
    parts = []
    for kind, a, b in ctx.query_log:
        parts.append(f"; {kind}: {a}" + (f"  |=  {b}" if b is not None else ""))
        parts.append(emit_smtlib(ctx, kind, a, b).rstrip())
        parts.append("(reset)")
    return "\n".join(parts) + "\n"
