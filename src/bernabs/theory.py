"""Decision procedure for conditions over bounded integer domains.

Satisfiability and entailment are decided by exhaustive enumeration of the
joint domain (the role an SMT solver would play for unbounded theories),
with memoization keyed on the serialized condition.  The predicate domain
answers its per-cube questions from one sweep of its own (the α-image), so
these are left to the builder's few direct checks and to the tests, which
use them as the oracle.  SMT-LIB2 export is provided so an external solver
can cross-check verdicts: the query log holds every distinct query asked
here or answered by the image.
"""

from __future__ import annotations

import itertools

from bernabs import concrete as cc
from bernabs.errors import TheoryCapError

DEFAULT_CAP = 2**20


class TheoryContext:
    def __init__(self, decls, cap=DEFAULT_CAP, record_queries=False):
        self.decls = tuple(decls)
        self.cap = cap
        self.names = tuple(d.name for d in self.decls)
        self._index = {n: i for i, n in enumerate(self.names)}
        self._sat_memo = {}
        self._ent_memo = {}
        self.query_log = [] if record_queries else None
        self._logged = set()  # memo keys of the logged queries

    @classmethod
    def of_program(cls, program: cc.ConcreteProgram, cap=DEFAULT_CAP, record_queries=False):
        return cls(program.decls, cap=cap, record_queries=record_queries)

    def joint_size(self):
        n = 1
        for d in self.decls:
            n *= d.size
        return n

    def check_closed(self, cond):
        extra = cc.cond_vars(cond) - set(self.names)
        if extra:
            raise KeyError(f"condition mentions undeclared variables: {sorted(extra)}")

    def _check_cap(self):
        n = self.joint_size()
        if n > self.cap:
            raise TheoryCapError(f"joint domain has {n} states (cap {self.cap})")

    def states(self):
        """All joint states as tuples in declaration order."""
        self._check_cap()
        return itertools.product(*(range(d.lo, d.hi) for d in self.decls))

    def compile(self, cond):
        """Compile a condition to a fast closure over state tuples."""
        index = self._index

        def ce(e):
            if isinstance(e, cc.IntConst):
                v = e.value
                return lambda s: v
            if isinstance(e, cc.IntVar):
                i = index[e.name]
                return lambda s: s[i]
            if isinstance(e, cc.Add):
                f, g = ce(e.left), ce(e.right)
                return lambda s: f(s) + g(s)
            if isinstance(e, cc.Sub):
                f, g = ce(e.left), ce(e.right)
                return lambda s: f(s) - g(s)
            if isinstance(e, cc.Scale):
                k, f = e.coeff, ce(e.operand)
                return lambda s: k * f(s)
            raise TypeError(f"not an integer expression: {e!r}")

        def cb(c):
            if isinstance(c, cc.CTrue):
                return lambda s: True
            if isinstance(c, cc.CFalse):
                return lambda s: False
            if isinstance(c, cc.Cmp):
                f, g = ce(c.left), ce(c.right)
                return {
                    "<": lambda s: f(s) < g(s),
                    "<=": lambda s: f(s) <= g(s),
                    "==": lambda s: f(s) == g(s),
                    "!=": lambda s: f(s) != g(s),
                    ">": lambda s: f(s) > g(s),
                    ">=": lambda s: f(s) >= g(s),
                }[c.op]
            if isinstance(c, cc.CNot):
                f = cb(c.operand)
                return lambda s: not f(s)
            if isinstance(c, cc.CAnd):
                f, g = cb(c.left), cb(c.right)
                return lambda s: f(s) and g(s)
            if isinstance(c, cc.COr):
                f, g = cb(c.left), cb(c.right)
                return lambda s: f(s) or g(s)
            raise TypeError(f"not a condition: {c!r}")

        return cb(cond)

    def satisfiable(self, cond) -> bool:
        self.check_closed(cond)
        key = str(cond)
        hit = self._sat_memo.get(key)
        if hit is not None:
            return hit
        self.log_query("sat", cond)
        fn = self.compile(cond)
        result = any(fn(s) for s in self.states())
        self._sat_memo[key] = result
        return result

    def entails(self, a, b) -> bool:
        """Every state satisfying a satisfies b (decided by direct sweep)."""
        self.check_closed(a)
        self.check_closed(b)
        key = (str(a), str(b))
        hit = self._ent_memo.get(key)
        if hit is not None:
            return hit
        self.log_query("entails", a, b)
        fa, fb = self.compile(a), self.compile(b)
        result = all(fb(s) for s in self.states() if fa(s))
        self._ent_memo[key] = result
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

    def se(e):
        if isinstance(e, cc.IntVar):
            return expr if e.name == name else e
        if isinstance(e, cc.Add):
            return cc.Add(se(e.left), se(e.right))
        if isinstance(e, cc.Sub):
            return cc.Sub(se(e.left), se(e.right))
        if isinstance(e, cc.Scale):
            return cc.Scale(e.coeff, se(e.operand))
        return e

    def sc(c):
        if isinstance(c, cc.Cmp):
            return cc.Cmp(c.op, se(c.left), se(c.right))
        if isinstance(c, cc.CNot):
            return cc.CNot(sc(c.operand))
        if isinstance(c, cc.CAnd):
            return cc.CAnd(sc(c.left), sc(c.right))
        if isinstance(c, cc.COr):
            return cc.COr(sc(c.left), sc(c.right))
        return c

    return sc(cond)


# --- SMT-LIB2 export -----------------------------------------------------------


def _smt_int(e) -> str:
    if isinstance(e, cc.IntConst):
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if isinstance(e, cc.IntVar):
        return e.name
    if isinstance(e, cc.Add):
        return f"(+ {_smt_int(e.left)} {_smt_int(e.right)})"
    if isinstance(e, cc.Sub):
        return f"(- {_smt_int(e.left)} {_smt_int(e.right)})"
    if isinstance(e, cc.Scale):
        k = str(e.coeff) if e.coeff >= 0 else f"(- {-e.coeff})"
        return f"(* {k} {_smt_int(e.operand)})"
    raise TypeError(f"not an integer expression: {e!r}")


def smt_cond(c) -> str:
    if isinstance(c, cc.CTrue):
        return "true"
    if isinstance(c, cc.CFalse):
        return "false"
    if isinstance(c, cc.Cmp):
        op = {"<": "<", "<=": "<=", "==": "=", ">": ">", ">=": ">="}.get(c.op)
        if op is None:  # !=
            return f"(not (= {_smt_int(c.left)} {_smt_int(c.right)}))"
        return f"({op} {_smt_int(c.left)} {_smt_int(c.right)})"
    if isinstance(c, cc.CNot):
        return f"(not {smt_cond(c.operand)})"
    if isinstance(c, cc.CAnd):
        return f"(and {smt_cond(c.left)} {smt_cond(c.right)})"
    if isinstance(c, cc.COr):
        return f"(or {smt_cond(c.left)} {smt_cond(c.right)})"
    raise TypeError(f"not a condition: {c!r}")


def emit_smtlib(ctx: TheoryContext, kind: str, a, b=None) -> str:
    """Self-contained QF_LIA script.

    kind='sat': sat iff `a` is satisfiable within the declared ranges.
    kind='entails': asserts a AND NOT b, so unsat iff a entails b.
    """
    lines = ["(set-logic QF_LIA)"]
    for d in ctx.decls:
        lines.append(f"(declare-const {d.name} Int)")
        lines.append(f"(assert (<= {_fmt(d.lo)} {d.name}))")
        lines.append(f"(assert (< {d.name} {_fmt(d.hi)}))")
    if kind == "sat":
        lines.append(f"(assert {smt_cond(a)})")
    elif kind == "entails":
        lines.append(f"(assert {smt_cond(a)})")
        lines.append(f"(assert (not {smt_cond(b)}))")
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _fmt(v: int) -> str:
    return str(v) if v >= 0 else f"(- {-v})"


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
