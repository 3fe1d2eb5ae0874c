"""Decision procedure for conditions over bounded integer domains.

Satisfiability and entailment are decided by exhaustive enumeration of the
joint domain (the role an SMT solver would play for unbounded theories),
bounded by ``concrete.DEFAULT_STATE_CAP`` alone, with memoization keyed on
the condition's text, which also answers the builder's repeated draw
queries; closedness is checked only on a miss.  Conditions are evaluated
only through `concrete.compile`, once per query, and walked only through
`bern.fold`: the weakest precondition is a `bern.map_expr` rebuild and the
SMT-LIB2 text a fold with one entry per node class.  The predicate domain
answers its per-cube questions from one sweep of its own (the α-image), so
these are left to the builder's few direct checks and to the tests, which
use them as the oracle.  SMT-LIB2 export is provided so an external solver
can cross-check verdicts: the query log holds every distinct query asked
here or answered by the image.
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
        self._sat_memo = {}
        self._ent_memo = {}
        self.query_log = [] if record_queries else None
        self._logged = set()  # memo keys of the logged queries

    @classmethod
    def of_program(cls, program: cc.ConcreteProgram, record_queries=False):
        return cls(program.decls, record_queries=record_queries)

    def check_closed(self, cond):
        extra = cc.tree_vars(cond) - set(self.names)
        if extra:
            raise ParseError(f"condition mentions undeclared variables: {', '.join(sorted(extra))}")

    def states(self):
        """All joint states as tuples in declaration order; a domain of
        more than ``concrete.DEFAULT_STATE_CAP`` states raises
        ``TheoryCapError`` before any is enumerated."""
        n = cc.joint_size(self.decls)
        if n > cc.DEFAULT_STATE_CAP:
            raise TheoryCapError(f"joint domain has {n} states (cap {cc.DEFAULT_STATE_CAP})")
        return itertools.product(*(range(d.lo, d.hi) for d in self.decls))

    def satisfiable(self, cond) -> bool:
        key = str(cond)
        hit = self._sat_memo.get(key)
        if hit is not None:
            return hit
        self.check_closed(cond)
        self.log_query("sat", cond)
        fn = cc.compile(cond, self.names)
        result = any(fn(s) for s in self.states())
        self._sat_memo[key] = result
        return result

    def entails(self, a, b) -> bool:
        """Every state satisfying a satisfies b (decided by direct sweep)."""
        key = (str(a), str(b))
        hit = self._ent_memo.get(key)
        if hit is not None:
            return hit
        self.check_closed(a)
        self.check_closed(b)
        self.log_query("entails", a, b)
        fa, fb = cc.compile(a, self.names), cc.compile(b, self.names)
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
