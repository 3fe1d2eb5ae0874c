"""Symbolic inference on probabilistic BERN programs.

The reachable-knowledge base Δ at each program point is a Bdd over the
current predicate variables plus one weighted variable per flip site
encountered so far; flips stay unconstrained so that weighted model
counting over them recovers path probabilities.  Parallel assignments are
relational images over their targets only.  The targets that no
right-hand side reads are quantified out of Δ; each target that one reads
is renamed to its primed copy; ``t <=> rhs`` is conjoined per target (a
read of a target sees the primed copy, any other read the variable
itself); and the primed copies are quantified out, the last two steps as
one ``and_exists``.  An assignment that reads none of its targets is thus
``(∃T.Δ) & ⋀ (t <=> rhs)``, with no rename and no primed level.
Variables the assignment does not write keep their own variable, so they
need no copy and no constraint.

The universe's order is Dice's (Holtzen, Van den Broeck & Millstein,
2020): each declared variable v, in declaration order, is followed by
its primed copy v#' and then by every flip read in an assignment to v,
so a Δ that ties v to its flip ties neighbouring levels, not v to a
level below every other variable.  Flips read in ``if`` guards, observes
and assumes come after all of them.  v#' right after v is what lets an
image rename v to v#' in place.  Every variable keeps its v#' level,
whether or not an assignment ever renames it.

A query of one variable reads a table of every state variable's mass at
the point, made once per point by one pass up and one pass down Δ
(``Bdd.marginals``); any other event conjoins its Bdd with Δ and counts.
A program's universe has 2 levels per variable and 1 per flip site, at
most ``MAX_LEVELS`` of them, since the kernel's ``apply`` and
``and_exists`` recurse once per level.

Program points are prefix points of the top-level statement sequence:
point 0 is the initial Δ, point k is after the k-th statement; "end" names
the last one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from bernabs import bdd as bddm
from bernabs import bern
from bernabs.errors import (
    ConditionOnImpossibleError,
    LevelBoundError,
    ModeError,
    ProgramPointError,
)

# The most levels a program's universe may have: 2 per variable (v and v#'),
# plus 1 per flip site.  ``apply`` and ``and_exists`` recurse once per level,
# so this bounds their depth; it leaves room on the interpreter's stack for
# a program whose `if` blocks nest as deep as the parser allows.
MAX_LEVELS = 600

# v#' is v's primed copy.  Like the flip variables flip#k it holds a "#",
# which no parsed .bern name does, so it is never a variable a program declares.
PRIME_SUFFIX = "#'"


_BDD_OPS = {
    bern.BNot: operator.invert,
    bern.BAnd: operator.and_,
    bern.BOr: operator.or_,
    bern.BImp: bddm.Bdd.implies,
    bern.BIff: bddm.Bdd.iff,
}


def expr_to_bdd(universe, expr, var_of_name, flip_var=None) -> bddm.Bdd:
    """Evaluate a BERN expression to a Bdd.

    `var_of_name` maps a variable name to a BoolVar (callers pass primed
    copies when evaluating pre-state reads).  Flip sites resolve through
    the optional callback; a * is an error.
    """

    def visit(e, values):
        op = _BDD_OPS.get(type(e))
        if op is not None:
            return op(*values)
        if isinstance(e, bern.BTrue):
            return bddm.true_bdd(universe)
        if isinstance(e, bern.BFalse):
            return bddm.false_bdd(universe)
        if isinstance(e, bern.BVar):
            return bddm.var_bdd(universe, var_of_name(e.name))
        if isinstance(e, bern.Flip):
            if flip_var is None:
                raise ModeError("flip not allowed in this context")
            return bddm.var_bdd(universe, flip_var(e))
        if isinstance(e, bern.Star):
            raise ModeError("* encountered in probabilistic symbolic execution")
        if isinstance(e, bern.Choose):
            raise ModeError("choose must be desugared before symbolic execution")
        raise TypeError(f"not a BERN expression: {e!r}")

    return bern.fold(expr, visit)


class SymbolicContext:
    """Variable universe for one program.  Each declared variable v, in
    declaration order, brings v, v#' and then the flips read in assignments
    to v; the flips read in `if` guards, observes and assumes come last.
    Flips keep their program order within each group."""

    def __init__(self, program: bern.BernProgram):
        program, sites = bern.exact_inference_input(program)
        levels = 2 * len(program.decls) + len(sites)
        if levels > MAX_LEVELS:
            raise LevelBoundError(
                f"the program needs {levels} decision-diagram levels (2 per variable, "
                f"1 per flip site); the engine allows at most {MAX_LEVELS}"
            )
        self.program = program
        groups = {name: [(name, None), (name + PRIME_SUFFIX, None)] for name in program.decls}
        groups[None] = []  # flips read in guards, observes and assumes: after every variable
        for site, theta, owner in sites:
            groups[owner].append((f"flip#{site}", Fraction(theta)))
        self.universe = bddm.make_universe(spec for group in groups.values() for spec in group)
        self.state_vars = {n: self.universe.var(n) for n in program.decls}
        self.primed_vars = {n: self.universe.var(n + PRIME_SUFFIX) for n in program.decls}
        self.flip_vars = {site: self.universe.var(f"flip#{site}") for site, _, _ in sites}
        # wmc weight maps: the flips alone (survival), and flips plus states (queries)
        self.flip_weights = {v: v.weights() for v in self.flip_vars.values()}
        self.weights = dict(self.flip_weights)
        self.weights.update((v, v.weights()) for v in self.state_vars.values())

    def unprimed(self, name):
        return self.state_vars[name]

    def flip_var(self, e: bern.Flip):
        return self.flip_vars[e.site]

    def state_bdd(self, e: bern.BernExpr) -> bddm.Bdd:
        return expr_to_bdd(self.universe, e, self.unprimed, self.flip_var)

    def point_state_bdd(self, state: dict) -> bddm.Bdd:
        lits = [(self.state_vars[n], state[n]) for n in self.program.decls]
        return bddm.cube(self.universe, lits)


@dataclass(frozen=True)
class SymbolicState:
    delta: bddm.Bdd
    point: int


class SymbolicRun:
    def __init__(self, ctx: SymbolicContext, points):
        self.ctx = ctx
        self.points = points  # list of SymbolicState, index = prefix length
        self._survival_at = {}  # point index -> survival mass, computed once
        self._marginals_at = {}  # point index -> marginals, computed once

    def _index(self, point) -> int:
        if point in (None, "end"):
            return len(self.points) - 1
        try:
            index = int(point)
        except ValueError:
            index = None
        if index is None or not 0 <= index < len(self.points):
            raise ProgramPointError(
                f"no program point {point!r}: points run from 0 to {len(self.points) - 1}"
            )
        return index

    def at(self, point) -> SymbolicState:
        return self.points[self._index(point)]

    def survival(self, point="end") -> Fraction:
        index = self._index(point)
        mass = self._survival_at.get(index)
        if mass is None:
            mass = self._survival_at[index] = _survival(self.ctx, self.points[index].delta)
        return mass

    def marginals(self, point="end") -> dict:
        """Each state variable's name -> (Δ & v).wmc(ctx.weights) at `point`,
        from one pass over Δ."""
        index = self._index(point)
        masses = self._marginals_at.get(index)
        if masses is None:
            ctx = self.ctx
            by_var = self.points[index].delta.marginals(ctx.weights, ctx.state_vars.values())
            masses = self._marginals_at[index] = {
                name: by_var[v] for name, v in ctx.state_vars.items()
            }
        return masses


def transfer(ctx: SymbolicContext, state: SymbolicState, stmt) -> SymbolicState:
    return SymbolicState(_transfer_delta(ctx, state.delta, stmt), state.point + 1)


def _transfer_delta(ctx: SymbolicContext, delta, stmt):
    if isinstance(stmt, bern.PAssign):
        if not stmt.targets:
            return delta
        read = set()  # the targets some right-hand side reads, noted as each is made

        def var_of(name):
            if name in stmt.targets:
                read.add(name)
                return ctx.primed_vars[name]
            return ctx.state_vars[name]

        cons = bddm.true_bdd(ctx.universe)
        for name, e in zip(stmt.targets, stmt.exprs):
            v = bddm.var_bdd(ctx.universe, ctx.state_vars[name])
            cons = cons & v.iff(expr_to_bdd(ctx.universe, e, var_of, ctx.flip_var))
        delta = delta.exists(ctx.state_vars[n] for n in stmt.targets if n not in read)
        if not read:
            return delta & cons
        moved = delta.rename({ctx.state_vars[n]: ctx.primed_vars[n] for n in read})
        return moved.and_exists(cons, (ctx.primed_vars[n] for n in read))
    if isinstance(stmt, (bern.BObserve, bern.BAssume)):
        return delta & ctx.state_bdd(stmt.cond)
    if isinstance(stmt, bern.BIf):
        guard = ctx.state_bdd(stmt.cond)
        then_out = _run_block(ctx, delta & guard, stmt.then)
        else_out = _run_block(ctx, delta & ~guard, stmt.els)
        return then_out | else_out
    raise TypeError(f"not a statement: {stmt!r}")


def _run_block(ctx, delta, body):
    for stmt in body:
        delta = _transfer_delta(ctx, delta, stmt)
    return delta


def run_symbolic(program: bern.BernProgram, init=None) -> SymbolicRun:
    """Δ at every top-level prefix point, starting from `init`.

    `init` is None for T, a state dict, or a flip-free BERN expression over
    the program variables (callers with a theory in hand pass the predicate
    invariant, through ``builder.formula_to_expr``, to exclude infeasible
    inputs).  The universe is made here, so no caller holds a Bdd over it.
    """
    ctx = SymbolicContext(program)
    if init is None:
        delta = bddm.true_bdd(ctx.universe)
    elif isinstance(init, bern.BernExpr):
        delta = ctx.state_bdd(init)
    elif isinstance(init, dict):
        delta = ctx.point_state_bdd(init)
    else:
        raise TypeError(f"bad init {init!r}")
    points = [SymbolicState(delta, 0)]
    for stmt in ctx.program.body:
        points.append(transfer(ctx, points[-1], stmt))
    return SymbolicRun(ctx, points)


def _survival(ctx: SymbolicContext, delta) -> Fraction:
    return delta.exists(ctx.state_vars.values()).wmc(ctx.flip_weights)


@dataclass(frozen=True)
class QueryResult:
    point: object
    event_text: str
    probability: Fraction
    survival: Fraction

    def to_json(self):
        return {
            "point": self.point,
            "event": self.event_text,
            "numerator": self.probability.numerator,
            "denominator": self.probability.denominator,
            "survival_numerator": self.survival.numerator,
            "survival_denominator": self.survival.denominator,
        }


def query(program_or_run, event: bern.BernExpr, point="end", init=None, normalized=True) -> QueryResult:
    """Exact marginal of `event` at a program point.

    The marginal is conditioned on observe-survival unless
    ``normalized=False``.  `event` is a plain Boolean expression over the
    program variables.
    """
    if isinstance(program_or_run, SymbolicRun):
        run = program_or_run
    else:
        run = run_symbolic(program_or_run, init=init)
    ctx = run.ctx
    if isinstance(event, bern.BVar):
        mass = run.marginals(point)[event.name]
    else:
        mass = (run.at(point).delta & ctx.state_bdd(event)).wmc(ctx.weights)
    survival = run.survival(point)
    if not normalized:
        return QueryResult(point, bern.expr_text(event), mass, survival)
    if survival == 0:
        raise ConditionOnImpossibleError("no surviving executions at this point")
    return QueryResult(point, bern.expr_text(event), mass / survival, survival)
