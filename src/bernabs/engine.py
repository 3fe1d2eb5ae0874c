"""Symbolic inference on probabilistic BERN programs.

The state at each program point is kept as functions, as Dice keeps it
(Holtzen, Van den Broeck & Millstein, OOPSLA 2020): each declared
variable v has a Bdd f_v over the inputs and the flips, v's value at the
point as a function of the state the run started in and the flips it
drew, and one Bdd `accept` holds where the run has passed every observe
and assume so far.

* **Init.** T gives f_v = v#in, the input variable of v.  An expression
  init I gives f_v = v#in and accept = I over the inputs.  A point init
  gives each f_v a constant.
* **Assignment.** Every target is set at once to its right-hand side,
  read through f (each read of v is f_v as it was before the
  assignment).  No rename and no quantifier is needed.
* **Observe, assume.** The condition, read through f, is conjoined into
  accept.
* **if.** Both arms run from (f, accept); where they end apart the state
  merges as f_v = (g & f_v¹) | (~g & f_v²), and likewise for accept,
  with g the guard read through f.
* **Query.** The start is the uniform distribution over the states that
  satisfy the init.  With inputs weighted (1, 1) and each flip (θ, 1-θ),
  P(event | survives) = wmc(accept & event[f]) / wmc(accept), and
  ``survival`` = P(survives) = wmc(accept) / N, where N is the number of
  initial states (the count of the init over the inputs).

The universe's order is Dice's: each declared variable, in declaration
order, brings v#in, then v, then every flip read in an assignment to v,
so a function that ties v to its flip ties neighbouring levels.  Flips
read in ``if`` guards, observes and assumes come after all of them.  The
level v serves only the relational view Δ = ∃ inputs. (accept & ⋀ (v <=>
f_v)) over the states and flips, which ``SymbolicState.delta`` makes on
demand (``infer --dot`` prints it).  A program's universe thus has 2
levels per variable and 1 per flip site, at most ``MAX_LEVELS`` of them,
since the kernel's ``apply`` and ``and_exists`` recurse once per level.

Program points are prefix points of the top-level statement sequence:
point 0 is the initial state, point k is after the k-th statement; "end"
names the last one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from bernabs import bdd as bddm
from bernabs import bern, kernel
from bernabs.errors import (
    ConditionOnImpossibleError,
    LevelBoundError,
    ModeError,
    ProgramPointError,
    UniverseError,
)

# The most levels a program's universe may have: 2 per variable (v#in and v),
# plus 1 per flip site.  ``apply`` and ``and_exists`` recurse once per level,
# so this bounds their depth; it leaves room on the interpreter's stack for
# a program whose `if` blocks nest as deep as the parser allows.
MAX_LEVELS = 600

# v#in is v's input variable.  Like the flip variables flip#k it holds a "#",
# which no parsed .bern name does, so it is never a variable a program declares.
INPUT_SUFFIX = "#in"

_OPS = {
    bern.BAnd: kernel.OP_AND,
    bern.BOr: kernel.OP_OR,
    bern.BImp: kernel.OP_IMP,
    bern.BIff: kernel.OP_IFF,
}


def _read(table, expr, node_of_name, flip_node=None) -> int:
    """The node of a BERN expression whose variable v reads
    ``node_of_name(v)``, and whose flips read ``flip_node(flip)``; a * or a
    choose is an error, and so is a flip without `flip_node`."""
    apply = table.apply

    def visit(e, values):
        op = _OPS.get(type(e))
        if op is not None:
            return apply(op, values[0], values[1])
        if isinstance(e, bern.BVar):
            return node_of_name(e.name)
        if isinstance(e, bern.BNot):
            return table.not_(values[0])
        if isinstance(e, bern.BTrue):
            return kernel.TRUE
        if isinstance(e, bern.BFalse):
            return kernel.FALSE
        if isinstance(e, bern.Flip):
            if flip_node is None:
                raise ModeError("flip not allowed in this context")
            return flip_node(e)
        if isinstance(e, bern.Star):
            raise ModeError("* encountered in probabilistic symbolic execution")
        if isinstance(e, bern.Choose):
            raise ModeError("choose must be desugared before symbolic execution")
        raise TypeError(f"not a BERN expression: {e!r}")

    return bern.fold(expr, visit)


def expr_to_bdd(universe, expr, var_of_name, flip_var=None) -> bddm.Bdd:
    """Evaluate a BERN expression to a Bdd.

    `var_of_name` maps a variable name to a BoolVar of `universe`.  Flip
    sites resolve through the optional callback, to a BoolVar too; a * is
    an error.
    """
    table = universe.table
    flip_node = None if flip_var is None else (lambda e: bddm.var_bdd(universe, flip_var(e)).ref)
    ref = _read(table, expr, lambda name: bddm.var_bdd(universe, var_of_name(name)).ref, flip_node)
    return bddm.Bdd(universe, ref)


class SymbolicContext:
    """Variable universe for one program.  Each declared variable v, in
    declaration order, brings v#in, v and then the flips read in
    assignments to v; the flips read in `if` guards, observes and assumes
    come last.  Flips keep their program order within each group."""

    def __init__(self, program: bern.BernProgram):
        program, sites = bern.exact_inference_input(program)
        levels = 2 * len(program.decls) + len(sites)
        if levels > MAX_LEVELS:
            raise LevelBoundError(
                f"the program needs {levels} decision-diagram levels (2 per variable, "
                f"1 per flip site); the engine allows at most {MAX_LEVELS}"
            )
        self.program = program
        groups = {name: [(name + INPUT_SUFFIX, None), (name, None)] for name in program.decls}
        groups[None] = []  # flips read in guards, observes and assumes: after every variable
        for site, theta, owner in sites:
            groups[owner].append((f"flip#{site}", Fraction(theta)))
        self.universe = bddm.make_universe(spec for group in groups.values() for spec in group)
        self.input_vars = {n: self.universe.var(n + INPUT_SUFFIX) for n in program.decls}
        self.state_vars = {n: self.universe.var(n) for n in program.decls}
        self.flip_vars = {site: self.universe.var(f"flip#{site}") for site, _, _ in sites}
        # the wmc weight map: the inputs count (1, 1), each flip (θ, 1 - θ)
        weights = {v: v.weights() for v in self.input_vars.values()}
        weights.update((v, v.weights()) for v in self.flip_vars.values())
        self.weights = bddm.Weights(self.universe, weights)
        table = self.universe.table
        self._flip_nodes = {site: table.var(v.index) for site, v in self.flip_vars.items()}

    def read(self, expr: bern.BernExpr, f: dict) -> int:
        """The node of `expr` with each variable v read as the node f[v]."""
        return _read(self.universe.table, expr, f.__getitem__, self._flip_node)

    def _flip_node(self, e: bern.Flip) -> int:
        node = self._flip_nodes.get(e.site)
        if node is None:  # only an event can read a flip the program lacks
            raise UniverseError(f"the program has no flip site {e.site}")
        return node


@dataclass(frozen=True, eq=False)
class SymbolicState:
    """The state at one program point: ``nodes[v]`` is the node of f_v and
    `accept_node` the node of accept, both in ``ctx.universe``."""

    ctx: SymbolicContext
    nodes: dict
    accept_node: int

    @property
    def f(self) -> dict:
        """Each declared variable's name -> f_v, its value as a Bdd over
        the inputs and the flips."""
        return {name: bddm.Bdd(self.ctx.universe, u) for name, u in self.nodes.items()}

    @property
    def accept(self) -> bddm.Bdd:
        return bddm.Bdd(self.ctx.universe, self.accept_node)

    @functools.cached_property
    def delta(self) -> bddm.Bdd:
        """The relational view Δ = ∃ inputs. (accept & ⋀ (v <=> f_v)) over
        the states and the flips: the (state, flips) pairs a surviving run
        can be in at this point."""
        ctx = self.ctx
        table = ctx.universe.table
        frame = kernel.TRUE
        for name, v in reversed(ctx.state_vars.items()):
            tie = table.apply(kernel.OP_IFF, table.var(v.index), self.nodes[name])
            frame = table.apply(kernel.OP_AND, tie, frame)
        levels = [v.index for v in ctx.input_vars.values()]
        return bddm.Bdd(ctx.universe, table.and_exists(self.accept_node, frame, levels))


class SymbolicRun:
    def __init__(self, ctx: SymbolicContext, points, starts: int):
        self.ctx = ctx
        self.points = points  # list of SymbolicState, index = prefix length
        self.starts = starts  # N: the number of initial states
        self._accepted_at = {}  # point index -> wmc(accept), computed once

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

    def accepted(self, point="end") -> Fraction:
        """wmc(accept) at `point`: N times the probability of surviving to it."""
        index = self._index(point)
        mass = self._accepted_at.get(index)
        if mass is None:
            mass = self._accepted_at[index] = self.points[index].accept.wmc(self.ctx.weights)
        return mass

    def survival(self, point="end") -> Fraction:
        return self.accepted(point) / self.starts


def _run_block(ctx: SymbolicContext, nodes: dict, accept: int, body):
    """(f, accept) after `body`, from (f, accept); `nodes` is not changed."""
    table = ctx.universe.table
    for stmt in body:
        if isinstance(stmt, bern.PAssign):
            if stmt.targets:
                new = dict(nodes)
                for name, e in zip(stmt.targets, stmt.exprs):
                    new[name] = ctx.read(e, nodes)
                nodes = new
        elif isinstance(stmt, (bern.BObserve, bern.BAssume)):
            accept = table.apply(kernel.OP_AND, accept, ctx.read(stmt.cond, nodes))
        elif isinstance(stmt, bern.BIf):
            guard = ctx.read(stmt.cond, nodes)
            then_nodes, then_accept = _run_block(ctx, nodes, accept, stmt.then)
            else_nodes, else_accept = _run_block(ctx, nodes, accept, stmt.els)
            merge = _merger(table, guard)
            nodes = {name: merge(u, else_nodes[name]) for name, u in then_nodes.items()}
            accept = merge(then_accept, else_accept)
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return nodes, accept


def _merger(table, guard):
    """``merge(x, y)``: the node of (guard & x) | (~guard & y)."""
    apply, unguard = table.apply, table.not_(guard)

    def merge(x, y):
        if x == y:
            return x
        return apply(kernel.OP_OR, apply(kernel.OP_AND, guard, x), apply(kernel.OP_AND, unguard, y))

    return merge


def _undeclared(what, expr, declared) -> UniverseError:
    """The error for `expr`, whose read failed on a name outside
    `declared`: it names each such name, found only now."""
    read = []
    bern.fold(expr, lambda e, _: type(e) is bern.BVar and read.append(e.name))
    unknown = ", ".join(n for n in dict.fromkeys(read) if n not in declared)
    return UniverseError(f"the {what} reads {unknown}, which the program does not declare")


def run_symbolic(program: bern.BernProgram, init=None) -> SymbolicRun:
    """(f, accept) at every top-level prefix point, starting from `init`.

    `init` is None for T, a state dict, or a flip-free BERN expression over
    the program variables (callers with a theory in hand pass the predicate
    invariant, through ``builder.formula_to_expr``, to exclude infeasible
    inputs).  An init that no state satisfies raises
    ``ConditionOnImpossibleError``, and one that reads a variable the
    program does not declare, or a point that leaves a declared one out,
    ``UniverseError``.  The universe is made here, so no caller holds a
    Bdd over it.
    """
    ctx = SymbolicContext(program)
    table = ctx.universe.table
    decls = ctx.program.decls
    inputs = {n: table.var(v.index) for n, v in ctx.input_vars.items()}
    starts = 2 ** len(decls)
    accept = kernel.TRUE
    if init is None:
        nodes = inputs
    elif isinstance(init, bern.BernExpr):
        nodes = inputs
        try:
            accept = _read(table, init, inputs.__getitem__)
        except KeyError:
            raise _undeclared("init", init, inputs) from None
        starts = bddm.Bdd(ctx.universe, accept).count_models(ctx.input_vars.values())
    elif isinstance(init, dict):
        missing = [n for n in decls if n not in init]
        if missing:
            raise UniverseError(f"the init gives no value to {', '.join(missing)}")
        nodes = {n: kernel.TRUE if init[n] else kernel.FALSE for n in decls}
    else:
        raise TypeError(f"bad init {init!r}")
    if starts == 0:
        raise ConditionOnImpossibleError("the init holds in no state")
    points = [SymbolicState(ctx, nodes, accept)]
    for stmt in ctx.program.body:
        nodes, accept = _run_block(ctx, nodes, accept, (stmt,))
        points.append(SymbolicState(ctx, nodes, accept))
    return SymbolicRun(ctx, points, starts)


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

    The marginal is P(event | survives) unless ``normalized=False``, which
    gives P(event and survives).  `event` is a plain Boolean expression
    over the program variables; one that reads a name the program does
    not declare raises ``UniverseError``.
    """
    if isinstance(program_or_run, SymbolicRun):
        run = program_or_run
    else:
        run = run_symbolic(program_or_run, init=init)
    ctx = run.ctx
    state = run.at(point)
    table = ctx.universe.table
    try:
        event_node = ctx.read(event, state.nodes)
    except KeyError:
        raise _undeclared("event", event, state.nodes) from None
    holds = table.apply(kernel.OP_AND, state.accept_node, event_node)
    mass = bddm.Bdd(ctx.universe, holds).wmc(ctx.weights)
    accepted = run.accepted(point)
    survival = accepted / run.starts
    if not normalized:
        return QueryResult(point, bern.expr_text(event), mass / run.starts, survival)
    if accepted == 0:
        raise ConditionOnImpossibleError("no surviving executions at this point")
    return QueryResult(point, bern.expr_text(event), mass / accepted, survival)
