"""Translate a concrete program plus predicates into a BERN program.

Branches follow the two-step recipe: compute the strongest formulas
implied by the guard and its negation, then either branch on ``*`` with
``assume`` statements (non-deterministic mode) or fold the choice into the
guard ``!beta || (alpha && flip(theta))`` (probabilistic mode).
Assignments and uniform draws share one rule: every predicate mentioning
the written variable is updated simultaneously through ``choose(t, f)``,
where t and f are the pre-states that force it true and false, and the
choice left over becomes a flip (or a star).  An assignment's pair comes
from weakest preconditions; a draw's reads no pre-state, so it is a pair
of constants and an entailed polarity is emitted as a constant (a draw
met again is answered by the theory's memo).  A site's context holds the
predicate literals known there: a branch adds those its guard implies,
and a write, or an `if` that may write, drops those it makes stale.

Invariant enforcement comes in two styles.  With `observe` the builder
emits observe(I) (assume(I) in non-deterministic mode) right after each
parallel assignment it emits, the empty one of an update that no
predicate mentions included, so the program is built once.  `structural`
rewrites each assignment into a sequential per-predicate chain whose
updates branch on the values already chosen, so that every reachable
joint state is a feasible minterm and no observe is needed.  Each update
is read off one admissible relation between pre- and post-state predicate
values, which is also its care set; pre-state reads of already-updated
predicates go through snapshot variables.  The relation is one formula
over the invariant and the (t, f) pairs, so no minterm is enumerated.

Flips whose value the canonical form does not depend on are never
allocated, which is what turns `a = unif [0, 10)` with predicate a<5 into
a plain `{a<5} = flip(theta)` and an exactly-representable branch guard
into a flip-free condition.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import concrete as cc
from bernabs import kernel
from bernabs.domain import PredicateList
from bernabs.theory import wp_subst

MODES = ("nondet", "prob")
INVARIANT_STYLES = ("none", "observe", "structural")
PARAM_POLICIES = ("symbolic", "fixed", "fit")

SNAPSHOT_SUFFIX = "@pre"


@dataclass(frozen=True)
class ParamPolicy:
    kind: str
    value: Fraction | None = None

    def __post_init__(self):
        if self.kind not in PARAM_POLICIES:
            raise ValueError(f"unknown parameter policy {self.kind!r}")
        if self.kind == "fixed":
            if self.value is None or not 0 <= self.value <= 1:
                raise ValueError("fixed policy needs a rational in [0, 1]")
        elif self.value is not None:
            raise ValueError(f"{self.kind} policy takes no value")

    @classmethod
    def symbolic(cls):
        return cls("symbolic")

    @classmethod
    def fixed(cls, value):
        return cls("fixed", Fraction(value))

    @classmethod
    def fit(cls):
        return cls("fit")


@dataclass(frozen=True)
class AbstractionConfig:
    mode: str = "nondet"
    invariant_style: str = "observe"
    params: ParamPolicy = field(default_factory=ParamPolicy.symbolic)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.invariant_style not in INVARIANT_STYLES:
            raise ValueError(f"unknown invariant style {self.invariant_style!r}")
        if self.invariant_style == "structural" and self.mode != "prob":
            raise ValueError("structural invariants require probabilistic mode")


@dataclass
class FlipSite:
    """A flip of the abstraction: it decides where `free` holds, and its
    True there stands for `event`, so theta = P(event | free, context).

    `free` is a Bdd over the n predicates read before the statement
    (levels 0..n-1) and, at a structural site, after it (levels n..2n-1).
    `event` is a branch site's guard, and any other site's predicate read
    after the statement.
    """

    site: int
    role: str  # 'branch' | 'assign' | 'draw' | 'structural'
    path: tuple
    loc: int
    predicate: str | None
    context: tuple  # ((label, polarity), ...) literals known at the site
    theta: object  # Fraction | str
    flagged: bool = False
    free: bddm.Bdd | None = field(default=None, repr=False, compare=False)
    event: cc.Cond | None = field(default=None, repr=False, compare=False)

    def to_json(self):
        if isinstance(self.theta, str):
            theta = {"symbolic": self.theta}
        else:
            theta = {"num": self.theta.numerator, "den": self.theta.denominator}
        return {
            "site": self.site,
            "role": self.role,
            "path": list(self.path),
            "line": self.loc,
            "predicate": self.predicate,
            "context": [lbl if pol else "!" + lbl for lbl, pol in self.context],
            "theta": theta,
            "flagged": self.flagged,
        }


class FlipSiteTable:
    def __init__(self, sites):
        self.sites = list(sites)

    def __len__(self):
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def by_id(self, site):
        for s in self.sites:
            if s.site == site:
                return s
        raise KeyError(site)

    def to_json(self):
        return [s.to_json() for s in self.sites]

    def dumps(self):
        return json.dumps(self.to_json(), indent=2) + "\n"


class Abstractor:
    """One-shot translator; create per (predicates, config) pair."""

    def __init__(self, preds: PredicateList, config: AbstractionConfig):
        self.preds = preds
        self.ctx = preds.ctx
        self.config = config
        self.sites = []
        self._flip_counter = itertools.count()
        self._star_counter = itertools.count()
        self.aux_decls = []
        self._inv = preds.invariant_formula()
        # the statement that filters: observe in probabilistic mode, assume in nondet
        self._filter = bern.BObserve if config.mode == "prob" else bern.BAssume
        self._inv_expr = formula_to_expr(self._inv) if config.invariant_style == "observe" else None

    # --- small helpers ---------------------------------------------------

    def _alloc_leaf(self, role, path, loc, predicate, context, free, event):
        """Fresh flip (probabilistic) or star (non-deterministic) leaf."""
        if self.config.mode == "prob":
            site = next(self._flip_counter)
            params = self.config.params
            theta = params.value if params.kind == "fixed" else f"theta{site}"
            self.sites.append(
                FlipSite(site, role, path, loc, predicate, tuple(context), theta,
                         free=free, event=event)
            )
            return bern.Flip(site, theta)
        return bern.Star(next(self._star_counter))

    def _smallest_rep(self, b: bddm.Bdd, care: bddm.Bdd) -> bddm.Bdd:
        """Smallest of the natural representatives of b's care-equivalence
        class; states outside `care` are don't-cares."""
        candidates = (b, b & care, b | ~care)
        sizes = [c.size() for c in candidates]
        return candidates[sizes.index(min(sizes))]

    def _guarded_value(self, force_true: bddm.Bdd, force_false: bddm.Bdd, leaf_factory, care):
        """value = force_true OR (NOT force_false AND <leaf>); the leaf is
        elided when the value cannot depend on it within the care set.
        `leaf_factory` gets the Bdd where the leaf decides, NOT force_true
        AND NOT force_false."""
        free = ~force_true & ~force_false
        force_true = self._smallest_rep(force_true, care)
        force_false = self._smallest_rep(force_false, care)
        if (care & free).is_false:
            return formula_to_expr(force_true)
        value = leaf_factory(free)
        if not force_false.is_false:  # a constraint against the leaf
            value = bern.BAnd(formula_to_expr(~force_false), value)
        if force_true.is_false:
            return value
        return bern.BOr(formula_to_expr(force_true), value)

    def _implied_literals(self, b: bddm.Bdd):
        """Predicate literals entailed by b on feasible states."""
        scope = b & self._inv
        out = []
        for label in self.preds.labels:
            v = bddm.var_bdd(self.preds.universe, self.preds.var(label))
            if (scope & ~v).is_false:
                out.append((label, True))
            elif (scope & v).is_false:
                out.append((label, False))
        return tuple(out)

    def _mentioning(self, name):
        return [i for i, names in enumerate(self.preds.reads) if name in names]

    def _after(self, stmt, context):
        """`context` less the literals that the writes in `stmt`, or in its
        blocks, make stale: those of the predicates that read a written
        variable."""
        written = {s.name for s in bern.walk_stmts((stmt,)) if isinstance(s, (cc.Assign, cc.Draw))}
        stale = {self.preds.labels[i] for name in written for i in self._mentioning(name)}
        return tuple(lit for lit in context if lit[0] not in stale)

    # --- branch abstraction -----------------------------------------------

    def branch_parts(self, guard: cc.Cond, path=(), loc=0, context=()):
        """alpha/beta Bdds plus the mode-specific branch scaffolding.

        Returns (cond_expr, then_prefix, else_prefix, then_ctx, else_ctx):
        non-deterministic mode branches on * with assume prefixes, the
        probabilistic mode folds the flip into the returned guard.
        """
        alpha = self.preds.strongest_implied(guard)
        beta = self.preds.strongest_implied(cc.CNot(guard))
        if self.config.mode == "nondet":
            cond = bern.Star(next(self._star_counter))
            then_prefix = (bern.BAssume(formula_to_expr(alpha), loc),)
            else_prefix = (bern.BAssume(formula_to_expr(beta), loc),)
            then_ctx = context + self._implied_literals(alpha)
            else_ctx = context + self._implied_literals(beta)
            return cond, then_prefix, else_prefix, then_ctx, else_ctx

        # if(!beta || (alpha && flip(theta))) { ... } else { ... }
        cond = self._guarded_value(
            ~beta,
            ~alpha,
            lambda free: self._alloc_leaf("branch", path, loc, None, context, free, guard),
            care=self._inv,
        )
        then_ctx = context + self._implied_literals(alpha | ~beta)
        else_ctx = context + self._implied_literals(beta)
        return cond, (), (), then_ctx, else_ctx

    def abstract_branch(self, guard: cc.Cond, then=(), els=(), path=(), loc=0, context=()):
        cond, then_prefix, else_prefix, _, _ = self.branch_parts(guard, path, loc, context)
        return bern.BIf(cond, then_prefix + tuple(then), else_prefix + tuple(els), loc)

    # --- assignment and draw abstraction --------------------------------------

    def choose_pair(self, stmt: cc.Assign, pred_index: int):
        """(t, f) for predicate i under x = e: the weakest sufficient Bdds
        for the post-assignment truth and falsity of the predicate."""
        p = self.preds.conds[pred_index]
        t = self.preds.weakest_sufficient(wp_subst(stmt.name, stmt.expr, p))
        f = self.preds.weakest_sufficient(wp_subst(stmt.name, stmt.expr, cc.CNot(p)))
        return t, f

    def _pair(self, stmt, pred_index):
        """(t, f) for predicate i after an assignment or a draw: the Bdds of
        the pre-states where it is forced true and forced false.

        A draw's pair reads no pre-state: (T, F) when every value the draw
        can give makes the predicate true, (F, T) when none does, (F, F)
        when both polarities occur.  A repeated draw asks the theory the
        same queries, which its memo answers."""
        if isinstance(stmt, cc.Assign):
            return self.choose_pair(stmt, pred_index)
        x, p = cc.IntVar(stmt.name), self.preds.conds[pred_index]
        draw = cc.CAnd(cc.Cmp("<=", cc.IntConst(stmt.lo), x), cc.Cmp("<", x, cc.IntConst(stmt.hi)))
        yes, no = bddm.true_bdd(self.preds.universe), bddm.false_bdd(self.preds.universe)
        if self.ctx.entails(draw, p):
            return yes, no
        if not self.ctx.satisfiable(cc.CAnd(draw, p)):
            return no, yes
        return no, no

    def abstract_update(self, stmt, path=(), context=()) -> bern.PAssign:
        """x = e or x = unif [lo, hi)  ->  parallel `{p_i} = choose(t_i, f_i)`
        over the predicates mentioning x, desugared per mode."""
        role = "assign" if isinstance(stmt, cc.Assign) else "draw"
        targets = []
        exprs = []
        for i in self._mentioning(stmt.name):
            label = self.preds.labels[i]
            t, f = self._pair(stmt, i)
            value = self._guarded_value(
                t,
                f,
                lambda free: self._alloc_leaf(
                    role, path, stmt.loc, label, context, free, self.preds.conds[i]
                ),
                care=self._inv,
            )
            targets.append(label)
            exprs.append(value)
        return bern.PAssign(tuple(targets), tuple(exprs), stmt.loc)

    # --- structurally dependent construction --------------------------------------

    def admissible_relation(self, stmt, targets, scratch) -> bddm.Bdd:
        """The admissible relation of `stmt`, which updates `targets`, over
        `scratch`: the predicates' pre-values at levels 0..n-1, their
        post-values at n..2n-1.  It is one formula, with no minterm
        enumerated: I(pre) & I(cur) & AND_untouched (cur_j <-> pre_j)
        & AND_targets ((t_j(pre) -> cur_j) & (!t_j(pre) & f_j(pre) -> !cur_j)).
        So cur is feasible, keeps pre's untouched values and takes every
        polarity the (t, f) pairs force at pre, t before f.  Each Bdd over
        the predicates moves into `scratch` at its own levels plus an offset.
        """
        n = len(self.preds)
        pre, cur = scratch.variables[:n], scratch.variables[n:]

        def moved(b, offset):
            table = b.universe.table
            ref = table.fold(
                b.ref,
                lambda w, level, lo, hi: scratch.table.mk(level + offset, lo, hi),
                table.num_vars,
                {},
            )
            return bddm.Bdd(scratch, ref)

        admissible = moved(self._inv, 0) & moved(self._inv, n)
        for j in range(n):
            now = bddm.var_bdd(scratch, cur[j])
            if j in targets:
                t, f = (moved(b, 0) for b in self._pair(stmt, j))
                admissible = admissible & t.implies(now) & (~t & f).implies(~now)
            else:
                admissible = admissible & now.iff(bddm.var_bdd(scratch, pre[j]))
        return admissible

    def build_structural(self, stmt, path=(), context=()) -> tuple:
        """Sequential per-predicate updates whose control flow keeps every
        reachable joint state feasible, with no observe statements.

        Updating in declaration order, a predicate is forced wherever only
        one polarity extends the already-chosen prefix inside the
        admissible relation (`admissible_relation`); otherwise it flips.
        The (pre, prefix) pairs the relation never reaches are don't-cares,
        so no flip decides only there.  Pre-state reads of already-updated
        predicates go through snapshot variables, preserving the
        parallel-assignment reads of the original statement.
        """
        target_idx = self._mentioning(stmt.name)
        if not target_idx:
            return (bern.PAssign((), (), stmt.loc),)
        labels = self.preds.labels
        n = len(labels)
        # scratch universe: the pre-values of all predicates, then their
        # post-values, the levels a FlipSite's `free` reads
        scratch = bddm.make_universe(
            [(f"{side} {lbl}", None) for side in ("pre", "cur") for lbl in labels]
        )
        cur = scratch.variables[n:]
        admissible = self.admissible_relation(stmt, target_idx, scratch)

        updates = []
        needed_snapshots = set()
        for k, i in enumerate(target_idx):
            hidden = [cur[j] for j in range(n) if j not in target_idx[:k]]
            now = bddm.var_bdd(scratch, cur[i])
            ext_true = admissible.and_exists(now, hidden)
            ext_false = admissible.and_exists(~now, hidden)
            value = self._guarded_value(
                ext_true & ~ext_false,
                ext_false & ~ext_true,
                lambda free: self._alloc_leaf(
                    "structural", path, stmt.loc, labels[i], context, free, self.preds.conds[i]
                ),
                care=ext_true | ext_false,
            )
            value = _substitute_structural_vars(
                value, labels, target_idx[:k], needed_snapshots
            )
            updates.append(bern.PAssign((labels[i],), (value,), stmt.loc))

        stmts = []
        if needed_snapshots:
            snap_order = [labels[j] for j in sorted(needed_snapshots)]
            for lbl in snap_order:
                name = lbl + SNAPSHOT_SUFFIX
                if name not in self.aux_decls:
                    self.aux_decls.append(name)
            stmts.append(
                bern.PAssign(
                    tuple(lbl + SNAPSHOT_SUFFIX for lbl in snap_order),
                    tuple(bern.BVar(lbl) for lbl in snap_order),
                    stmt.loc,
                )
            )
        stmts.extend(updates)
        return tuple(stmts)

    # --- observes and whole programs ------------------------------------------

    def abstract_observe(self, stmt: cc.Observe, context=()) -> bern.BernStmt:
        return self._filter(formula_to_expr(self.preds.strongest_implied(stmt.cond)), stmt.loc)

    def abstract_block(self, body, path, context):
        out = []
        for idx, stmt in enumerate(body):
            at = path + (idx,)
            if isinstance(stmt, (cc.Assign, cc.Draw)):
                if self.config.invariant_style == "structural":
                    out.extend(self.build_structural(stmt, at, context))
                else:
                    out.append(self.abstract_update(stmt, at, context))
                    if self._inv_expr is not None:
                        out.append(self._filter(self._inv_expr, stmt.loc))
            elif isinstance(stmt, cc.Observe):
                out.append(self.abstract_observe(stmt, context))
            elif isinstance(stmt, cc.If):
                cond, tp, ep, tctx, ectx = self.branch_parts(
                    stmt.cond, at, stmt.loc, context
                )
                then_body = tp + self.abstract_block(stmt.then, at + ("then",), tctx)
                else_body = ep + self.abstract_block(stmt.els, at + ("else",), ectx)
                out.append(bern.BIf(cond, then_body, else_body, stmt.loc))
            else:
                raise TypeError(f"not a statement: {stmt!r}")
            context = self._after(stmt, context)
        return tuple(out)


def _substitute_structural_vars(expr, labels, earlier_targets, needed_snapshots):
    """Rewrite scratch-universe names: `cur X` reads the live variable, and
    `pre X` reads a snapshot when X was already updated (live otherwise)."""
    earlier = {labels[j] for j in earlier_targets}

    def on_node(e):
        if not isinstance(e, bern.BVar) or e.name[:4] not in ("cur ", "pre "):
            return e
        base = e.name[4:]
        if e.name.startswith("pre ") and base in earlier:
            needed_snapshots.add(labels.index(base))
            return bern.BVar(base + SNAPSHOT_SUFFIX)
        return bern.BVar(base)

    return bern.map_expr(expr, on_node)


def formula_to_expr(b: bddm.Bdd) -> bern.BernExpr:
    """The BERN expression of a Bdd, by Shannon expansion of its nodes.

    This is the one place a Bdd becomes BERN; variables keep their labels.
    A node x ? hi : lo becomes x, !x, x && hi, !x && lo, !x || hi, x || lo,
    or (x && hi) || (!x && lo), the first of these its children allow, and
    a node shared in the diagram shares its expression.  It is a visitor
    of ``NodeTable.fold``, so a deep diagram does not recurse.
    """
    table = b.universe.table
    variables = b.universe.variables
    false, true = bern.BFalse(), bern.BTrue()

    def visit(u, level, lo, hi):
        x = bern.BVar(variables[level].label)
        if lo is false and hi is true:
            return x
        if lo is true and hi is false:
            return bern.BNot(x)
        if lo is false:
            return bern.BAnd(x, hi)
        if hi is false:
            return bern.BAnd(bern.BNot(x), lo)
        if lo is true:
            return bern.BOr(bern.BNot(x), hi)
        if hi is true:
            return bern.BOr(x, lo)
        return bern.BOr(bern.BAnd(x, hi), bern.BAnd(bern.BNot(x), lo))

    return table.fold(b.ref, visit, table.num_vars, {kernel.FALSE: false, kernel.TRUE: true})


def abstract_program(
    program: cc.ConcreteProgram, preds: PredicateList, config: AbstractionConfig
):
    """Full pipeline: returns (BernProgram, FlipSiteTable)."""
    if preds.ctx.decls != program.decls:
        raise ValueError("predicate context does not match the program's declarations")
    worker = Abstractor(preds, config)
    body = worker.abstract_block(program.body, (), ())
    decls = preds.labels + tuple(worker.aux_decls)
    return bern.BernProgram(decls, body, config.mode), FlipSiteTable(worker.sites)


def resolve_parameters(program: bern.BernProgram, theta_by_site) -> bern.BernProgram:
    """Substitute concrete flip parameters for symbolic ones."""

    def on_node(e):
        if not isinstance(e, bern.Flip):
            return e
        theta = theta_by_site.get(e.site, e.theta)
        return bern.Flip(e.site, Fraction(theta) if not isinstance(theta, str) else theta)

    return bern.map_program(program, on_node)
