"""Per-layer spans and counts, recorded around bernabs' public entry points.

``Tracer`` replaces each entry point below with a wrapper for the duration
of a ``with`` block and puts the originals back on exit.  A span's self
time is its duration minus the time covered by its child spans; a layer's
``time_s`` is the sum of its spans' self times, so nested calls within one
layer are not counted twice.  Spans are folded into per-layer totals as
they close instead of being kept, because the check workload opens one
for every ``alpha`` call.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter

from bernabs import bern, builder, engine, parsing, theorems, theory
from bernabs import concrete as cc
from bernabs.domain import PredicateList

PARSERS = ("parse_concrete", "parse_preds", "parse_bern", "parse_event")
CHECKS = ("check_sound_nondet", "check_sound_prob", "check_invariance")
FAILURE_KINDS = ("RecursionError", "normalisation", "wrong_answer", "counterexample", "other_exception")

# (metric name, unit): every per-layer metric a traced run reports.  Times
# are self times summed over the layer's spans.  theory.memo_hit_share:
# queries answered without sweeping a state.  domain.feasible_share: feasible
# minterms over 2^n, over every predicate list.  engine.peak_nodes: largest
# node table; engine.delta_nodes: final Δ sizes, summed over runs.
# engine.*.point and engine.*.wide split the engine's time by the shape of
# the init: a point state, or a wider one (T, or a predicate invariant).
# bern.interp_exact_runs: start states times flip assignments enumerated.
# check.states_checked and check.invariance_pairs: from the outermost
# reports' stats.  trace.overhead_s: traced minus untraced time of the
# same problems, each solved both ways back to back.  failures.*: failed
# operations by kind.
METRICS = (
    ("parsing.time_s", "s"),
    ("theory.sat_calls", "count"),
    ("theory.entails_calls", "count"),
    ("theory.memo_hit_share", "ratio"),
    ("theory.states_swept", "count"),
    ("theory.time_s", "s"),
    ("domain.cube_queries", "count"),
    ("domain.feasible_share", "ratio"),
    ("domain.time_s", "s"),
    ("domain.alpha_calls", "count"),
    ("domain.gamma_lower_calls", "count"),
    ("builder.time_s", "s"),
    ("builder.sites.branch", "count"),
    ("builder.sites.assign", "count"),
    ("builder.sites.draw", "count"),
    ("builder.sites.structural", "count"),
    ("builder.bern_stmts", "count"),
    ("fit.time_s", "s"),
    ("fit.sites_flagged", "count"),
    ("engine.run_s", "s"),
    ("engine.query_s", "s"),
    ("engine.run_s.point", "s"),
    ("engine.query_s.point", "s"),
    ("engine.run_s.wide", "s"),
    ("engine.query_s.wide", "s"),
    ("engine.peak_nodes", "count"),
    ("engine.delta_nodes", "count"),
    ("bern.interp_exact_s", "s"),
    ("bern.interp_exact_runs", "count"),
    ("bern.interp_nondet_s", "s"),
    ("check.time_s", "s"),
    ("check.states_checked", "count"),
    ("check.invariance_pairs", "count"),
    ("concrete.eval_det_calls", "count"),
    ("concrete.eval_dist_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"failures.{kind}", "count") for kind in FAILURE_KINDS)


class Tracer:
    def __init__(self):
        self.self_time = Counter()  # layer -> seconds
        self.counts = Counter()
        self.peak_nodes = 0
        self.feasible = [0, 0]  # feasible minterms, all minterms
        self._stack = []  # [layer, seconds covered by children]
        self._patches = []
        self._seen_preds = weakref.WeakSet()
        self._run_shape = weakref.WeakKeyDictionary()  # SymbolicRun -> "point" | "wide"
        self._shape = None
        self._swept_before = 0

    # --- wrapping -------------------------------------------------------

    def _wrap(self, owner, attr, layer, after=None, before=None):
        """Wrap `owner.attr`; `layer` is a name, or a function of the call's (args, kw)."""
        fn = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if before is not None:
                before()
            parent = stack[-1] if stack else None
            frame = [layer(args, kw) if callable(layer) else layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.self_time[frame[0]] += (t1 - t0) - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
            if after is not None:
                after(result, args, parent[0] if parent else None)
                if parent is not None:
                    parent[1] += time.perf_counter() - t1
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def targets(self):
        """(owner, attribute, layer, after, before) for every wrapped entry point."""
        out = [(parsing, attr, "parsing", None, None) for attr in PARSERS]
        for attr, name in (("satisfiable", "sat_calls"), ("entails", "entails_calls")):
            out.append((theory.TheoryContext, attr, "theory", self._theory_call(name), self._mark))
        out += [(PredicateList, attr, "domain", None, None) for attr in ("strongest_implied", "weakest_sufficient", "invariant_formula")]
        out += [
            (PredicateList, "minterms", "domain", self._minterms, None),
            (PredicateList, "alpha", "domain", self._count("domain.alpha_calls"), None),
            (PredicateList, "gamma_lower", "domain", self._count("domain.gamma_lower_calls"), None),
            (builder, "abstract_program", "builder", self._abstracted, None),
            (theorems, "fit_parameters", "fit", self._fitted, None),
            (engine, "run_symbolic", self._run_layer, self._ran, None),
            (engine, "query", self._query_layer, self._queried, None),
            (bern, "interp_exact", "bern.interp_exact", self._interp_exact, None),
            (bern, "interp_nondet", "bern.interp_nondet", None, None),
        ]
        out += [(theorems, attr, "check", self._checked, None) for attr in CHECKS]
        out += [
            (cc, "eval_det", "concrete.eval_det", self._count("concrete.eval_det_calls"), None),
            (cc, "eval_dist", "concrete.eval_dist", None, None),
        ]
        return out

    def __enter__(self):
        for owner, attr, layer, after, before in self.targets():
            self._wrap(owner, attr, layer, after, before)
        self._wrap_states()
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        return False

    def _wrap_states(self):
        fn = theory.TheoryContext.states
        counts = self.counts

        @functools.wraps(fn)
        def states(ctx):
            for key in fn(ctx):
                counts["theory.states_swept"] += 1
                yield key

        self._patches.append((theory.TheoryContext, "states", fn))
        theory.TheoryContext.states = states

    # --- counts taken at the boundaries ------------------------------------

    def _count(self, name):
        def after(result, args, parent):
            self.counts[name] += 1

        return after

    def _mark(self):
        self._swept_before = self.counts["theory.states_swept"]

    def _theory_call(self, name):
        def after(result, args, parent):
            self.counts[f"theory.{name}"] += 1
            # a memoized answer sweeps no state
            if self.counts["theory.states_swept"] == self._swept_before:
                self.counts["theory.memo_hits"] += 1
            if parent == "domain":
                self.counts["domain.cube_queries"] += 1

        return after

    def _minterms(self, result, args, parent):
        preds = args[0]
        if preds not in self._seen_preds:
            self._seen_preds.add(preds)
            self.feasible[0] += sum(1 for m in result if m.feasible)
            self.feasible[1] += len(result)

    def _abstracted(self, result, args, parent):
        aprog, sites = result
        for site in sites:
            self.counts[f"builder.sites.{site.role}"] += 1
        self.counts["builder.bern_stmts"] += sum(1 for _ in bern.walk_stmts(aprog.body))

    def _fitted(self, result, args, parent):
        self.counts["fit.sites_flagged"] += sum(1 for s in result[1] if s.flagged)

    def _run_layer(self, args, kw):
        init = kw["init"] if "init" in kw else args[1] if len(args) > 1 else None
        self._shape = "point" if isinstance(init, dict) else "wide"
        return f"engine.run.{self._shape}"

    def _query_layer(self, args, kw):
        return "engine.query." + self._run_shape.get(args[0], "wide")

    def _ran(self, run, args, parent):
        self._run_shape[run] = self._shape  # set by _run_layer as this call began
        self.counts["engine.delta_nodes"] += run.at("end").delta.size()
        self.peak_nodes = max(self.peak_nodes, len(run.ctx.universe.table))

    def _queried(self, result, args, parent):
        run = args[0]
        if isinstance(run, engine.SymbolicRun):
            self.peak_nodes = max(self.peak_nodes, len(run.ctx.universe.table))

    def _interp_exact(self, result, args, parent):
        program = args[0]
        dist = args[1] if len(args) > 1 else None
        starts = len(dist) if dist is not None else 2 ** len(program.decls)
        self.counts["bern.interp_exact_runs"] += starts << len(program.flip_sites())

    def _checked(self, report, args, parent):
        if parent != "check":
            self.counts["check.states_checked"] += report.stats.get("checked", 0)
            self.counts["check.invariance_pairs"] += report.stats.get("pairs", 0)

    # --- results --------------------------------------------------------

    def metrics(self):
        c, t = self.counts, self.self_time
        queries = c["theory.sat_calls"] + c["theory.entails_calls"]
        out = {
            "parsing.time_s": t["parsing"],
            "theory.memo_hit_share": c["theory.memo_hits"] / queries if queries else 0.0,
            "theory.time_s": t["theory"],
            "domain.feasible_share": self.feasible[0] / self.feasible[1] if self.feasible[1] else 0.0,
            "domain.time_s": t["domain"],
            "builder.time_s": t["builder"],
            "fit.time_s": t["fit"],
            "engine.run_s": t["engine.run.point"] + t["engine.run.wide"],
            "engine.query_s": t["engine.query.point"] + t["engine.query.wide"],
            "engine.peak_nodes": self.peak_nodes,
            "bern.interp_exact_s": t["bern.interp_exact"],
            "bern.interp_nondet_s": t["bern.interp_nondet"],
            "check.time_s": t["check"],
            "concrete.eval_dist_s": t["concrete.eval_dist"],
        }
        for shape in ("point", "wide"):
            out[f"engine.run_s.{shape}"] = t[f"engine.run.{shape}"]
            out[f"engine.query_s.{shape}"] = t[f"engine.query.{shape}"]
        for name, _ in METRICS:
            out.setdefault(name, c[name])
        return out
