"""End-to-end benchmark of the bernabs pipeline.

    python3 perfbench/run.py --workload fit-query --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one problem at a time, single thread):

* ``fit-query``: ``bernabs fit`` then ``bernabs infer --cp --preds`` for
  every predicate's marginal.  The theory and domain layers do most of the
  work; the ladder members cross the 10-predicate ``RecursionError``.
* ``infer``: ``bernabs infer`` on random BERN programs over 12 variables,
  every variable's marginal from a point init and from T.  The engine and
  the BDD kernel do all the work.
* ``check``: ``bernabs abstract`` (nondet, prob fixed=1/2) then
  ``bernabs check``.  The exact interpreter and ``alpha`` do most of it.

Every answer is compared with an oracle that does not use the engine
(``oracle.py``).  A wrong answer counts as the engine's known
normalisation defect only where it is the exact value a model of that
defect predicts; ``correct`` is false for any other.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ones (``trace.py``) with ``--trace 1``.  The lines before it print the
same figures for a reader, with the failure kinds, the output checksum,
the kernel backend and the Python version.

The end-to-end times are seconds at a nominal host speed: each pass
interleaves a fixed reference chunk with its problems (``hostref.py``)
and its times are scaled by how fast that chunk ran, because the shared
host's speed drifts by tens of percent between runs.  The times as
measured are printed on the ``# measured`` line.  Per-layer times are
as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import bernabs  # noqa: E402

if Path(bernabs.__file__).resolve().parent != ROOT / "src" / "bernabs":
    raise ImportError(f"bernabs imported from {bernabs.__file__}, not from this checkout")

from bernabs import bern, parsing  # noqa: E402
from perfbench import hostref, oracle, pipeline, trace, workloads  # noqa: E402

ANSWERS = HERE / "answers"
SETUP_PROBES = 9
SETUP_CHUNKS = 8  # reference chunks before each set-up probe
KNOWN_DEFECTS = {"normalisation", "RecursionError"}


# --- set-up ---------------------------------------------------------------


def setup_seconds(workload, problems, probes=SETUP_PROBES):
    """Median time from spawning a fresh interpreter to its inputs being parsed,
    as measured and scaled to nominal host speed (``hostref``)."""
    request = json.dumps({"workload": workload, "problems": [asdict(p) for p in problems]})
    times, chunks = [], []
    for _ in range(probes):
        chunks += [hostref.timed_chunk() for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            proc.stdin.write(request)
            proc.stdin.close()
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    raw = statistics.median(times)
    return raw, raw * hostref.scale(chunks)


# --- timed passes ------------------------------------------------------------


def solve_one(solve, item):
    """Solve one parsed problem: (outcome, exception type name or None, seconds per init)."""
    out = pipeline.Outcome()
    error = None
    t0 = time.perf_counter()
    try:
        solve(item, out)
    except Exception as exc:  # a failed operation, not a failed run
        # keep the name only: a RecursionError's traceback holds every frame
        error = type(exc).__name__
    seconds = time.perf_counter() - t0
    return out, error, (out.init_s if error is None and out.init_s else [seconds])


def solve_all(workload, parsed):
    """One closed-loop pass: (seconds per init of each problem, outcomes,
    exception type names, seconds of the reference chunk run after each problem)."""
    solve = pipeline.SOLVERS[workload]
    times, outcomes, errors, chunks = [], [], [], []
    for item in parsed:
        out, error, seconds = solve_one(solve, item)
        times.append(seconds)
        outcomes.append(out)
        errors.append(error)
        chunks.append(hostref.timed_chunk())
    return times, outcomes, errors, chunks


def run_passes(workload, problems, parsed, seconds):
    """Repeat whole passes until the next one would overrun `seconds` (at least one).

    Returns the seconds per init of each problem of every pass, the host
    speed scale of every pass (``hostref.scale``), the output checksum of
    every pass, and the first pass's outcomes and errors.
    """
    times, scales, sums, first = [], [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        t, outcomes, errors, chunks = solve_all(workload, parsed)
        last = time.perf_counter() - t0
        times.append(t)
        scales.append(hostref.scale(chunks))
        sums.append(checksum(problems, outcomes, errors))
        first = first or (outcomes, errors)
        if time.perf_counter() - start + last > seconds:
            return times, scales, sums, first


# --- checking ------------------------------------------------------------------


def output_text(answer):
    if answer == pipeline.IMPOSSIBLE:
        return oracle.IMPOSSIBLE
    if isinstance(answer, tuple):
        p, s = answer
        return f"{p.numerator}/{p.denominator} survival {s.numerator}/{s.denominator}"
    return f"{answer.check} {answer.status} {sorted(answer.stats.items())}"


def checksum(problems, outcomes, errors):
    """Digest of every output: BERN texts, site tables, answers and error types."""
    h = hashlib.sha256()
    for problem, out, error in zip(problems, outcomes, errors):
        h.update(problem.name.encode())
        for text in out.texts:
            h.update(text.encode())
        for answer in out.answers:
            h.update(output_text(answer).encode())
        h.update((error or "-").encode())
    return h.hexdigest()[:16]


def _digest(*parts):
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:16]


def oracle_key(workload, problem, out):
    """What the expected answers depend on, so a cached entry can be validated."""
    if workload == "infer":
        return _digest(problem.bern, json.dumps(problem.point, sort_keys=True))
    if problem.family == "chain":
        return _digest(problem.cp, problem.preds)
    return _digest(bern.to_text(out.program), bern.expr_text(out.inits[0]))


def compute_expected(workload, problem, out):
    """Oracle answers, one per query operation, in the order the solver answers."""
    if workload == "infer":
        program, point = out.program, problem.point
        return oracle.exact_marginals(program, point, program.decls) + oracle.exact_marginals(
            program, None, program.decls
        )
    labels = [label for label, _ in parsing.parse_preds(problem.preds)]
    if problem.family == "chain":
        return oracle.chain_marginals(parsing.parse_concrete(problem.cp), parsing.parse_preds(problem.preds))
    return oracle.exact_marginals(out.program, out.inits[0], labels)


def oracle_outcome(workload, problem):
    """The program and init the oracle answers on, without running the engine.

    None when `bernabs fit` raises (the ladder's RecursionError), since then
    no answer is expected.
    """
    parsed = pipeline.parse(workload, problem)
    out = pipeline.Outcome()
    if workload == "infer":
        out.program = parsed[0]
        return out
    try:
        pipeline.fit(parsed, out)
    except RecursionError:
        return None
    return out


def load_cache(workload, seed):
    path = ANSWERS / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(str(seed), {})


def expected_answers(workload, seed, problems, outcomes, cache=None):
    """Expected answers per problem (None where the solver never built a program),
    and the number of stored entries whose program has changed since."""
    cache = load_cache(workload, seed) if cache is None else cache
    out, stale = [], 0
    for problem, outcome in zip(problems, outcomes):
        if workload == "check" or outcome.program is None:
            out.append(None)
            continue
        key = oracle_key(workload, problem, outcome)
        hit = cache.get(problem.name)
        if hit is not None and hit["key"] == key:
            out.append([a if a == oracle.IMPOSSIBLE else Fraction(a) for a in hit["answers"]])
        else:
            stale += hit is not None
            out.append(compute_expected(workload, problem, outcome))
    return out, stale


def defect_answers(workload, problem, out):
    """What the engine's known normalisation defect answers, one per query operation.

    From a point init that is the right answer.  For a chain member, an
    answer is None where the fitted program's exact answer is not the
    concrete one, since a difference there is not the engine's.
    """
    if workload == "infer":
        program = out.program
        return oracle.relational_marginals(program, [problem.point], program.decls) + oracle.relational_marginals(
            program, oracle.states_satisfying(program, None), program.decls
        )
    labels = [label for label, _ in parsing.parse_preds(problem.preds)]
    starts = oracle.states_satisfying(out.program, out.inits[0])
    model = oracle.relational_marginals(out.program, starts, labels)
    if problem.family != "chain":
        return model
    exact = oracle.exact_marginals(out.program, out.inits[0], labels)
    concrete = compute_expected(workload, problem, out)
    return [m if e == c else None for m, e, c in zip(model, exact, concrete)]


def defects(workload, problems, outcomes):
    return [
        None if workload == "check" or out.program is None else defect_answers(workload, problem, out)
        for problem, out in zip(problems, outcomes)
    ]


def classify(workload, problems, outcomes, errors, expected, defect):
    """Failure kind of every failed operation, and the number of operations.

    A wrong answer is the known normalisation defect only where it is the
    very answer ``oracle.relational_marginals`` predicts for it; any other
    wrong answer is ``wrong_answer``.  A RecursionError is the known defect
    only on a problem with 10 or more predicates.
    """
    failures = []
    out_of_range = 0
    attempted = 0
    for problem, out, error, want, model in zip(problems, outcomes, errors, expected, defect):
        ops = pipeline.operations(workload, problem)
        attempted += ops
        if workload == "check":
            failures += ["counterexample" for r in out.answers if not r.ok]
        else:
            for got, exp, known in zip(out.answers, want or (), model or ()):
                p = got if got == pipeline.IMPOSSIBLE else got[0]
                if got != pipeline.IMPOSSIBLE:
                    out_of_range += not all(0 <= x <= 1 for x in got)
                if p == exp and (got == pipeline.IMPOSSIBLE or 0 <= got[1] <= 1):
                    continue
                failures.append("normalisation" if p == known and p != exp else "wrong_answer")
        missing = ops - len(out.answers)
        if missing:
            known = error == "RecursionError" and workload == "fit-query" and ops >= 10
            failures += ["RecursionError" if known else "other_exception"] * missing
    return failures, attempted, out_of_range


# --- the run ---------------------------------------------------------------------


def per_init_medians(times, scales):
    """Median over the passes of every problem's seconds per init, each pass scaled by its scale."""
    return [
        [statistics.median(t * k for t, k in zip(ts, scales)) for ts in zip(*pt)]
        for pt in zip(*times)
    ]


def tail_percentile(values):
    """(p, value) for the highest whole percentile with ten samples above it."""
    p = int(100 * (1 - 10 / len(values)))
    if p <= 50:
        return None
    return p, sorted(values)[int(p * len(values) / 100) - 1]


def traced_pass(workload, problems, parsed):
    """Per-layer metrics of one pass, and its outcomes and errors.

    Each problem is solved untraced and then traced, back to back, so that
    the tracing overhead compares like with like under the same host load.
    """
    tracer = trace.Tracer()
    with tracer:
        for p in problems:
            pipeline.parse(workload, p)
    solve = pipeline.SOLVERS[workload]
    plain_s = traced_s = 0.0
    outcomes, errors = [], []
    for item in parsed:
        t0 = time.perf_counter()
        solve_one(solve, item)
        t1 = time.perf_counter()
        with tracer:
            out, error, _ = solve_one(solve, item)
        traced_s += time.perf_counter() - t1
        plain_s += t1 - t0
        outcomes.append(out)
        errors.append(error)
    values = tracer.metrics()
    values["trace.overhead_s"] = traced_s - plain_s
    return values, outcomes, errors


def run(workload, seed, seconds, traced):
    problems = workloads.inputs(workload, seed)
    setup_raw_s, setup_s = setup_seconds(workload, problems)
    parsed = [pipeline.parse(workload, p) for p in problems]
    expected = defect = None
    if workload == "infer":  # inputs alone fix the answers: compute them before timing
        programs = [pipeline.Outcome(program=item[0]) for item in parsed]
        expected, stale = expected_answers(workload, seed, problems, programs)
        defect = defects(workload, problems, programs)

    times, scales, sums, (outcomes, errors) = run_passes(workload, problems, parsed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if expected is None:
        expected, stale = expected_answers(workload, seed, problems, outcomes)
        defect = defects(workload, problems, outcomes)
    failures, attempted, out_of_range = classify(workload, problems, outcomes, errors, expected, defect)
    # The host runs up to 30% slower in phases of seconds to minutes, so
    # every time is scaled to nominal host speed by the reference chunks of
    # its own pass.  The time of each problem (of each of its inits, for
    # infer) is then the median over the passes.
    per_init = per_init_medians(times, scales)
    per_problem = [sum(t) for t in per_init]
    wall_s = sum(per_problem)
    raw_s = sum(map(sum, per_init_medians(times, [1.0] * len(times))))
    kinds = {k: failures.count(k) for k in sorted(set(failures))}
    # a failure outside the two known defects (engine normalisation from a
    # non-point init, RecursionError at 10+ predicates) is a new wrong answer
    correct = len(set(sums)) == 1 and set(failures) <= KNOWN_DEFECTS

    print(f"# {workload} seed {seed}: {len(problems)} problems, {len(times)} passes, "
          f"kernel backend {bernabs.DEFAULT_BACKEND}, Python {platform.python_version()}")
    tail = tail_percentile(per_problem)
    print(f"# times are scaled to nominal host speed; the passes' scales were {', '.join(f'{k:.3f}' for k in scales)}")
    print(f"# measured: wall_s {raw_s:.4f}  setup_s {setup_raw_s:.4f}  "
          f"(passes took {', '.join(f'{sum(map(sum, t)):.2f}' for t in times)} s)")
    print(f"# wall_s {wall_s:.4f}  "
          f"solve_s.p50 {statistics.median(per_problem):.4f}  "
          + (f"solve_s.p{tail[0]} {tail[1]:.4f}  " if tail else "")
          + f"(n={len(per_problem)})  setup_s {setup_s:.4f}  peak_rss_mb {peak_rss_mb:.1f}")
    if workload == "infer":
        point_s, top_s = (sum(t[i] for t in per_init) for i in (0, 1))
        print(f"# wall_s by init: point {point_s:.4f}  T {top_s:.4f}")
    print(f"# failed_share {len(failures) / attempted:.4f} ({len(failures)} of {attempted} operations); "
          f"failures {kinds}; out_of_range {out_of_range}; stored answers for another program {stale}")
    print(f"# checksum {sums[0]}")

    if not traced:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "solve_s.p50": (statistics.median(per_problem), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        values, traced_outcomes, traced_errors = traced_pass(workload, problems, parsed)
        if checksum(problems, traced_outcomes, traced_errors) != sums[0]:
            correct = False
            print("# traced run gave other outputs than the untraced run")
        for kind in trace.FAILURE_KINDS:
            values[f"failures.{kind}"] = failures.count(kind)
        metrics = {name: (values[name], unit) for name, unit in trace.METRICS}
        print("# " + "  ".join(f"{k} {v:.4g}" for k, (v, _) in metrics.items()))

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
