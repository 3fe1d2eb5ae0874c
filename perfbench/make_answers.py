"""Recompute the stored expected answers from the oracles.

    python3 perfbench/make_answers.py --seeds 0-10

Writes ``answers/<workload>.json``: per seed and problem, the oracle's
answers and a key over the program they were computed on.  ``run.py``
uses an entry only while its key still matches, and otherwise computes
the answer afresh.  For ``fit-query`` the program is the one ``bernabs
fit`` writes; the engine never runs here.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, run, workloads  # noqa: E402


def answers_for(workload, seed):
    entries = {}
    for problem in workloads.inputs(workload, seed):
        out = run.oracle_outcome(workload, problem)
        if out is None:
            continue
        entries[problem.name] = {
            "key": run.oracle_key(workload, problem, out),
            "answers": [oracle.answer_text(a) for a in run.compute_expected(workload, problem, out)],
        }
    return entries


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.ANSWERS.mkdir(exist_ok=True)
    for workload in ("fit-query", "infer"):
        seeds = []
        for seed in range(lo, hi + 1):
            rows = [f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in answers_for(workload, seed).items()]
            seeds.append(f'"{seed}": {{\n' + ",\n".join(rows) + "\n}")
        path = run.ANSWERS / f"{workload}.json"
        path.write_text("{\n" + ",\n".join(seeds) + "\n}\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
