"""Set-up probe: a fresh interpreter imports bernabs and parses a workload's inputs.

Reads ``{"workload": ..., "problems": [...]}`` as JSON on stdin and prints
one line when every input is parsed; ``run.py`` times it from spawn to that
line.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import pipeline  # noqa: E402  (imports bernabs)
from perfbench.workloads import Problem  # noqa: E402

request = json.load(sys.stdin)
for fields in request["problems"]:
    pipeline.parse(request["workload"], Problem(**fields))
print("ready", flush=True)
