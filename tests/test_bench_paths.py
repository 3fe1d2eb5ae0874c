"""The benchmark's entry points still exist and still answer.

For each workload, the first problem of seed 0 runs through the solver the
benchmark times, with the tracer's wrappers installed, so a rename in
`bernabs` that breaks `perfbench/` fails here and not only in a benchmark
run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bernabs import bern, concrete, engine, kernel, theory  # noqa: E402
from perfbench import pipeline, trace, workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_problem_answers_every_operation(workload):
    problem = workloads.inputs(workload, 0)[0]
    out = pipeline.Outcome()
    tracer = trace.Tracer()
    with tracer:
        pipeline.SOLVERS[workload](pipeline.parse(workload, problem), out)
    assert len(out.answers) == pipeline.operations(workload, problem)
    assert tracer.metrics()


def test_check_reports_of_the_first_problem_are_pinned():
    """The three `CheckReport.to_json()` of `check` seed 0 problem 0, as
    the checks gave them before they read one transition kernel per
    program."""
    problem = workloads.inputs("check", 0)[0]
    out = pipeline.Outcome()
    pipeline.SOLVERS["check"](pipeline.parse("check", problem), out)
    pinned = json.loads((ROOT / "tests" / "golden" / "check_seed0_problem0.json").read_text())
    assert [r.to_json() for r in out.answers] == pinned


def test_check_makes_one_kernel_per_abstraction_and_one_sweep(monkeypatch):
    """`check` seed 0 problem 0 makes one engine run for each of its two
    abstractions and runs the concrete program once per joint state: the
    soundness and invariance checks share them through the domain."""
    problem = workloads.inputs("check", 0)[0]
    parsed = pipeline.parse("check", problem)
    calls = []
    for module, name in ((engine, "run_symbolic"), (concrete, "eval_det")):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, real=real, **k: calls.append(name) or real(*a, **k)
        )
    pipeline.SOLVERS["check"](parsed, pipeline.Outcome())
    states = len(list(theory.TheoryContext.of_program(parsed[0]).states()))
    assert (calls.count("run_symbolic"), calls.count("eval_det")) == (2, states)


def test_infer_quantifies_nothing(monkeypatch):
    """`infer` seed 0 problem 0 runs its program from two inits and reads
    every answer off the variables' functions: no `exists` and no
    `and_exists`, which only the relational view Δ takes."""
    program, point = pipeline.parse("infer", workloads.inputs("infer", 0)[0])
    assert any(isinstance(s, bern.BIf) for s in bern.walk_stmts(program.body))
    calls = []
    for name in ("exists", "and_exists"):
        real = getattr(kernel.NodeTable, name)
        monkeypatch.setattr(
            kernel.NodeTable, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
        )
    out = pipeline.Outcome()
    pipeline.SOLVERS["infer"]((program, point), out)
    assert len(out.answers) == 2 * len(program.decls)
    assert calls == []
    run = engine.run_symbolic(program)
    assert not run.at("end").delta.is_false
    assert calls == ["and_exists"]
