"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import functools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bernabs import bern, engine, randgen  # noqa: E402
from perfbench import hostref, oracle, pipeline, run, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import Problem  # noqa: E402


def _solve(workload, problems):
    parsed = [pipeline.parse(workload, p) for p in problems]
    times, outcomes, errors, chunks = run.solve_all(workload, parsed)
    return outcomes, errors


def _failures(workload, problems, outcomes, errors):
    expected, _ = run.expected_answers(workload, None, problems, outcomes, cache={})
    defect = run.defects(workload, problems, outcomes)
    return run.classify(workload, problems, outcomes, errors, expected, defect)


def test_oracle_flags_normalisation_from_init_t():
    # `a = flip(1/2)` answers 1 for event a from T, and an empty two-variable
    # program answers 2; the oracle says 1/2 for both
    problems = [
        Problem("flip", "infer", bern="bool a\nbool b\na = flip(1/2)\n", point={"a": False, "b": True}),
        Problem("empty", "infer", bern="bool a\nbool b\n", point={"a": True, "b": False}),
    ]
    outcomes, errors = _solve("infer", problems)
    assert outcomes[0].answers[2][0] == 1 and outcomes[1].answers[2][0] == 2
    failures, attempted, out_of_range = _failures("infer", problems, outcomes, errors)
    assert attempted == 8
    assert failures.count("normalisation") >= 2 and set(failures) == {"normalisation"}
    assert out_of_range >= 1


def test_an_answer_that_turns_wrong_is_not_taken_for_the_known_defect():
    # every variable is overwritten by a flip, so the answers from T are right too
    overwrite = Problem("overwrite", "infer", bern="bool a\nbool b\na = flip(1/3)\nb = flip(1/4)\n", point={"a": True, "b": True})
    problems = [overwrite] + workloads.infer_inputs(2)[:4]
    outcomes, errors = _solve("infer", problems)
    before, _, _ = _failures("infer", problems, outcomes, errors)
    assert "wrong_answer" not in before
    expected, _ = run.expected_answers("infer", None, problems, outcomes, cache={})
    # one right answer from the point init and one from T turn wrong; so
    # does one answer that already shows the normalisation defect
    answered = [
        (k, i, a[0] == expected[k][i])
        for k, out in enumerate(outcomes)
        for i, a in enumerate(out.answers)
        if a != pipeline.IMPOSSIBLE
    ]
    point = next((k, i) for k, i, right in answered if right and i < len(outcomes[k].answers) // 2)
    top = next((k, i) for k, i, right in answered if right and i >= len(outcomes[k].answers) // 2)
    defect = next((k, i) for k, i, right in answered if not right)
    for k, i in (point, top, defect):
        p, s = outcomes[k].answers[i]
        outcomes[k].answers[i] = (p / 3, s)
    after, _, _ = _failures("infer", problems, outcomes, errors)
    assert after.count("wrong_answer") == 3
    assert after.count("normalisation") == before.count("normalisation") - 1
    assert not set(after) <= run.KNOWN_DEFECTS


def test_a_wrong_answer_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(workloads, "INFER_PROGRAMS", 3)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.run("infer", 1, 0.1, traced=False)["correct"]
    query = pipeline._query

    def off_by_a_third(run_, label):
        got = query(run_, label)
        return got if got == pipeline.IMPOSSIBLE else (got[0] * 2 / 3, got[1])

    monkeypatch.setattr(pipeline, "_query", off_by_a_third)
    assert not run.run("infer", 1, 0.1, traced=False)["correct"]


def _state_expr(st):
    return functools.reduce(bern.BAnd, [bern.BVar(n) if v else bern.BNot(bern.BVar(n)) for n, v in st.items()])


def test_defect_model_reproduces_the_engine():
    # the engine's answers from T and from several-state inits are the
    # oracle's or, where its normalisation defect shows, the model's
    rng = random.Random(11)
    names = ("v0", "v1", "v2", "v3")
    shown = 0
    for k in range(80):
        program = randgen.rand_bern_program(rng, names, max_flips=6, max_stmts=7, degenerate_share=0.2)
        starts = oracle.states_satisfying(program, None)
        init = None
        if k % 2:
            starts = rng.sample(starts, 3)
            init = functools.reduce(bern.BOr, map(_state_expr, starts))
        want = oracle.exact_marginals(program, init, names)
        model = oracle.relational_marginals(program, starts, names)
        run_ = engine.run_symbolic(program, init=init)
        for name, w, m in zip(names, want, model):
            got = pipeline._query(run_, name)
            got = got if got == oracle.IMPOSSIBLE else got[0]
            assert got in (w, m)
            shown += got != w
    assert shown > 0


def test_point_init_answers_pass():
    problems = [Problem("flip", "infer", bern="bool a\nbool b\na = flip(1/3)\n", point={"a": False, "b": True})]
    outcomes, errors = _solve("infer", problems)
    failures, _, _ = _failures("infer", problems, outcomes, errors)
    assert outcomes[0].answers[0][0] == Fraction(1, 3)
    assert failures.count("wrong_answer") == 0


def test_recursion_error_is_counted_and_the_run_goes_on():
    problems = [workloads._fit_ladder(0, 10), workloads._fit_chain(0, 0)]
    outcomes, errors = _solve("fit-query", problems)
    assert errors == ["RecursionError", None]
    failures, attempted, _ = _failures("fit-query", problems, outcomes, errors)
    assert attempted == 13
    assert failures.count("RecursionError") == 10


def test_forward_interpreter_matches_interp_exact():
    rng = random.Random(5)
    names = ("v0", "v1", "v2", "v3")
    for k in range(60):
        program = randgen.rand_bern_program(rng, names, max_flips=7, max_stmts=8, degenerate_share=0.2)
        starts = oracle.states_satisfying(program, None)
        if k % 2:
            starts = [starts[rng.randrange(len(starts))]]
        got = oracle.forward_marginals(program, starts, names)
        w = Fraction(1, len(starts))
        dist = bern.interp_exact(
            program, bern.AbstractDistribution(program.decls, {tuple(s[n] for n in names): w for s in starts})
        )
        if dist.survival == 0:
            assert got == [oracle.IMPOSSIBLE] * 4
        else:
            assert got == [dist.prob(lambda st, n=n: st[n]) / dist.survival for n in names]


def test_point_init_engine_agrees_with_forward_oracle():
    # the oracle is not the engine, but on point inits both must agree
    for problem in workloads.infer_inputs(3)[:10]:
        program, point = pipeline.parse("infer", problem)
        want = oracle.forward_marginals(program, [point], program.decls)
        run_ = engine.run_symbolic(program, init=point)
        for name, w in zip(program.decls, want):
            if w != oracle.IMPOSSIBLE:
                assert engine.query(run_, bern.BVar(name)).probability == w


def test_stored_answers_match_the_oracle():
    for workload in ("fit-query", "infer"):
        cache = run.load_cache(workload, 0)
        assert cache, f"no stored answers for {workload}"
        problems = workloads.inputs(workload, 0)[:4] + workloads.inputs(workload, 0)[-4:]
        for problem in problems:
            out = run.oracle_outcome(workload, problem)
            if out is None:
                assert problem.name not in cache
                continue
            entry = cache[problem.name]
            assert entry["key"] == run.oracle_key(workload, problem, out)
            want = run.compute_expected(workload, problem, out)
            assert entry["answers"] == [oracle.answer_text(a) for a in want]


def test_times_are_scaled_by_their_own_pass_then_take_the_median():
    # two problems, one init each, three passes; the second pass ran on a
    # host twice as slow, which its reference chunks saw
    times = [[[1.0], [2.0]], [[2.0], [4.0]], [[1.2], [1.8]]]
    chunk = hostref.CHUNK_S
    scales = [hostref.scale([chunk] * 3), hostref.scale([2 * chunk, 2 * chunk, chunk]), hostref.scale([chunk])]
    assert scales == [1.0, 0.5, 1.0]
    assert run.per_init_medians(times, scales) == [[1.0], [2.0]]
    assert run.per_init_medians(times, [1.0] * 3) == [[1.2], [2.0]]


def test_reference_chunk_is_fixed_work_outside_bernabs():
    assert hostref.chunk() == hostref.chunk()
    lines = Path(hostref.__file__).read_text().splitlines()
    assert not any(line.startswith(("import bernabs", "from bernabs")) for line in lines)


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
        assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)
        assert len(workloads.inputs(workload, 7)) >= 20


def test_traced_pass_matches_untraced_and_restores_every_function():
    cases = {
        "fit-query": [workloads._fit_random(1, 0), workloads._fit_chain(1, 0)],
        "infer": workloads.infer_inputs(1)[:3],
        "check": workloads.check_inputs(1)[:2],
    }
    tracer = Tracer()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracer.targets()]
    states = pipeline.theory.TheoryContext.states
    for workload, problems in cases.items():
        outcomes, errors = _solve(workload, problems)
        with tracer:
            traced = _solve(workload, problems)
            assert pipeline.theory.TheoryContext.states is not states
        assert run.checksum(problems, outcomes, errors) == run.checksum(problems, *traced)
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is fn, attr
        assert pipeline.theory.TheoryContext.states is states
    metrics = tracer.metrics()
    assert metrics["theory.sat_calls"] > 0 and metrics["engine.run_s"] > 0
    for shape in ("point", "wide"):
        assert metrics[f"engine.run_s.{shape}"] > 0 and metrics[f"engine.query_s.{shape}"] > 0
    assert metrics["engine.run_s"] == metrics["engine.run_s.point"] + metrics["engine.run_s.wide"]
    assert metrics["check.states_checked"] > 0 and metrics["domain.alpha_calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_result_line_has_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.trace import METRICS

    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
