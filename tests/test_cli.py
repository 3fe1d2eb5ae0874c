"""CLI surface: exit codes, determinism, JSON output."""

import argparse
import json
from pathlib import Path

import pytest

from bernabs import bern, cli, corpus, engine


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("chain.cp", corpus.CHAIN_DRAWS_CP),
        ("chain.preds", corpus.CHAIN_DRAWS_PREDS),
        ("chain.bern", corpus.CHAIN_DRAWS_BERN),
        ("branch.cp", corpus.BRANCH_RESET_CP),
        ("branch.preds", corpus.BRANCH_RESET_PREDS),
        ("branch.bern", corpus.BRANCH_RESET_BERN),
        ("shift.cp", corpus.SHIFT_TEN_CP),
        ("shift.preds", corpus.SHIFT_TEN_PREDS),
        ("bad.cp", "var x in [0, 4)\nx = y\n"),
        ("broken.bern", "bool {x<-4}\nbool {x<3}\n{x<-4}, {x<3} = T, F\n"),
    ):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths, tmp_path


def test_abstract_golden(files, capsys):
    paths, tmp = files
    rc = cli.main(["abstract", paths["branch.cp"], paths["branch.preds"],
                   "--mode", "nondet", "--invariants", "none"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "if (*) {" in out
    assert "assume({x<3})" in out
    assert "{x<-4}, {x<3} = F, T" in out


def test_abstract_is_deterministic(files, capsys):
    paths, _ = files
    cli.main(["abstract", paths["chain.cp"], paths["chain.preds"], "--mode", "prob"])
    first = capsys.readouterr().out
    cli.main(["abstract", paths["chain.cp"], paths["chain.preds"], "--mode", "prob"])
    second = capsys.readouterr().out
    assert first == second


def test_abstract_bad_input_exit_2(files, capsys):
    paths, _ = files
    rc = cli.main(["abstract", paths["bad.cp"], paths["branch.preds"]])
    assert rc == 2


@pytest.mark.parametrize("where", ["flip", "params"])
def test_zero_denominator_exit_2(files, capsys, where):
    """A zero denominator is bad input, in a flip and in --params alike."""
    paths, tmp = files
    if where == "flip":
        zero = tmp / "zero.bern"
        zero.write_text("bool a\na = flip(1/0)\n")
        rc = cli.main(["infer", str(zero), "--event", "a"])
    else:
        rc = cli.main(["abstract", paths["branch.cp"], paths["branch.preds"],
                       "--mode", "prob", "--params", "fixed=1/0"])
    assert rc == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["fixed", "fixed:1/2"])
def test_params_fixed_takes_only_the_documented_form(files, capsys, params):
    paths, _ = files
    rc = cli.main(["abstract", paths["branch.cp"], paths["branch.preds"],
                   "--mode", "prob", "--params", params])
    assert rc == 2
    assert "fixed=<r>" in capsys.readouterr().err


def test_abstract_dump_queries(files):
    """The per-cube queries the predicate image answered are still exported."""
    paths, tmp = files
    dump = tmp / "queries.smt2"
    rc = cli.main(["abstract", paths["branch.cp"], paths["branch.preds"],
                   "-o", str(tmp / "out.bern"), "--dump-queries", str(dump)])
    assert rc == 0
    assert dump.read_text().count("(check-sat)") == 36


@pytest.mark.parametrize("mode", [["--mode", "nondet"],
                                  ["--mode", "prob", "--invariants", "structural"]],
                         ids=["nondet", "structural"])
@pytest.mark.parametrize("program", ["branch", "chain", "shift"])
def test_dump_queries_is_pinned(files, program, mode):
    """The whole query log, as abstract wrote it when assignments, draws
    and structural updates each had their own code path; both styles ask
    the same queries."""
    paths, tmp = files
    dump = tmp / "queries.smt2"
    rc = cli.main(["abstract", paths[f"{program}.cp"], paths[f"{program}.preds"], *mode,
                   "-o", str(tmp / "out.bern"), "--dump-queries", str(dump)])
    assert rc == 0
    assert dump.read_text() == (GOLDEN / f"queries_{program}.smt2").read_text()


@pytest.mark.parametrize("expr", ["!" * 3000 + "a", "(" * 3000 + "a" + ")" * 3000])
def test_infer_deep_nesting_exit_2(tmp_path, capsys, expr):
    deep = tmp_path / "deep.bern"
    deep.write_text(f"bool a\na = {expr}\n")
    rc = cli.main(["infer", str(deep), "--event", "a"])
    assert rc == 2
    assert "nested more than" in capsys.readouterr().err


# a left-associative chain nests the tree one level per link; so does a
# chain whose first operand is itself a bracketed chain, and so on
_CP_CONDITION_CHAIN = "if (" + " && ".join(["x < 3"] * 3000) + ") {\n  y = 1\n}"
_CP_SUM_CHAIN = "y = x" + " + 0" * 2999
_CP_LEFT_NESTED_CHAINS = (
    "if (" + "(" * 60 + "x < 3" + (" && x < 3" * 40 + ")") * 60 + ") {\n  y = 1\n}"
)


@pytest.mark.parametrize(
    "stmt", [_CP_CONDITION_CHAIN, _CP_SUM_CHAIN, _CP_LEFT_NESTED_CHAINS],
    ids=["and-chain", "sum-chain", "left-nested-chains"],
)
def test_abstract_long_chain_exit_2(tmp_path, capsys, stmt):
    cp = tmp_path / "chain.cp"
    cp.write_text(f"var x in [0, 8)\nvar y in [0, 8)\n{stmt}\n")
    preds = tmp_path / "chain.preds"
    preds.write_text("a: x < 3\nb: y < 2\n")
    rc = cli.main(["abstract", str(cp), str(preds)])
    assert rc == 2
    assert "nested more than" in capsys.readouterr().err


def test_abstract_missing_file_exit_2(files):
    paths, tmp = files
    rc = cli.main(["abstract", str(tmp / "nope.cp"), paths["branch.preds"]])
    assert rc == 2


@pytest.mark.parametrize("flag", ["-o", "--sites", "--dot", "--dump-queries"])
def test_write_failure_exit_2(files, capsys, flag):
    paths, tmp = files
    missing = str(tmp / "missing" / "out")
    if flag == "--dot":
        argv = ["infer", paths["chain.bern"], "--dot", missing]
    else:
        argv = ["abstract", paths["chain.cp"], paths["chain.preds"], "--mode", "prob",
                "-o", str(tmp / "out.bern"), flag, missing]
    rc = cli.main(argv)
    assert rc == 2
    assert f"error: cannot write {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("given,missing", [("--cp", "--preds"), ("--preds", "--cp")])
def test_infer_cp_and_preds_go_together(files, capsys, given, missing):
    paths, _ = files
    path = paths["chain.cp"] if given == "--cp" else paths["chain.preds"]
    rc = cli.main(["infer", paths["chain.bern"], "--event", "{c<5}", given, path])
    assert rc == 2
    assert f"{missing} is missing" in capsys.readouterr().err


def test_infer_from_invariant(files, capsys):
    paths, _ = files
    rc = cli.main(["infer", paths["chain.bern"], "--event", "{c<5}",
                   "--cp", paths["chain.cp"], "--preds", paths["chain.preds"]])
    assert rc == 0
    assert "probability 11/32\n" in capsys.readouterr().out


def test_infer_from_preds_the_program_does_not_declare_exit_2(tmp_path, capsys):
    """The invariant of predicates that the .bern program does not declare
    is bad input, named, with no traceback."""
    for name, text in (("a.cp", "var x in [0, 4)\nx = x + 1\n"), ("b.preds", "p: x < 2\nq: x < 1\n"),
                       ("a.bern", "bool a\na = flip(1/3)\n")):
        (tmp_path / name).write_text(text)
    rc = cli.main(["infer", str(tmp_path / "a.bern"),
                   "--cp", str(tmp_path / "a.cp"), "--preds", str(tmp_path / "b.preds")])
    assert rc == 2
    assert capsys.readouterr().err == "error: the init reads p, q, which the program does not declare\n"


@pytest.mark.parametrize("point", ["99", "-1", "1.5", "x"])
def test_infer_point_outside_program_exit_2(files, capsys, point):
    paths, _ = files
    rc = cli.main(["infer", paths["chain.bern"], "--event", "{a<5}", "--point", point])
    assert rc == 2
    assert "error: no program point" in capsys.readouterr().err


def test_infer_eleven_thirty_seconds(files, capsys):
    paths, _ = files
    rc = cli.main(["infer", paths["chain.bern"], "--event", "{c<5}", "--json"])
    blob = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (blob["numerator"], blob["denominator"]) == (11, 32)


def test_infer_trivial_event(files, capsys):
    paths, _ = files
    rc = cli.main(["infer", paths["chain.bern"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "probability 1\n" in out


def test_infer_survival_zero_exit_3(files, tmp_path, capsys):
    dead = tmp_path / "dead.bern"
    dead.write_text("bool a\nobserve(F)\n")
    rc = cli.main(["infer", str(dead), "--event", "a"])
    assert rc == 3


def test_infer_from_t_is_uniform_over_the_states(tmp_path, capsys):
    """`b = b` from T: a holds in half of the four states, every run
    survives, and the unnormalized mass of a is 1/2 as well."""
    path = tmp_path / "same.bern"
    path.write_text("bool a\nbool b\nb = b\n")
    assert cli.main(["infer", str(path), "--event", "a"]) == 0
    assert capsys.readouterr().out == "probability 1/2\nsurvival 1\n"
    assert cli.main(["infer", str(path), "--event", "a || !a"]) == 0
    assert capsys.readouterr().out == "probability 1\nsurvival 1\n"
    assert cli.main(["infer", str(path), "--event", "a", "--unnormalized"]) == 0
    assert capsys.readouterr().out == "mass 1/2\nsurvival 1\n"


def test_infer_from_an_init_no_state_satisfies_exit_3(files, capsys, monkeypatch):
    """A predicate invariant always holds in some state; an init that holds
    in none, put in its place, is the query error, with no traceback."""
    paths, _ = files
    monkeypatch.setattr(cli.bld, "formula_to_expr", lambda formula: bern.BFalse())
    rc = cli.main(["infer", paths["chain.bern"], "--event", "{c<5}",
                   "--cp", paths["chain.cp"], "--preds", paths["chain.preds"]])
    assert rc == 3
    assert capsys.readouterr().err == "error: the init holds in no state\n"


def _chain_text(lines, nest):
    """`bool a`, `a = T`, then `lines` lines of ``a = a <=> flip(1/3)``
    inside `nest` nested ifs."""
    body = ["if (a || !a) {"] * nest + ["a = a <=> flip(1/3)"] * lines + ["}"] * nest
    return "\n".join(["bool a", "a = T", *body]) + "\n"


@pytest.mark.parametrize("lines, nest, code", [
    (1200, 0, 2),
    (engine.MAX_LEVELS - 1, 0, 2),
    (engine.MAX_LEVELS - 2, 100, 0),
])
def test_infer_level_bound(tmp_path, capsys, lines, nest, code):
    """A program whose universe (2 levels for a, 1 per flip) is past
    engine.MAX_LEVELS exits 2 with the bound; one at it answers, even
    inside ifs nested as deep as the parser allows."""
    path = tmp_path / "chain.bern"
    path.write_text(_chain_text(lines, nest))
    assert cli.main(["infer", str(path), "--event", "a"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == (
            f"error: the program needs {lines + 2} decision-diagram levels (2 per variable, "
            f"1 per flip site); the engine allows at most {engine.MAX_LEVELS}\n"
        )
    else:
        assert captured.out.endswith("survival 1\n")


def test_infer_dot_dump(files, tmp_path, capsys):
    paths, _ = files
    dot = tmp_path / "delta.dot"
    rc = cli.main(["infer", paths["chain.bern"], "--event", "{c<5}", "--dot", str(dot)])
    assert rc == 0
    assert dot.read_text().startswith("digraph bdd {")


def test_check_pass(files, capsys):
    paths, _ = files
    rc = cli.main([
        "check", paths["branch.cp"], paths["branch.preds"], paths["branch.bern"],
        "--where", "x < 7",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sound-nondet: pass" in out


def test_check_fail_exit_1(files, capsys):
    paths, _ = files
    rc = cli.main([
        "check", paths["branch.cp"], paths["branch.preds"], paths["broken.bern"],
        "--where", "x < 7", "--json",
    ])
    blob = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert blob[0]["status"] == "fail"
    assert blob[0]["counterexamples"]


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("flag", ["", "--json"])
@pytest.mark.parametrize("abstraction", ["branch", "broken", "prob"])
def test_check_output_is_pinned(files, capsys, abstraction, flag):
    """The whole of stdout, as the checks printed it before they read one
    transition kernel per program; `prob` is the corpus program's
    `abstract --mode prob --params fixed=1/2` output."""
    paths, tmp = files
    bern_path = paths.get(f"{abstraction}.bern", str(tmp / "prob.bern"))
    if abstraction == "prob":
        assert cli.main(["abstract", paths["branch.cp"], paths["branch.preds"], "--mode", "prob",
                         "--params", "fixed=1/2", "-o", bern_path]) == 0
    rc = cli.main(["check", paths["branch.cp"], paths["branch.preds"], bern_path,
                   "--where", "x < 7", *([flag] if flag else [])])
    suffix = ".json" if flag else ".txt"
    assert capsys.readouterr().out == (GOLDEN / f"check_{abstraction}{suffix}").read_text()
    assert rc == (1 if abstraction == "broken" else 0)


@pytest.mark.parametrize(
    "bern_text",
    ["bool a\na = a <=> flip(1/2)\n", "bool a\nif (*) { a = T }\n"],
    ids=["prob", "nondet"],
)
def test_check_names_the_predicates_the_abstraction_lacks(tmp_path, capsys, bern_text):
    for name, text in (
        ("one.cp", "var x in [0, 4)\nx = x\n"),
        ("one.preds", "a: x < 2\nb: x < 3\n"),
        ("one.bern", bern_text),
    ):
        (tmp_path / name).write_text(text)
    rc = cli.main(["check", *(str(tmp_path / n) for n in ("one.cp", "one.preds", "one.bern"))])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the abstract program does not declare these predicates: b\n"
    )


def test_check_runs_the_engine_once_for_soundness_and_invariance(files, capsys, monkeypatch):
    """`check --invariance` on a prob abstraction reads both checks from
    one kernel, so the engine runs once; the output is the pinned one."""
    paths, tmp = files
    bern_path = str(tmp / "prob.bern")
    assert cli.main(["abstract", paths["branch.cp"], paths["branch.preds"], "--mode", "prob",
                     "--params", "fixed=1/2", "-o", bern_path]) == 0
    runs = []
    real = engine.run_symbolic
    monkeypatch.setattr(engine, "run_symbolic", lambda *a, **k: runs.append(a) or real(*a, **k))
    rc = cli.main(["check", paths["branch.cp"], paths["branch.preds"], bern_path,
                   "--where", "x < 7", "--invariance", "--json"])
    assert (rc, len(runs)) == (0, 1)
    assert capsys.readouterr().out == (GOLDEN / "check_prob.json").read_text()


def test_check_past_the_flip_cap(tmp_path, capsys):
    """25 flip sites, one past the enumerator's cap: the check has none."""
    for name, text in (
        ("one.cp", "var x in [0, 4)\nx = x\n"),
        ("one.preds", "a: x < 2\n"),
        ("flips.bern", "bool a\n" + "a = a <=> flip(1/2)\n" * 25),
    ):
        (tmp_path / name).write_text(text)
    rc = cli.main(["check", *(str(tmp_path / n) for n in ("one.cp", "one.preds", "flips.bern"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sound-prob: pass" in out and "invariance: pass" in out


def test_fit_reproduces_hand_abstraction(files, capsys, tmp_path):
    paths, _ = files
    sites = tmp_path / "sites.json"
    rc = cli.main(["fit", paths["chain.cp"], paths["chain.preds"], "--sites", str(sites)])
    out = capsys.readouterr().out
    assert rc == 0
    for needle in ("{a<5} = flip(1/2)", "{b<5} = flip(1/4)", "{c<5} = flip(1/4)"):
        assert needle in out
    blob = json.loads(sites.read_text())
    assert not any(entry["flagged"] for entry in blob)


@pytest.mark.parametrize("style", ["none", "observe", "structural"])
@pytest.mark.parametrize("program", ["branch", "chain", "shift"])
def test_fit_output_is_pinned(files, capsys, program, style):
    """The fitted text and the site table, as fit wrote them when each
    role had its own measurement; the branch-reset program's structural
    pair since its then-branch update allocates no flip where its
    admissible relation never goes."""
    paths, tmp = files
    out, sites = tmp / "fitted.bern", tmp / "sites.json"
    rc = cli.main(["fit", paths[f"{program}.cp"], paths[f"{program}.preds"],
                   "--invariants", style, "-o", str(out), "--sites", str(sites)])
    assert rc == 0
    stem = GOLDEN / f"fit_{program}_{style}"
    assert out.read_text() == stem.with_suffix(".bern").read_text()
    assert sites.read_text() == stem.with_suffix(".sites.json").read_text()


def _stdout_sites_and_json(capsys, tmp, argv):
    """(stdout, the --sites file, the --json output) of one command line."""
    sites = tmp / "sites.json"
    assert cli.main([*argv, "--sites", str(sites)]) == 0
    out = capsys.readouterr().out
    assert cli.main([*argv, "--json"]) == 0
    return out, sites.read_text(), capsys.readouterr().out


@pytest.mark.parametrize("style", ["none", "observe", "structural"])
@pytest.mark.parametrize("program", ["branch", "chain", "shift"])
def test_fit_is_abstract_with_fitted_parameters(files, capsys, program, style):
    """`fit` is `abstract --mode prob --params fit`: the same stdout, site
    table and JSON."""
    paths, tmp = files
    problem = [paths[f"{program}.cp"], paths[f"{program}.preds"], "--invariants", style]
    fit = _stdout_sites_and_json(capsys, tmp, ["fit", *problem])
    abstract = _stdout_sites_and_json(
        capsys, tmp, ["abstract", *problem, "--mode", "prob", "--params", "fit"]
    )
    assert fit == abstract


@pytest.mark.parametrize("command", [["fit"], ["abstract", "--mode", "prob", "--params", "fit"]])
def test_fit_warns_of_flagged_sites_on_stderr(tmp_path, capsys, command):
    """The draw inside `if (x < 0)` decides on no mass, since x < 0 never
    holds: both spellings of fit warn, except with --json."""
    cp, preds = tmp_path / "never.cp", tmp_path / "never.preds"
    cp.write_text("var x in [0, 8)\nvar y in [0, 8)\nif (x < 0) { y = unif [0, 8) } else { }\n")
    preds.write_text("x<0: x < 0\ny<4: y < 4\n")
    argv = [command[0], str(cp), str(preds), *command[1:], "--invariants", "none"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: sites [0] decide on no mass in their context; theta defaulted to 1/2\n"
    )
    assert "warning" not in captured.out
    assert cli.main([*argv, "--json"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("where", [None, "x >= 3"])
def test_check_tests_invariance_on_every_swept_input(tmp_path, capsys, where):
    """80 inputs (or the 74 with x >= 3), past the 16 the check once took:
    every one is paired with each feasible output under each of the 3
    concretization families."""
    for name, text in (
        ("two.cp", "var x in [0, 40)\nvar y in [0, 2)\ny = 1 - y\n"),
        ("two.preds", "a: x < 10\nb: y == 1\n"),
    ):
        (tmp_path / name).write_text(text)
    problem = [str(tmp_path / "two.cp"), str(tmp_path / "two.preds")]
    bern_path = str(tmp_path / "two.bern")
    assert cli.main(["abstract", *problem, "--mode", "prob", "--params", "fixed=1/2",
                     "-o", bern_path]) == 0
    rc = cli.main(["check", *problem, bern_path, "--json", *(["--where", where] if where else [])])
    invariance = json.loads(capsys.readouterr().out)[1]
    inputs = 80 if where is None else 74
    assert rc == 0
    assert (invariance["check"], invariance["status"]) == ("invariance", "pass")
    assert invariance["stats"]["pairs"] == 3 * inputs * 4


def test_the_command_line_surface_is_pinned():
    """Each subcommand's arguments: positionals by name, options by their
    strings.  A change here is a change to the documented interface."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [a.option_strings or a.dest for a in sub._actions]
        for name, sub in commands.choices.items()
    }
    help_ = ["-h", "--help"]
    assert surface == {
        "abstract": [help_, "program", "predicates", ["--mode"], ["--invariants"], ["--params"],
                     ["-o", "--output"], ["--sites"], ["--dump-queries"], ["--json"]],
        "infer": [help_, "bern", ["--event"], ["--point"], ["--unnormalized"], ["--cp"],
                  ["--preds"], ["--dot"], ["--json"]],
        "check": [help_, "program", "predicates", "bern", ["--where"],
                  ["--invariance", "--no-invariance"], ["--json"]],
        "fit": [help_, "program", "predicates", ["--invariants"], ["-o", "--output"],
                ["--sites"], ["--json"]],
        "selftest": [help_, ["--seed"], ["--scale"]],
    }


def test_structural_output_reads_back(files, capsys):
    """check and infer read the snapshot names (``{x<-4@pre}``) that the
    structural style writes."""
    paths, tmp = files
    abstracted, fitted = str(tmp / "abstracted.bern"), str(tmp / "fitted.bern")
    problem = [paths["branch.cp"], paths["branch.preds"]]
    assert cli.main(["abstract", *problem, "--mode", "prob", "--invariants", "structural",
                     "--params", "fixed=1/2", "-o", abstracted]) == 0
    assert "@pre}" in Path(abstracted).read_text()
    capsys.readouterr()
    assert cli.main(["check", *problem, abstracted, "--where", "x < 7"]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("sound-prob: pass")
    assert cli.main(["fit", *problem, "--invariants", "structural", "-o", fitted]) == 0
    assert cli.main(["infer", fitted, "--event", "{x<-4@pre} || {x<3}"]) == 0
    assert capsys.readouterr().out.startswith("probability ")


def test_fit_structural_answers_a_nine_predicate_ladder(tmp_path, capsys):
    """The structural style has no predicate bound of its own: a ladder of
    9 independent predicates fits, and each drawn predicate is a flip of 1/2."""
    n = 9
    cp, preds = tmp_path / "ladder.cp", tmp_path / "ladder.preds"
    cp.write_text("".join(f"var x{i} in [0, 2)\n" for i in range(n))
                  + f"x0 = unif [0, 2)\nx{n - 1} = unif [0, 2)\n")
    preds.write_text("".join(f"x{i}: x{i} == 1\n" for i in range(n)))
    rc = cli.main(["fit", str(cp), str(preds), "--invariants", "structural"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out.splitlines()[n:] == ["x0 = flip(1/2)", f"x{n - 1} = flip(1/2)"]


def test_fit_no_draw_sites(files, tmp_path, capsys):
    noflip = tmp_path / "const.cp"
    noflip.write_text("var x in [0, 8)\nx = 1\n")
    preds = tmp_path / "const.preds"
    preds.write_text("x<4: x < 4\n")
    rc = cli.main(["fit", str(noflip), str(preds), "--invariants", "none"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "flip" not in out


def test_selftest_quick(capsys):
    rc = cli.main(["selftest", "--seed", "3", "--scale", "0.02"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out


@pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
def test_selftest_scale_must_be_finite_and_positive(capsys, scale):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--scale", scale])
    assert exc.value.code == 2
    assert f"argument --scale: expected a finite number > 0, got '{scale}'" in capsys.readouterr().err


_AND_CHAIN = " && ".join(["a < 3"] * 3000)

# what is given where a condition is read: `--event`, `--where`, or a .preds
# line, written behind a comment line as "  x:  <text>"; and the rational of
# `--params fixed=<text>`
_CONDITIONS = {
    "event": "zz",
    "where": "a < ",
    "preds": "x < ",
    "event, text after it": "{a<5}) observe({b<5}",
    "where, text after it": "a < 3) observe(a > 100",
    "preds, text after it": "a < 1) observe(b > 2",
    "event, empty": "",
    "where, deep": _AND_CHAIN,
    "preds, deep": _AND_CHAIN,
    "preds, undeclared": "q < 1",
    "event, a flip": "T && flip(1/2)",
    "where, unclosed": "(a > -4",
    "params, text after it": "1/2x",
}


@pytest.mark.parametrize(
    "where, message",
    [
        ("event", "error: undeclared variable 'zz' (line 1, column 1)\n"),
        ("where", "error: expected an arithmetic term, found the end of the text (line 1, column 5)\n"),
        ("preds", "error: bad condition for 'x': expected an arithmetic term, "
                  "found the end of the text (line 2, column 10)\n"),
        ("event, text after it", "error: expected the end of the text, found ')' (line 1, column 6)\n"),
        ("where, text after it", "error: expected the end of the text, found ')' (line 1, column 6)\n"),
        ("preds, text after it", "error: bad condition for 'x': expected the end of the text, "
                                 "found ')' (line 2, column 12)\n"),
        ("event, empty", "error: expected a variable name, found the end of the text (line 1, column 1)\n"),
        ("where, deep", "error: nested more than 100 levels deep (line 1, column 1)\n"),
        ("preds, deep", "error: bad condition for 'x': nested more than 100 levels deep (line 2, column 7)\n"),
        ("preds, undeclared", "error: condition mentions undeclared variables: q\n"),
        ("event, a flip", "error: events must be plain Boolean formulas over the variables "
                          "(line 1, column 6)\n"),
        ("where, unclosed", "error: expected ')', found the end of the text (line 1, column 8)\n"),
        ("params, text after it", "error: expected the end of the text, found 'x' (line 1, column 10)\n"),
    ],
)
def test_condition_errors_point_into_the_given_text(files, capsys, where, message):
    """A condition or event is read straight from the text the user wrote,
    which it must use up; its errors give one position, in that text."""
    paths, tmp = files
    text = _CONDITIONS[where]
    argv = {
        "event": ["infer", paths["chain.bern"], "--event", text],
        "where": ["check", paths["chain.cp"], paths["chain.preds"], paths["chain.bern"],
                  "--where", text],
        "preds": ["check", paths["chain.cp"], str(tmp / "bad.preds"), paths["chain.bern"]],
        "params": ["abstract", paths["chain.cp"], paths["chain.preds"], "--mode", "prob",
                   "--params", f"fixed={text}"],
    }[where.split(",")[0]]
    (tmp / "bad.preds").write_text(f"# a comment\n  x:  {text}\n")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == message


def test_check_takes_a_label_like_a_ghost(tmp_path, capsys):
    """The engine's input variable of p, p#in, is no name a .preds file can
    hold, so p@0 is free for a predicate of its own."""
    paths = {"cp": "var x in [0, 4)\nx = x\n", "preds": "p: x < 2\np@0: x < 1\n",
             "bern": "bool p\nbool {p@0}\np, {p@0} = p, {p@0}\n"}
    for suffix, text in paths.items():
        (tmp_path / f"id.{suffix}").write_text(text)
    assert cli.main(["check", *(str(tmp_path / f"id.{s}") for s in paths)]) == 0
    assert capsys.readouterr().out.startswith("sound-prob: pass")
