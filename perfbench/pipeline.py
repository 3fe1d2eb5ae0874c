"""The three CLI paths, run through bernabs' public Python functions.

``parse`` turns a workload's input texts into parsed problems (the set-up
step); ``SOLVERS[workload]`` solves one parsed problem the way the CLI
commands would and returns an ``Outcome``.  Nothing here decides whether an
answer is right: ``run.py`` compares outcomes with the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from bernabs import bern
from bernabs import builder as bld
from bernabs import engine, parsing, theorems, theory
from bernabs.domain import PredicateList
from bernabs.errors import ConditionOnImpossibleError

from perfbench.oracle import IMPOSSIBLE

FIT_CONFIG = bld.AbstractionConfig(mode="prob", invariant_style="observe", params=bld.ParamPolicy.fit())
NONDET_CONFIG = bld.AbstractionConfig(mode="nondet")
PROB_HALF_CONFIG = bld.AbstractionConfig(mode="prob", params=bld.ParamPolicy.fixed(Fraction(1, 2)))
INVARIANCE_INPUTS = 16  # cmd_check sweeps the first 16 joint states


@dataclass
class Outcome:
    """What one problem returned.

    `answers` holds one entry per operation: a (probability, survival) pair
    or IMPOSSIBLE for a query, a CheckReport for a check.  `texts` are the
    outputs that go into the workload checksum; `program` is the BERN
    program the answers were computed on, with its `inits` (None for T).
    `init_s` holds the seconds spent from each init, where a solver times
    its inits apart.
    """

    answers: list = field(default_factory=list)
    texts: list = field(default_factory=list)
    program: object = None
    inits: list = field(default_factory=list)
    init_s: list = field(default_factory=list)


def parse(workload, problem):
    if workload == "infer":
        return parsing.parse_bern(problem.bern), problem.point
    return parsing.parse_concrete(problem.cp), parsing.parse_preds(problem.preds)


def operations(workload, problem) -> int:
    """Operations a problem attempts: answers for queries, verdicts for checks."""
    if workload == "infer":
        return 2 * len(parsing.parse_bern(problem.bern).decls)
    if workload == "check":
        return 3
    return len(parsing.parse_preds(problem.preds))


def _query(run, label):
    try:
        r = engine.query(run, bern.BVar(label))
    except ConditionOnImpossibleError:
        return IMPOSSIBLE
    return r.probability, r.survival


def fit(parsed, out: Outcome):
    """`bernabs fit`: the fitted BERN program as the user's file holds it, and its init."""
    prog, pairs = parsed
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(pairs, ctx)
    aprog, sites = bld.abstract_program(prog, preds, FIT_CONFIG)
    fitted, table = theorems.fit_parameters(prog, aprog, sites, preds)
    text = bern.to_text(fitted)
    out.texts += [text, table.dumps()]
    init = bld.formula_to_expr(preds.invariant_formula())
    out.program, out.inits = parsing.parse_bern(text), [init]
    return preds


def solve_fit_query(parsed, out: Outcome):
    """`bernabs fit`, then `bernabs infer --cp --preds` on every predicate."""
    preds = fit(parsed, out)
    run = engine.run_symbolic(out.program, init=out.inits[0])
    for label in preds.labels:
        out.answers.append(_query(run, label))


def solve_infer(parsed, out: Outcome):
    """`bernabs infer --event v` for every variable, from a point init and from T.

    The two inits give Δ different shapes (functional, and wide over every
    state), so each is timed on its own.
    """
    program, point = parsed
    out.program, out.inits = program, [point, None]
    for init in out.inits:
        t0 = time.perf_counter()
        run = engine.run_symbolic(program, init=init)
        for name in program.decls:
            out.answers.append(_query(run, name))
        out.init_s.append(time.perf_counter() - t0)


def solve_check(parsed, out: Outcome):
    """`bernabs abstract` (nondet and prob fixed=1/2), then `bernabs check` on each."""
    prog, pairs = parsed
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(pairs, ctx)
    nondet = parsing.parse_bern(bern.to_text(bld.abstract_program(prog, preds, NONDET_CONFIG)[0]))
    prob = parsing.parse_bern(bern.to_text(bld.abstract_program(prog, preds, PROB_HALF_CONFIG)[0]))
    out.texts += [bern.to_text(nondet), bern.to_text(prob)]
    out.answers.append(theorems.check_sound_nondet(prog, nondet, preds))
    out.answers.append(theorems.check_sound_prob(prog, prob, preds))
    gammas = [g(preds) for g in theorems.GAMMA_FAMILIES]
    inputs = [dict(zip(ctx.names, key)) for key in ctx.states()][:INVARIANCE_INPUTS]
    out.answers.append(theorems.check_invariance(prob, preds, gammas, inputs=inputs))


SOLVERS = {"fit-query": solve_fit_query, "infer": solve_infer, "check": solve_check}
