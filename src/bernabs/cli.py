"""Command-line front door: abstract, infer, check, fit, selftest."""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from bernabs import bern
from bernabs import builder as bld
from bernabs import engine, parsing, selftest, theorems, theory
from bernabs.domain import PredicateList
from bernabs.errors import BernabsError, ConditionOnImpossibleError, ParseError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_QUERY_ERROR = 3


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _load_problem(args):
    prog = parsing.parse_concrete(_read(args.program))
    # only `abstract` has --dump-queries
    ctx = theory.TheoryContext.of_program(
        prog, record_queries=bool(getattr(args, "dump_queries", None))
    )
    preds = PredicateList(parsing.parse_preds(_read(args.predicates)), ctx)
    return prog, ctx, preds


def _scale(text):
    """The --scale factor: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _param_policy(text):
    if text == "symbolic":
        return bld.ParamPolicy.symbolic()
    if text == "fit":
        return bld.ParamPolicy.fit()
    prefix = "fixed="
    if text.startswith(prefix):
        try:
            theta = parsing.parse_rational(text[len(prefix):])
        except ParseError as exc:
            if exc.line != 1:
                raise
            # a column in the whole argument, which starts with the prefix
            raise ParseError(exc.reason, 1, len(prefix) + exc.column) from None
        return bld.ParamPolicy.fixed(theta)
    raise ParseError(f"bad --params value {text!r} (symbolic | fixed=<r> | fit)")


def cmd_abstract(args):
    prog, ctx, preds = _load_problem(args)
    config = bld.AbstractionConfig(
        mode=args.mode,
        invariant_style=args.invariants,
        params=_param_policy(args.params),
    )
    aprog, sites = bld.abstract_program(prog, preds, config)
    if config.params.kind == "fit":
        aprog, sites = theorems.fit_parameters(prog, aprog, sites, preds)
    text = bern.to_text(aprog)
    if args.json:
        _write(args.output, json.dumps({"program": text, "sites": sites.to_json()}, indent=2) + "\n")
    else:
        _write(args.output, text)
        if args.sites:
            _write(args.sites, sites.dumps())
    flagged = [s.site for s in sites if s.flagged]
    if flagged and not args.json:
        print(f"warning: sites {flagged} decide on no mass in their context; "
              "theta defaulted to 1/2", file=sys.stderr)
    if getattr(args, "dump_queries", None):
        _write(args.dump_queries, theory.dump_query_log(ctx))
    return EXIT_OK


def cmd_infer(args):
    if bool(args.program) != bool(args.predicates):
        missing = "--preds" if args.program else "--cp"
        raise ParseError(f"--cp and --preds go together: {missing} is missing")
    program = parsing.parse_bern(_read(args.bern))
    event = parsing.parse_event(args.event, program.decls)
    init = None
    if args.program:
        _, _, preds = _load_problem(args)
        init = bld.formula_to_expr(preds.invariant_formula())
    run = engine.run_symbolic(program, init=init)
    point = args.point
    result = engine.query(run, event, point=point, normalized=not args.unnormalized)
    if args.dot:
        _write(args.dot, run.at(point).delta.to_dot() + "\n")
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        label = "mass" if args.unnormalized else "probability"
        print(f"{label} {_frac_text(result.probability)}")
        print(f"survival {_frac_text(result.survival)}")
    return EXIT_OK


def cmd_check(args):
    prog, ctx, preds = _load_problem(args)
    aprog = parsing.parse_bern(_read(args.bern))
    inputs = None  # the whole domain
    if args.where:
        cond = parsing.parse_cond(args.where, declared=[d.name for d in prog.decls])
        inputs = [theorems._state_json(ctx.names, key) for key in ctx.members(ctx.mask(cond))]
    reports = []
    if aprog.mode == "nondet":
        reports.append(theorems.check_sound_nondet(prog, aprog, preds, inputs=inputs))
    else:
        reports.append(theorems.check_sound_prob(prog, aprog, preds, inputs=inputs))
        if args.invariance:
            gammas = [g(preds) for g in theorems.GAMMA_FAMILIES]
            reports.append(theorems.check_invariance(aprog, preds, gammas, inputs=inputs))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            print(f"{r.check}: {r.status} {r.stats}")
            for cex in r.counterexamples[:5]:
                print(f"  counterexample: {cex}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_CHECK_FAILED


def cmd_selftest(args):
    results = selftest.run_all(seed=args.seed, scale=args.scale)
    failed = [r for r in results if not r.ok and not r.skipped]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bernabs",
        description="Probabilistic predicate abstraction with exact inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("abstract", help="build a BERN abstraction of a concrete program")
    p.add_argument("program", help=".cp concrete program")
    p.add_argument("predicates", help=".preds predicate list")
    p.add_argument("--mode", choices=("nondet", "prob"), default="nondet")
    p.add_argument("--invariants", choices=bld.INVARIANT_STYLES, default="observe")
    p.add_argument("--params", default="symbolic", help="symbolic | fixed=<r> | fit")
    p.add_argument("-o", "--output", default="-", help="output .bern path")
    p.add_argument("--sites", help="write the flip-site table (JSON) here")
    p.add_argument("--dump-queries", help="write all theory queries as SMT-LIB2")
    add_common(p)
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser(
        "infer",
        help="exact marginal of an event in a .bern program",
        description="Exact marginal of an event in a .bern program.  The run starts from the "
                    "uniform distribution over the states that satisfy the init: every state "
                    "(T), or with --cp and --preds those the predicate invariant holds in.  "
                    "It prints P(event | the run survives its observes and assumes) and "
                    "survival, P(the run survives).",
    )
    p.add_argument("bern", help=".bern program")
    p.add_argument("--event", default="T", help="Boolean event over the program variables")
    p.add_argument("--point", default="end", help="program point (prefix index or 'end')")
    p.add_argument("--unnormalized", action="store_true",
                   help="report the mass P(event and the run survives) instead")
    p.add_argument("--cp", dest="program", help="concrete program (with --preds, for invariant init)")
    p.add_argument("--preds", dest="predicates", help="predicates (with --cp, for invariant init)")
    p.add_argument("--dot", help="dump the knowledge base at --point, the (state, flips) pairs "
                                 "a surviving run can be in, as DOT")
    add_common(p)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("check", help="soundness / invariance checks")
    p.add_argument("program", help=".cp concrete program")
    p.add_argument("predicates", help=".preds predicate list")
    p.add_argument("bern", help=".bern abstraction")
    p.add_argument("--where", help="restrict the input sweep to states satisfying this condition")
    p.add_argument("--invariance", action=argparse.BooleanOptionalAction, default=True,
                   help="also check concretization invariance, on every input of the sweep")
    add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fit", help="abstract with fitted flip parameters: "
                                   "abstract --mode prob --params fit")
    p.add_argument("program", help=".cp concrete program")
    p.add_argument("predicates", help=".preds predicate list")
    p.add_argument("--invariants", choices=bld.INVARIANT_STYLES, default="observe")
    p.add_argument("-o", "--output", default="-", help="output .bern path")
    p.add_argument("--sites", help="write fitted site provenance (JSON) here")
    add_common(p)
    p.set_defaults(fn=cmd_abstract, mode="prob", params="fit")

    p = sub.add_parser("selftest", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=_scale, default=1.0,
                   help="scale factor on suite case counts")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConditionOnImpossibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR
    except (BernabsError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
