"""Randomized property suites.

Each suite is an executable statement of one of the core theorems or
engine-equivalence properties, run over seeded random instances.  The
acceptance tests and the `selftest` CLI subcommand both call these.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import operator
import random
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from fractions import Fraction

from bernabs import bern
from bernabs import builder as bld
from bernabs import concrete as cc
from bernabs import engine, parsing, randgen, theorems, theory
from bernabs.domain import PredicateList
from bernabs.errors import ConditionOnImpossibleError


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    skipped: bool = False

    @property
    def ok(self):
        return not self.failures

    def line(self):
        if self.skipped:
            return f"SKIP {self.name}: {self.failures[0] if self.failures else 'unavailable'}"
        word = "PASS" if self.ok else "FAIL"
        detail = f" ({len(self.failures)} failures)" if self.failures else ""
        return f"{word} {self.name}: {self.cases} cases in {self.seconds:.1f}s{detail}"


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(seed=0, cases=None, **kw):
        t0 = time.monotonic()
        result = fn(seed=seed, **({} if cases is None else {"cases": cases}), **kw)
        result.seconds = time.monotonic() - t0
        return result

    return wrapper


def _pair(rng, max_preds=3):
    """Random (concrete program, predicate list) with a matching context."""
    prog = randgen.rand_concrete_program(rng, draws=False)
    ctx = theory.TheoryContext.of_program(prog)
    preds = PredicateList(randgen.rand_predicates(rng, prog.decls, max_preds), ctx)
    return prog, preds


@_timed
def suite_theorem1(seed=0, cases=200):
    """Probabilistic soundness holds iff non-deterministic soundness of the
    lowered program holds, with identical per-input verdicts."""
    rng = random.Random(seed)
    result = SuiteResult("theorem-1 lowering equivalence", cases)
    for case in range(cases):
        prog, preds = _pair(rng)
        aprog = randgen.rand_bern_program(
            rng, preds.labels, max_flips=5, max_stmts=6, degenerate_share=0.15
        )
        lowered = theorems.lower(aprog)
        support_memo = {}
        reach_memo = {}
        for z in preds.ctx.states():
            out = cc.eval_det(prog, z)
            if out is cc.BLOCKED:
                continue
            a_in, a_out = preds.alpha(z), preds.alpha(out)
            if a_in not in support_memo:
                # the enumerator, not the engine the checks use: this suite
                # states the theorem, independently of `check_sound_prob`
                start = theorems._aux_padded(aprog.decls, preds.labels, a_in)
                point = bern.AbstractDistribution.point(aprog.decls, dict(zip(aprog.decls, start)))
                dist = bern.interp_exact(aprog, point).marginal(preds.labels)
                support_memo[a_in] = dist.support()
                reach_memo[a_in] = theorems._nondet_reach(lowered, preds, a_in)
            prob_ok = a_out in support_memo[a_in]
            nondet_ok = a_out in reach_memo[a_in]
            if prob_ok != nondet_ok:
                result.failures.append(
                    f"case {case}: z={z} prob={prob_ok} nondet={nondet_ok}"
                )
                break
    return result


@_timed
def suite_theorem2(seed=0, cases=100):
    """Abstract-event marginals of the concrete semantics equal the abstract
    distribution for every strongly confined gamma family, exactly."""
    rng = random.Random(seed)
    result = SuiteResult("theorem-2 concretization invariance", cases)
    for case in range(cases):
        prog, preds = _pair(rng, max_preds=2)
        aprog = randgen.rand_bern_program(
            rng, preds.labels, max_flips=3, max_stmts=4, degenerate_share=0.1
        )
        gammas = [g(preds) for g in theorems.GAMMA_FAMILIES]
        report = theorems.check_invariance(aprog, preds, gammas)
        if not report.ok:
            result.failures.append(f"case {case}: {report.counterexamples[0]}")
    return result


# Programs and inits the random cases of the engine suite may miss: an
# identity assignment from T, an invariant init with an observe and an if,
# an init no state satisfies, and a name ending in a prime from T.
_WIDE_CASES = (
    ("bool a\nbool b\nb = b\n", None),
    (
        "bool a\nbool b\nbool c\nc = a && flip(1/3)\nobserve(b || c)\n"
        "if (a) { b = !b || flip(1/4) } else { a = b && flip(1/2) }\n",
        "a || b",
    ),
    ("bool a\nbool b\nb = flip(1/2)\n", "a && !a"),
    ("bool a\nbool {a'}\na = flip(1/3)\n{a'} = a || {a'}\n", None),
)


def _uniform_start(names, init):
    """The uniform distribution over the states that satisfy `init`: a state
    dict, a flip-free expression, or None for T."""
    if isinstance(init, dict):
        return bern.AbstractDistribution.point(names, init)
    if init is None:
        return bern.AbstractDistribution.uniform(names)
    states = [
        bits for bits in itertools.product((False, True), repeat=len(names))
        if bern.eval_expr(init, dict(zip(names, bits)), {})
    ]
    return bern.AbstractDistribution(names, {bits: Fraction(1, len(states)) for bits in states})


def _engine_mismatch(aprog, init):
    """The first answer of the engine from `init` that differs from
    `interp_exact`'s from the uniform start over the init's states, as a
    message, or None: the survival, and each variable's mass and
    marginal, at every top-level point."""
    names = aprog.decls
    start = _uniform_start(names, init)
    try:
        run = engine.run_symbolic(aprog, init=init)
    except ConditionOnImpossibleError:
        return None if start.survival == 0 else "the init raised, but states satisfy it"
    if start.survival == 0:
        return "no state satisfies the init, but the engine ran"
    for k in range(len(aprog.body) + 1):
        ref = bern.interp_exact(bern.BernProgram(names, aprog.body[:k], "prob"), start)
        if run.survival(k) != ref.survival:
            return f"survival at {k}: {run.survival(k)} vs {ref.survival}"
        if ref.survival == 0:
            continue
        for name in names:
            mass = ref.prob(lambda s, n=name: s[n])
            got = engine.query(run, bern.BVar(name), point=k, normalized=False).probability
            if got != mass:
                return f"mass of {name} at {k}: {got} vs {mass}"
            got = engine.query(run, bern.BVar(name), point=k).probability
            if got != mass / ref.survival:
                return f"Pr({name}) at {k}: {got} vs {mass / ref.survival}"
    return None


@_timed
def suite_engine_equivalence(seed=0, cases=200):
    """Symbolic queries equal the flip-enumeration interpreter at every
    top-level program point, as exact rationals, from two point inits, from
    T and from an expression init, each the uniform distribution over the
    states that satisfy it; then the fixed wide-init cases."""
    rng = random.Random(seed)
    result = SuiteResult("symbolic engine vs exact interpreter", cases)
    for case in range(cases):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
        aprog = randgen.rand_bern_program(rng, names, max_flips=6, max_stmts=6)
        inits = [{n: rng.random() < 0.5 for n in names} for _ in range(2)]
        inits += [None, randgen.rand_bern_cond(rng, names)]
        for init in inits:
            message = _engine_mismatch(aprog, init)
            if message is not None:
                result.failures.append(f"case {case}: {message}")
    for i, (text, init) in enumerate(_WIDE_CASES):
        aprog = parsing.parse_bern(text)
        init = None if init is None else parsing.parse_event(init, aprog.decls)
        message = _engine_mismatch(aprog, init)
        if message is not None:
            result.failures.append(f"wide case {i}: {message}")
    return result


@_timed
def suite_invariant_styles(seed=0, cases=100):
    """Observe-style and structural abstractions of one assignment have the
    same lowered support from every feasible initial abstract state."""
    rng = random.Random(seed)
    result = SuiteResult("observe vs structural invariant styles", cases)
    for case in range(cases):
        decls = randgen.rand_decls(rng)
        ctx = theory.TheoryContext(decls)
        preds = PredicateList(randgen.rand_predicates(rng, decls, 3), ctx)
        if rng.random() < 0.3:
            stmt = randgen.rand_draw(rng, decls)
        else:
            stmt = randgen.rand_safe_assign(rng, decls)
        prog = cc.ConcreteProgram(decls, (stmt,))
        fixed = bld.ParamPolicy.fixed(Fraction(1, 2))
        obs, _ = bld.abstract_program(
            prog, preds, bld.AbstractionConfig("prob", "observe", fixed)
        )
        struct, _ = bld.abstract_program(
            prog, preds, bld.AbstractionConfig("prob", "structural", fixed)
        )
        lo_obs, lo_struct = theorems.lower(obs), theorems.lower(struct)
        for m in preds.feasible_minterms():
            a = theorems._nondet_reach(lo_obs, preds, m.bits)
            b = theorems._nondet_reach(lo_struct, preds, m.bits)
            if a != b:
                result.failures.append(
                    f"case {case}: from {m.bits}: observe {sorted(a)} vs structural {sorted(b)}"
                )
                break
    return result


@_timed
def suite_generated_soundness(seed=0, cases=100):
    """Generated probabilistic abstractions with theta = 1/2 are sound for
    their concrete programs (no violations over the whole domain)."""
    rng = random.Random(seed)
    result = SuiteResult("soundness of generated abstractions", cases)
    styles = ("observe", "structural", "none")
    for case in range(cases):
        prog, preds = _pair(rng)
        style = styles[case % len(styles)]
        cfg = bld.AbstractionConfig("prob", style, bld.ParamPolicy.fixed(Fraction(1, 2)))
        aprog, _ = bld.abstract_program(prog, preds, cfg)
        report = theorems.check_sound_prob(prog, aprog, preds)
        if not report.ok:
            result.failures.append(
                f"case {case} [{style}]: {report.counterexamples[0]}"
            )
    return result


_NAIVE_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


def naive_int(e, names, key):
    """Reference value of an integer expression at the state `key`, a tuple
    of values in the order of `names`: a plain recursive walk, kept apart
    from `concrete.compile`, which it checks."""
    if isinstance(e, cc.IntConst):
        return e.value
    if isinstance(e, cc.IntVar):
        return key[names.index(e.name)]
    if isinstance(e, cc.Add):
        return naive_int(e.left, names, key) + naive_int(e.right, names, key)
    if isinstance(e, cc.Sub):
        return naive_int(e.left, names, key) - naive_int(e.right, names, key)
    if isinstance(e, cc.Scale):
        return e.coeff * naive_int(e.operand, names, key)
    raise AssertionError(e)


def naive_cond(c, names, key):
    """Reference truth value of a condition at a state (see `naive_int`)."""
    if isinstance(c, cc.CTrue):
        return True
    if isinstance(c, cc.CFalse):
        return False
    if isinstance(c, cc.Cmp):
        return _NAIVE_CMP[c.op](naive_int(c.left, names, key), naive_int(c.right, names, key))
    if isinstance(c, cc.CNot):
        return not naive_cond(c.operand, names, key)
    if isinstance(c, cc.CAnd):
        return naive_cond(c.left, names, key) and naive_cond(c.right, names, key)
    if isinstance(c, cc.COr):
        return naive_cond(c.left, names, key) or naive_cond(c.right, names, key)
    raise AssertionError(c)


@_timed
def suite_oracle_crosscheck(seed=0, cases=500):
    """Theory-oracle verdicts, masks, α and compiled conditions match an
    independent truth-table evaluator."""
    rng = random.Random(seed)
    result = SuiteResult("theory oracle vs truth-table evaluation", cases)
    for case in range(cases):
        decls = randgen.rand_decls(rng, max_vars=3, max_range=6)
        ctx = theory.TheoryContext(decls)
        a = randgen.rand_cond(rng, decls, depth=2)
        b = randgen.rand_cond(rng, decls, depth=2)
        names = ctx.names
        states = list(ctx.states())
        truth_a = [naive_cond(a, names, z) for z in states]
        naive = all(naive_cond(b, names, z) for z, hit in zip(states, truth_a) if hit)
        if ctx.entails(a, b) != naive:
            result.failures.append(f"case {case}: entails({a}, {b})")
        if ctx.satisfiable(a) != any(truth_a):
            result.failures.append(f"case {case}: satisfiable({a})")
        want = sum(1 << k for k, hit in enumerate(truth_a) if hit)
        if ctx.mask(a) != want:
            result.failures.append(f"case {case}: mask({a})")
        if ctx.mask(cc.CNot(a)) != want ^ ((1 << len(states)) - 1):
            result.failures.append(f"case {case}: mask(!({a}))")
        alpha = PredicateList([("a", a), ("b", b)], ctx).alpha
        if any(alpha(z) != (hit, naive_cond(b, names, z)) for z, hit in zip(states, truth_a)):
            result.failures.append(f"case {case}: alpha over ({a}, {b})")
        fn = cc.compile(a, names)
        if [fn(z) for z in states] != truth_a:
            result.failures.append(f"case {case}: compile({a})")
    return result


def find_smt_solver():
    for name in ("z3", "cvc5"):
        path = shutil.which(name)
        if path:
            return name, path
    return None, None


@_timed
def suite_smt_crosscheck(seed=0, cases=20):
    """External solver agreement on emitted SMT-LIB2 scripts (skips when no
    solver is installed)."""
    rng = random.Random(seed)
    result = SuiteResult("SMT-LIB2 export vs external solver", cases)
    name, path = find_smt_solver()
    if path is None:
        result.skipped = True
        result.failures = []
        return result
    for case in range(cases):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        a = randgen.rand_cond(rng, decls, depth=1)
        b = randgen.rand_cond(rng, decls, depth=1)
        script = theory.emit_smtlib(ctx, "entails", a, b)
        proc = subprocess.run(
            [path, "-"] if name == "z3" else [path, "--lang=smt2"],
            input=script.encode(),
            capture_output=True,
            timeout=30,
        )
        verdict = proc.stdout.decode().strip().splitlines()[-1]
        expected = "unsat" if ctx.entails(a, b) else "sat"
        if verdict != expected:
            result.failures.append(f"case {case}: solver said {verdict}, oracle {expected}")
    return result


ALL_SUITES = (
    suite_theorem1,
    suite_theorem2,
    suite_engine_equivalence,
    suite_invariant_styles,
    suite_generated_soundness,
    suite_oracle_crosscheck,
    suite_smt_crosscheck,
)


def run_all(seed=0, scale=1.0, emit=print):
    results = []
    for suite in ALL_SUITES:
        default = inspect.signature(suite).parameters["cases"].default
        result = suite(seed=seed, cases=max(1, int(default * scale)))
        results.append(result)
        emit(result.line())
    return results
