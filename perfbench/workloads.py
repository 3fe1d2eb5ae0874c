"""Seeded inputs for the three workloads, as the text files a user would pass.

Every problem is generated from ``random.Random`` seeded with the run's seed
and the problem's slot, so one seed always gives the same texts.  The shape
of each slot (domain widths, predicate count, statement pattern, statement
and flip counts) is fixed by its index; the seed picks the expressions,
conditions and constants.  That keeps the cost of a whole problem set close
across seeds, which the run-to-run spread of the end-to-end metrics needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from bernabs import bern, randgen
from bernabs import concrete as cc

WORKLOADS = ("fit-query", "infer", "check")

# Sizes are chosen so that one pass over a problem set takes 4-7 s on a
# 2.1 GHz Xeon with the pure-Python kernel: a 30-s run then repeats the set
# four to six times, and a problem's time can be taken as its median over
# the passes.

# fit-query: random members, CHAIN_DRAWS-shaped members and the ladder.
FIT_RANDOM = 24
FIT_WIDTHS = (6, 7, 8)
FIT_PRED_COUNTS = (4, 5, 6, 7)
FIT_CHAINS = 4
LADDER = (9, 10, 11)

# infer: randgen BERN programs over 12 variables.
INFER_PROGRAMS = 80
INFER_VARS = 12
INFER_STMTS = 10
INFER_FLIPS_PER_STMT = 1

# check: draw-free programs over 8^3 domains with 4 predicates.
CHECK_PROGRAMS = 20
CHECK_WIDTH = 8
CHECK_PREDS = 4


@dataclass(frozen=True)
class Problem:
    """One input set: the texts a CLI user would write to files."""

    name: str
    family: str
    cp: str = ""
    preds: str = ""
    bern: str = ""
    point: dict = field(default_factory=dict)


def _rng(seed, workload, slot):
    return random.Random(f"{workload}/{seed}/{slot}")


def concrete_text(program: cc.ConcreteProgram) -> str:
    lines = [f"var {d.name} in [{d.lo}, {d.hi})" for d in program.decls]

    def emit(body, pad):
        for s in body:
            if isinstance(s, cc.Assign):
                lines.append(f"{pad}{s.name} = {s.expr}")
            elif isinstance(s, cc.Draw):
                lines.append(f"{pad}{s.name} = unif [{s.lo}, {s.hi})")
            elif isinstance(s, cc.Observe):
                lines.append(f"{pad}observe({s.cond})")
            else:
                lines.append(f"{pad}if ({s.cond}) {{")
                emit(s.then, pad + "  ")
                if s.els:
                    lines.append(f"{pad}}} else {{")
                    emit(s.els, pad + "  ")
                lines.append(f"{pad}}}")

    emit(program.body, "")
    return "\n".join(lines) + "\n"


def preds_text(pairs) -> str:
    return "".join(f"{label}: {cond}\n" for label, cond in pairs)


def _decls(rng, widths):
    out = []
    for i, w in enumerate(widths):
        lo = rng.randint(-4, 2)
        out.append(cc.VarDecl(f"v{i}", lo, lo + w))
    return tuple(out)


def _fit_random(seed, slot):
    rng = _rng(seed, "fit-query", slot)
    widths = tuple(FIT_WIDTHS[(slot + k) % len(FIT_WIDTHS)] for k in range(3))
    decls = _decls(rng, widths)
    n_preds = FIT_PRED_COUNTS[slot % len(FIT_PRED_COUNTS)]
    body = (
        randgen.rand_draw(rng, decls),
        cc.If(
            randgen.rand_cond(rng, decls, depth=1),
            (randgen.rand_safe_assign(rng, decls),),
            (randgen.rand_draw(rng, decls),),
        ),
        randgen.rand_safe_assign(rng, decls),
    )
    program = cc.ConcreteProgram(decls, body)
    pairs = [(f"p{i}", randgen.rand_cond(rng, decls, depth=rng.randint(0, 1))) for i in range(n_preds)]
    return Problem(f"fit-query/random{slot}", "random", cp=concrete_text(program), preds=preds_text(pairs))


def _fit_chain(seed, slot):
    """a -> b -> c chain of draws, one predicate per variable (as CHAIN_DRAWS)."""
    rng = _rng(seed, "fit-query-chain", slot)
    hi = [rng.randint(4, 16) for _ in range(5)]
    cut = [rng.randint(1, hi[0] - 1), rng.randint(1, min(hi[1], hi[2]) - 1), rng.randint(1, min(hi[3], hi[4]) - 1)]
    cp = (
        "var a in [0, 16)\nvar b in [0, 16)\nvar c in [0, 16)\n"
        f"a = unif [0, {hi[0]})\n"
        f"if (a < {cut[0]}) {{ b = unif [0, {hi[1]}) }} else {{ b = unif [0, {hi[2]}) }}\n"
        f"if (b < {cut[1]}) {{ c = unif [0, {hi[3]}) }} else {{ c = unif [0, {hi[4]}) }}\n"
    )
    preds = f"a<{cut[0]}: a < {cut[0]}\nb<{cut[1]}: b < {cut[1]}\nc<{cut[2]}: c < {cut[2]}\n"
    return Problem(f"fit-query/chain{slot}", "chain", cp=cp, preds=preds)


def _fit_ladder(seed, n):
    """n two-valued variables, one independent predicate each: all 2^n minterms feasible."""
    rng = _rng(seed, "fit-query-ladder", n)
    lines = [f"var x{i} in [0, 2)" for i in range(n)]
    drawn = rng.sample(range(n), 2)
    lines += [f"x{i} = unif [0, 2)" for i in drawn]
    preds = "".join(f"x{i}: x{i} == {rng.randint(0, 1)}\n" for i in range(n))
    return Problem(f"fit-query/ladder{n}", "ladder", cp="\n".join(lines) + "\n", preds=preds)


def fit_query_inputs(seed):
    out = [_fit_random(seed, slot) for slot in range(FIT_RANDOM)]
    out += [_fit_chain(seed, slot) for slot in range(FIT_CHAINS)]
    out += [_fit_ladder(seed, n) for n in LADDER]
    return out


def infer_inputs(seed):
    """Each program is INFER_STMTS top-level statements, each one drawn by
    ``randgen.rand_bern_program`` with a one-statement budget and at most
    INFER_FLIPS_PER_STMT flips, so every program has the same shape."""
    names = tuple(f"v{i}" for i in range(INFER_VARS))
    decls = "".join(f"bool {n}\n" for n in names)
    out = []
    for slot in range(INFER_PROGRAMS):
        rng = _rng(seed, "infer", slot)
        lines = []
        for _ in range(INFER_STMTS):
            stmt = randgen.rand_bern_program(rng, names, max_flips=INFER_FLIPS_PER_STMT, max_stmts=1)
            lines += bern.to_text(stmt).splitlines()[len(names):]
        point = {n: rng.random() < 0.5 for n in names}
        out.append(Problem(f"infer/{slot}", "infer", bern=decls + "\n".join(lines) + "\n", point=point))
    return out


def check_inputs(seed):
    out = []
    for slot in range(CHECK_PROGRAMS):
        rng = _rng(seed, "check", slot)
        decls = _decls(rng, (CHECK_WIDTH,) * 3)
        body = (
            randgen.rand_safe_assign(rng, decls),
            cc.If(
                randgen.rand_cond(rng, decls, depth=1),
                (randgen.rand_safe_assign(rng, decls),),
                (randgen.rand_safe_assign(rng, decls),),
            ),
        )
        program = cc.ConcreteProgram(decls, body)
        pairs = [(f"p{i}", randgen.rand_cond(rng, decls, depth=rng.randint(0, 1))) for i in range(CHECK_PREDS)]
        out.append(Problem(f"check/{slot}", "check", cp=concrete_text(program), preds=preds_text(pairs)))
    return out


def inputs(workload, seed):
    return {"fit-query": fit_query_inputs, "infer": infer_inputs, "check": check_inputs}[workload](seed)
