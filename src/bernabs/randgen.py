"""Seeded random generators for the property suites.

Concrete programs are generated range-safe: every assignment's value
interval, computed over the full declared domain, must fit the target's
range, so sweeps never trip the range-violation error.
"""

from __future__ import annotations

from fractions import Fraction

from bernabs import bern
from bernabs import concrete as cc


# the closed value interval of each node, given its children's intervals
_INTERVAL = {
    cc.IntConst: lambda node, ranges: (node.value, node.value),
    cc.IntVar: lambda node, ranges: (ranges[node.name][0], ranges[node.name][1] - 1),
    cc.Add: lambda node, ranges, a, b: (a[0] + b[0], a[1] + b[1]),
    cc.Sub: lambda node, ranges, a, b: (a[0] - b[1], a[1] - b[0]),
    cc.Scale: lambda node, ranges, a: tuple(sorted((node.coeff * a[0], node.coeff * a[1]))),
}


def expr_interval(e, ranges):
    """The closed interval of `e`'s values when each variable ranges over
    its half-open ``ranges[name]``."""
    return bern.fold(e, lambda node, values: _INTERVAL[type(node)](node, ranges, *values))


def rand_decls(rng, max_vars=3, max_range=8):
    n = rng.randint(1, max_vars)
    decls = []
    for i in range(n):
        size = rng.randint(2, max_range)
        lo = rng.randint(-4, 2)
        decls.append(cc.VarDecl(f"v{i}", lo, lo + size))
    return tuple(decls)


def rand_int_expr(rng, decls, depth=2):
    ranges = {d.name: (d.lo, d.hi) for d in decls}
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            d = rng.choice(decls)
            return cc.IntVar(d.name)
        return cc.IntConst(rng.randint(-3, 3))
    kind = rng.random()
    if kind < 0.4:
        return cc.Add(rand_int_expr(rng, decls, depth - 1), rand_int_expr(rng, decls, depth - 1))
    if kind < 0.8:
        return cc.Sub(rand_int_expr(rng, decls, depth - 1), rand_int_expr(rng, decls, depth - 1))
    return cc.Scale(rng.choice((-2, -1, 2)), rand_int_expr(rng, decls, depth - 1))


def rand_cond(rng, decls, depth=2):
    if depth == 0 or rng.random() < 0.55:
        d = rng.choice(decls)
        op = rng.choice(cc.CMP_OPS)
        if rng.random() < 0.75:
            rhs = cc.IntConst(rng.randint(d.lo - 1, d.hi))
        else:
            rhs = cc.IntVar(rng.choice(decls).name)
        return cc.Cmp(op, cc.IntVar(d.name), rhs)
    kind = rng.random()
    if kind < 0.33:
        return cc.CNot(rand_cond(rng, decls, depth - 1))
    if kind < 0.66:
        return cc.CAnd(rand_cond(rng, decls, depth - 1), rand_cond(rng, decls, depth - 1))
    return cc.COr(rand_cond(rng, decls, depth - 1), rand_cond(rng, decls, depth - 1))


def rand_safe_assign(rng, decls, loc=0):
    """Assignment whose value always stays in the target's range."""
    target = rng.choice(decls)
    ranges = {d.name: (d.lo, d.hi) for d in decls}
    for _ in range(30):
        e = rand_int_expr(rng, decls, depth=rng.randint(0, 2))
        lo, hi = expr_interval(e, ranges)
        if target.lo <= lo and hi < target.hi:
            return cc.Assign(target.name, e, loc)
    return cc.Assign(target.name, cc.IntConst(target.lo), loc)


def rand_draw(rng, decls, loc=0):
    d = rng.choice(decls)
    lo = rng.randint(d.lo, d.hi - 1)
    hi = rng.randint(lo + 1, d.hi)
    return cc.Draw(d.name, lo, hi, loc)


def rand_concrete_program(
    rng,
    max_vars=3,
    max_range=8,
    max_stmts=6,
    draws=False,
    observes=False,
    decls=None,
):
    if decls is None:
        decls = rand_decls(rng, max_vars, max_range)

    def stmts(budget, depth):
        out = []
        while budget > 0:
            budget -= 1
            roll = rng.random()
            if draws and roll < 0.35:
                out.append(rand_draw(rng, decls))
            elif observes and roll < 0.45:
                out.append(cc.Observe(rand_cond(rng, decls)))
            elif roll < 0.75 or depth >= 2:
                out.append(rand_safe_assign(rng, decls))
            else:
                inner = max(1, budget // 2)
                then = stmts(inner, depth + 1)
                els = stmts(inner, depth + 1) if rng.random() < 0.7 else ()
                out.append(cc.If(rand_cond(rng, decls), then, els))
                budget -= inner
        return tuple(out)

    return cc.ConcreteProgram(decls, stmts(rng.randint(1, max_stmts), 0))


def rand_predicates(rng, decls, max_preds=3):
    n = rng.randint(1, max_preds)
    out = []
    for i in range(n):
        out.append((f"p{i}", rand_cond(rng, decls, depth=rng.randint(0, 1))))
    return out


def rand_theta(rng, degenerate_share=0.0):
    if rng.random() < degenerate_share:
        return Fraction(rng.choice((0, 1)))
    den = rng.randint(2, 6)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


class _BernBuilder:
    def __init__(self, rng, names, max_flips, degenerate_share):
        self.rng = rng
        self.names = names
        self.flips_left = max_flips
        self.site = 0
        self.degenerate_share = degenerate_share

    def expr(self, depth=3, allow_flip=True):
        rng = self.rng
        roll = rng.random()
        if allow_flip and self.flips_left > 0 and roll < 0.25:
            self.flips_left -= 1
            site = self.site
            self.site += 1
            return bern.Flip(site, rand_theta(rng, self.degenerate_share))
        if depth == 0 or roll < 0.5:
            if roll < 0.06:
                return rng.choice((bern.BTrue(), bern.BFalse()))
            return bern.BVar(rng.choice(self.names))
        kind = rng.random()
        if kind < 0.25:
            return bern.BNot(self.expr(depth - 1, allow_flip))
        cls = bern.BAnd if kind < 0.55 else (bern.BOr if kind < 0.85 else bern.BImp)
        return cls(self.expr(depth - 1, allow_flip), self.expr(depth - 1, allow_flip))


def rand_bern_cond(rng, names, depth=2):
    """Random flip-free BERN expression over the given variable names, such
    as an init or an observed condition."""
    return _BernBuilder(rng, tuple(names), 0, 0.0).expr(depth, allow_flip=False)


def rand_bern_program(
    rng,
    names=("v0", "v1", "v2"),
    max_flips=6,
    max_stmts=8,
    observes=True,
    degenerate_share=0.0,
):
    """Random probabilistic BERN program over the given variable names."""
    names = tuple(names)
    b = _BernBuilder(rng, names, max_flips, degenerate_share)

    def stmts(budget, depth):
        out = []
        while budget > 0:
            budget -= 1
            roll = rng.random()
            if observes and roll < 0.12:
                out.append(bern.BObserve(b.expr(2, allow_flip=False)))
            elif roll < 0.7 or depth >= 2:
                k = 1 if rng.random() < 0.7 else min(2, len(names))
                targets = rng.sample(list(names), k)
                exprs = tuple(b.expr(rng.randint(0, 3)) for _ in targets)
                out.append(bern.PAssign(tuple(targets), exprs))
            else:
                inner = max(1, budget // 2)
                guard = b.expr(2, allow_flip=rng.random() < 0.4)
                then = stmts(inner, depth + 1)
                els = stmts(inner, depth + 1) if rng.random() < 0.7 else ()
                out.append(bern.BIf(guard, then, els))
                budget -= inner
        return tuple(out)

    body = stmts(rng.randint(1, max_stmts), 0)
    return bern.BernProgram(names, body, "prob" if b.site > 0 else None)
