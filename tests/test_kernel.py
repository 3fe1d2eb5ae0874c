"""The node store: canonical form, every op's result against truth tables
and `apply`'s node ids against a reference recursion, and every fold over
a diagram deeper than the interpreter stack."""

import itertools
import random

import pytest

from bernabs import kernel
from bernabs.kernel import FALSE, OP_AND, OP_IFF, OP_IMP, OP_OR, TRUE

BINARY = {
    OP_AND: lambda a, b: a and b,
    OP_OR: lambda a, b: a or b,
    OP_IMP: lambda a, b: (not a) or b,
    OP_IFF: lambda a, b: a == b,
}


def eval_node(table, u, assignment):
    while u >= 2:
        level, lo, hi = table.node(u)
        u = hi if assignment[level] else lo
    return u == 1


def random_ops(table, rng, num_vars, steps):
    """Grow a pool of nodes by random ops on it.

    Returns the pool and a log of (result, op, args) for every op, where op
    is an ``OP_*`` code of ``apply`` or one of "not", "exists", "restrict".
    """
    pool = [table.var(i) for i in range(num_vars)]
    log = []

    def record(result, op, *args):
        pool.append(result)
        log.append((result, op, args))

    for _ in range(steps):
        op = rng.choice(tuple(BINARY))
        a, b = rng.choice(pool), rng.choice(pool)
        record(table.apply(op, a, b), op, a, b)
        if rng.random() < 0.3:
            u = rng.choice(pool)
            record(table.not_(u), "not", u)
        if rng.random() < 0.2:
            u, levels = rng.choice(pool), tuple(rng.sample(range(num_vars), rng.randint(1, 2)))
            record(table.exists(u, levels), "exists", u, levels)
        if rng.random() < 0.2:
            u, level, value = rng.choice(pool), rng.randrange(num_vars), rng.random() < 0.5
            record(table.restrict(u, level, value), "restrict", u, level, value)
    return pool, log


def test_reduced_and_ordered():
    table = kernel.NodeTable(4)
    random_ops(table, random.Random(0), 4, 120)
    seen = set()
    for u in range(2, len(table)):
        level, lo, hi = table.node(u)
        assert lo != hi, "node with equal children survived"
        assert (level, lo, hi) not in seen, "duplicate node survived"
        seen.add((level, lo, hi))
        for child in (lo, hi):
            assert child < 2 or table.node(child)[0] > level, "order violated"


def test_ops_match_truth_tables():
    num_vars = 5
    table = kernel.NodeTable(num_vars)
    _, log = random_ops(table, random.Random(42), num_vars, 200)
    assert {op for _, op, _ in log} == set(BINARY) | {"not", "exists", "restrict"}
    rows = list(itertools.product((False, True), repeat=num_vars))

    def value(u, bits, fixed=()):
        """u's value at bits, with each (level, v) in `fixed` overriding its bit."""
        bits = list(bits)
        for level, v in fixed:
            bits[level] = v
        return eval_node(table, u, bits)

    for result, op, args in log:
        for bits in rows:
            if op == "not":
                want = not value(args[0], bits)
            elif op == "exists":
                u, levels = args
                want = any(
                    value(u, bits, zip(levels, vs))
                    for vs in itertools.product((False, True), repeat=len(levels))
                )
            elif op == "restrict":
                u, level, v = args
                want = value(u, bits, [(level, v)])
            else:
                want = BINARY[op](value(args[0], bits), value(args[1], bits))
            assert value(result, bits) == want, (op, args, bits)


def test_and_exists_is_exists_of_the_conjunction():
    """The fused and-exists equals the conjunction then the quantification,
    with terminals among the operands and the empty set among the levels."""
    num_vars = 6
    table = kernel.NodeTable(num_vars)
    rng = random.Random(7)
    pool, _ = random_ops(table, rng, num_vars, 150)
    pool += [FALSE, TRUE]
    for trial in range(600):
        u, v = rng.choice(pool), rng.choice(pool)
        if trial % 10 == 0:
            u = rng.choice((FALSE, TRUE))
        levels = rng.sample(range(num_vars), rng.randint(0, num_vars))
        want = table.exists(table.apply(OP_AND, u, v), levels)
        assert table.and_exists(u, v, levels) == want, (u, v, levels)
        assert table.and_exists(v, u, levels) == want


def _reference_apply(table, op, u, v, memo):
    """``apply`` as a terminal-case method and ``mk`` called for every
    step, kept as the reference the inlined recursion must agree with."""

    def shortcut(op, u, v):
        if op == OP_AND:
            if u == FALSE or v == FALSE:
                return FALSE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
            if u == v:
                return u
        elif op == OP_OR:
            if u == TRUE or v == TRUE:
                return TRUE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == v:
                return u
        elif op == OP_IMP:
            if u == FALSE or v == TRUE:
                return TRUE
            if u == TRUE:
                return v
            if v == FALSE:
                return table.not_(u)
            if u == v:
                return TRUE
        elif op == OP_IFF:
            if u == v:
                return TRUE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
            if u == FALSE:
                return table.not_(v)
            if v == FALSE:
                return table.not_(u)
        return -1

    r = shortcut(op, u, v)
    if r >= 0:
        return r
    if op != OP_IMP and u > v:
        u, v = v, u
    key = (op, u, v)
    if key in memo:
        return memo[key]
    (lu, u_lo, u_hi), (lv, v_lo, v_hi) = table.node(u), table.node(v)
    if lu < lv:
        v_lo = v_hi = v
    elif lv < lu:
        u_lo = u_hi = u
    lo = _reference_apply(table, op, u_lo, v_lo, memo)
    hi = _reference_apply(table, op, u_hi, v_hi, memo)
    memo[key] = r = table.mk(min(lu, lv), lo, hi)
    return r


def test_apply_returns_the_reference_node_ids():
    """In one shared table, the inlined ``apply`` and the reference give the
    same node id for every op, both argument orders and terminals among
    the operands: the same hash-consed nodes, whichever made them first."""
    num_vars = 6
    table = kernel.NodeTable(num_vars)
    rng = random.Random(13)
    pool, _ = random_ops(table, rng, num_vars, 120)
    pool += [FALSE, TRUE]
    memo = {}
    for trial in range(1500):
        op = rng.choice(tuple(BINARY))
        u, v = rng.choice(pool), rng.choice(pool)
        if trial % 2:  # the reference first, so the inlined op reads nodes it made
            want = _reference_apply(table, op, u, v, memo)
            got = table.apply(op, u, v)
        else:
            got = table.apply(op, u, v)
            want = _reference_apply(table, op, u, v, memo)
        assert got == want, (op, u, v)
        assert table.apply(op, v, u) == _reference_apply(table, op, v, u, memo)
        if trial % 5 == 0:
            pool.append(got)
    with pytest.raises(ValueError, match="unknown op code 7"):
        table.apply(7, pool[0], pool[1])


def test_and_exists_over_no_level_is_the_conjunction():
    table = kernel.NodeTable(5)
    rng = random.Random(3)
    pool, _ = random_ops(table, rng, 5, 80)
    for _ in range(300):
        u, v = rng.choice(pool + [FALSE, TRUE]), rng.choice(pool + [FALSE, TRUE])
        assert table.and_exists(u, v, ()) == table.apply(OP_AND, u, v)


def test_every_fold_runs_on_a_chain_deeper_than_the_stack():
    """x0 && x2 && ... over 3,200 even levels, each odd level free: every
    op that folds walks all of it, which recursion once per level cannot."""
    n = 3200
    table = kernel.NodeTable(2 * n)
    chain = TRUE
    for level in range(2 * n - 2, -1, -2):
        chain = table.mk(level, FALSE, chain)
    deepest = 2 * n - 2
    assert table.support(chain) == tuple(range(0, 2 * n, 2))
    negated = table.not_(chain)
    assert table.not_(negated) == chain
    assert table.restrict(negated, deepest, False) == TRUE
    shorter = table.restrict(chain, deepest, True)
    assert table.support(shorter) == tuple(range(0, deepest, 2))
    assert table.exists(chain, [deepest]) == shorter
    assert table.restrict(chain, deepest, False) == FALSE
