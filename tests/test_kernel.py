"""The node store: canonical form, every op's result against truth tables,
and every fold over a diagram deeper than the interpreter stack."""

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
    is an ``OP_*`` code of ``apply`` or one of "not", "exists", "restrict",
    "rename".  A rename map sends the support of its operand to levels in
    the same order.
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
        if rng.random() < 0.2:
            u = rng.choice(pool)
            support = table.support(u)
            perm = dict(zip(support, sorted(rng.sample(range(num_vars), len(support)))))
            record(table.rename(u, perm), "rename", u, perm)
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
    assert {op for _, op, _ in log} == set(BINARY) | {"not", "exists", "restrict", "rename"}
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
            elif op == "rename":
                u, perm = args
                want = value(u, bits, [(level, bits[new]) for level, new in perm.items()])
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


def test_rename_rejects_a_reordering_map():
    table = kernel.NodeTable(3)
    a, b = table.var(0), table.var(1)
    conj = table.apply(OP_AND, a, table.not_(b))
    with pytest.raises(ValueError):
        table.rename(conj, {0: 1, 1: 0})
    with pytest.raises(ValueError):
        table.rename(conj, {0: 1})  # onto a level the diagram holds below
    assert table.rename(a, {0: 1, 1: 0}) == b  # no path holds both levels


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
    moved = table.rename(chain, {level: level + 1 for level in range(0, 2 * n, 2)})
    assert table.support(moved) == tuple(range(1, 2 * n, 2))
    assert table.rename(moved, {level + 1: level for level in range(0, 2 * n, 2)}) == chain
