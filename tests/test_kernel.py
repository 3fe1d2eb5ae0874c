"""The node store: canonical form, and every op's result against truth tables."""

import itertools
import random

from bernabs import kernel
from bernabs.kernel import OP_AND, OP_IFF, OP_IMP, OP_OR, OP_XOR

BINARY = {
    OP_AND: lambda a, b: a and b,
    OP_OR: lambda a, b: a or b,
    OP_XOR: lambda a, b: a != b,
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


def test_rename_swaps_levels():
    table = kernel.NodeTable(3)
    a, b = table.var(0), table.var(1)
    conj = table.apply(OP_AND, a, table.not_(b))
    swapped = table.rename(conj, {0: 1, 1: 0})
    for bits in itertools.product((False, True), repeat=3):
        want = bits[1] and not bits[0]
        assert eval_node(table, swapped, bits) == want


def test_ite_matches_apply():
    table = kernel.NodeTable(4)
    rng = random.Random(3)
    pool, _ = random_ops(table, rng, 4, 60)
    for _ in range(40):
        f, g, h = (rng.choice(pool) for _ in range(3))
        r = table.ite(f, g, h)
        for bits in itertools.product((False, True), repeat=4):
            want = eval_node(table, g if eval_node(table, f, bits) else h, bits)
            assert eval_node(table, r, bits) == want
