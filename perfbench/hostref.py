"""A fixed piece of reference work that gauges the host's current speed.

The host this benchmark was written on runs the same Python code up to 30%
slower or faster for seconds to minutes at a time, because other tenants
share its cores and caches.  Every pass of a workload interleaves short
``chunk()`` calls with its problems; the median chunk time of the pass says
how fast the host ran during it, and ``scale(chunk_times)`` turns seconds
measured in that pass into seconds at the nominal speed ``CHUNK_S``.

The chunk is plain Python that uses nothing of bernabs, so a change to the
program never changes it.  Its instruction mix follows the program's:
tuple-keyed dict lookups into a unique table, a memo dict, small-object
allocation and ``Fraction`` arithmetic.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

CHUNK_STEPS = 2000
# About the median chunk time on a 2.1 GHz Xeon with CPython 3.11: the
# speed that scaled times are expressed at.
CHUNK_S = 0.005


def chunk(steps=CHUNK_STEPS):
    """Fixed work: hash-cons random nodes and keep a Fraction per memo entry."""
    table, memo = {}, {}
    nodes = [(0, 0, 0), (0, 1, 1)]
    x, acc = 1, Fraction(0)
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 13, x % 7 % len(nodes), (x >> 8) % len(nodes))
        if key[1] != key[2] and key not in table:
            table[key] = len(nodes)
            nodes.append(key)
        memo[(table.get(key, 0), i & 63)] = Fraction(x % 97, 1 + x % 89)
        if i % 16 == 0:
            acc += memo[(table.get(key, 0), i & 63)]
    return len(nodes), acc


def timed_chunk():
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0


def scale(chunk_times):
    """Factor from seconds measured alongside `chunk_times` to seconds at nominal speed."""
    return CHUNK_S / statistics.median(chunk_times)
