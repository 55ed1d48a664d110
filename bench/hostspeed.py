"""Host speed probe: a fixed pure-Python kernel timed between workload items.

On a shared virtual machine the same item runs at speeds up to 2x apart,
each held for seconds to minutes and set by other tenants; the CPU clock
slows with the wall clock, so neither clock alone is steady across runs.
The benchmark times ``kernel()`` right before and right after each item and
rescales the item's time by ``REFERENCE_S / kernel time``: the result is
the item's time at the speed where the kernel takes ``REFERENCE_S``.  A
change to quiverz moves the item's time and not the kernel's, so it shows
in full; a slow spell of the host moves both and cancels out.

The kernel does the kinds of work quiverz does, and nothing of quiverz
itself: mod-p multiply-adds over lists, small matrix products through
helper calls, tuple building and dict stores.
"""

from __future__ import annotations

import time

P = 32003
# kernel() takes about this long on one vCPU of an Intel Xeon virtual
# machine with CPython 3.11.7, in the host's faster spells.
REFERENCE_S = 0.005
# One kernel call is too short to judge the speed next to a suite item of
# several seconds.  A probe makes at least REPEATS calls and runs for at
# least SHARE of the item beside it: on suite, probes of about 0.2 s around
# each item halved the item-to-item spread of the scaled times, against
# five calls a side.
REPEATS = 5
SHARE = 0.05


def _madd(x: int, y: int) -> int:
    return (x * y + 1) % P


def kernel() -> int:
    acc = 0
    row = list(range(1, 101))
    for i in range(320):
        acc = (acc + sum([(x * (i + 7) + acc) % P for x in row])) % P
    m = [[(i * 7 + j) % P for j in range(8)] for i in range(8)]
    seen: dict = {}
    for r in range(12):
        m = [[sum(_madd(m[i][k], m[k][j]) for k in range(8)) % P for j in range(8)] for i in range(8)]
        seen[(r, acc)] = tuple(m[0])
        acc = (acc + m[1][2]) % P
    return acc


def probe(min_s: float = 0.0) -> tuple:
    """Mean wall and CPU seconds of one ``kernel()`` call, over at least
    ``REPEATS`` back-to-back calls that take at least ``min_s`` together."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    calls = 0
    while calls < REPEATS or time.perf_counter() - t0 < min_s:
        kernel()
        calls += 1
    return (time.perf_counter() - t0) / calls, (time.process_time() - c0) / calls
