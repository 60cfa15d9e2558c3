"""The machine's speed of the moment, from a fixed pure-Python loop.

The machines this benchmark runs on are shared, and their speed drifts by
20-30% over tens of seconds as other tenants come and go.  The drift slows
pure-Python work and this loop alike, so on the certify and explore
workloads, whose work is pure Python in one process, set-up and operation
times are reported at a fixed reference speed: a time t measured in a
process whose loop runs f times slower than its nominal time is reported as
t / f.  The loop uses nothing of arq2d, so no change to the package can
move it.

The loop was not shown to track the cli workload, whose operations are
fresh interpreters spent mostly on start-up and imports: scaling them by
it, or by a reference interpreter that imports standard library modules,
left their run-to-run spread as wide or wider.  Its times are reported as
measured.
"""

from __future__ import annotations

import statistics
import time

LOOP = 50000
LOOP_MS = 10.0  # the loop's time at the reference speed
REPEATS = 3


def _loop_ms() -> float:
    # Nothing the garbage collector tracks is allocated in the loop, so no
    # collection of the calling process's heap, whose size the program
    # sets, can fall inside it.
    table = dict.fromkeys(range(997), 0)
    t0 = time.perf_counter()
    for i in range(LOOP):
        table[i % 997] = table[i % 997] + i
    return (time.perf_counter() - t0) * 1000.0


def loop_factor() -> float:
    """How many times slower than the reference speed the loop runs now,
    median of a few repeats."""
    return statistics.median(_loop_ms() for _ in range(REPEATS)) / LOOP_MS
