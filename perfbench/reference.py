"""A fixed task that calls no weylkit code, timed inside every benchmark process.

On a shared host the speed of a core drifts: raw run times of one workload
moved by a quarter from one minute to the next on a 2-vCPU VM, too much for
any bound a benchmark can keep.  Each benchmark process times this task
``REPS`` times just before its run and as many times just after, on the
same core and at nearly the same moment as the run, and ``run.py`` divides
the run's time by the task's; the ratio cancels most of the drift, and no
change to weylkit can move the task itself.

The task is about 40 ms of interpreted Fraction and dict work, the idiom
weylkit spends its time in, and it holds almost no memory, so peak RSS
still measures weylkit.  Timing it from the parent process instead, and
mixing in BLAS, cache-missing, memory-churning or fresh-interpreter work,
were tried: each followed the workloads less well than this task alone,
and some of them spread more across runs than the raw seconds did.
"""

from __future__ import annotations

import time
from fractions import Fraction

REPS = 3


def task() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 4000):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return acc + len(counts)


def sample() -> list[tuple[float, float]]:
    """(wall, CPU) seconds of each of ``REPS`` runs of the task."""
    out = []
    for _ in range(REPS):
        w, c = time.perf_counter(), time.process_time()
        task()
        out.append((time.perf_counter() - w, time.process_time() - c))
    return out
