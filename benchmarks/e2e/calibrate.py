"""Machine-speed normalisation for host wall-clock times.

The sandbox this benchmark runs in changes speed under the program's feet:
for 5-15 seconds at a time every Python process runs 15-60% slower (CPU
time tracks wall time, so it is contention for the core, not descheduling),
which moved the median pass time of a whole 24-second run by up to 45%
between two runs of the same commit and seed.  No amount of repetition
inside one run averages that out.

So every timed interval is bracketed by two runs of a small frozen kernel,
half interpreter-bound (dict updates) and half numpy-bound (stable sort,
gather, prefix sum), and reported as ``raw seconds x REFERENCE_S / mean of
the two kernel times``: seconds on a machine that runs the kernel in
exactly ``REFERENCE_S``.  On the ten-minute series recorded in README.md
that cut the spread between runs from 9.4% to 2-3.6%.  The raw times are
printed beside the normalised ones.

The kernel must never change, and never call into ``repro``: it is the
yardstick, so a change to it (or to what it calls) moves every number.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_S", "calibrate", "normalised"]

#: what the kernel takes on the recording machine in its fast state
REFERENCE_S = 0.075

_ARRAY = np.arange(200_000, dtype=np.int64)


def calibrate() -> float:
    """Run the frozen kernel once; returns its wall seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(200_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    for _ in range(8):
        order = np.argsort((_ARRAY * 2654435761) & 0xFFFFF, kind="stable")
        _ARRAY[order].cumsum()
    return time.perf_counter() - start


def normalised(raw_seconds: float, before: float, after: float) -> float:
    """``raw_seconds`` at the reference machine speed, given the kernel's
    times just before and just after the interval."""
    return raw_seconds * REFERENCE_S / ((before + after) / 2)
