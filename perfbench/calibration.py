"""A fixed piece of work, timed next to each operation, that measures how
fast the host runs at that moment.

The host this benchmark was built on changes speed by up to 40 % between
one half-minute and the next, and an operation's CPU time moves with its
wall time, so the slowdown is the processor's, not waiting.  The
calibration slows down with it: the ratio of an operation's wall time to
the mean of the calibrations timed right before and right after it repeats
within a few percent where the raw times move by 15-40 %.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.arange(257.0)
_LARGE = np.arange(58081.0)


def calibrate() -> float:
    """Seconds for a mix of the work the operations do, about 30 ms:
    interpreter loops, numpy calls on 257-entry and on 58 081-entry
    arrays, and 17-digit float formatting."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(200):
        float(np.cos(_SMALL * 0.1).sum())
    for _ in range(10):
        float(np.abs(np.exp(-1e-3j * _LARGE)).sum())
    for _ in range(10):
        ",".join(format(x, ".17g") for x in _SMALL / 7.0)
    return time.perf_counter() - t0
