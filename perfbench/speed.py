"""The host's speed, measured by a fixed kernel between timed items.

The machines this benchmark runs on are shared: other tenants' work slows
every core by up to 1.8x, in phases of seconds to minutes, and the two
cores of a 2-vCPU guest slow independently.  A fixed kernel, timed on the
benchmark's own thread right before and right after each item, gives the
host's speed at that moment; dividing an item's time by it removes most
of the slowdown.  ``scale`` returns the factor that converts a time taken
at the measured speed into one at the reference speed ``REFERENCE_S``.

The kernel is the benchmark's own and never calls the program, so a
change to the program cannot change the factor.  It mixes the work the
program's items do: a pure-Python loop, and small numpy operations of the
size of one element matrix.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds of one kernel round on the machine the benchmark was written on
# (a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4), at the fast end of its
# speed: the 10th percentile of 30 s of rounds.  Reported times are given
# at this speed.
REFERENCE_S = 0.95e-3

_MATRIX = np.random.default_rng(0).standard_normal((12, 12))


def _round() -> float:
    """Seconds of one kernel round."""
    start = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i % 7
    x = _MATRIX
    for _ in range(150):
        x = np.tanh(_MATRIX @ x * 0.1)
    return time.perf_counter() - start


def measure(seconds: float) -> float:
    """Median seconds of a kernel round over a window of at least
    ``seconds``, and at least one round."""
    rounds = []
    end = time.perf_counter() + seconds
    while True:
        rounds.append(_round())
        if time.perf_counter() >= end:
            return statistics.median(rounds)


def scale(before: float, after: float) -> float:
    """Factor from the speed measured around an item to the reference
    speed."""
    return REFERENCE_S / (0.5 * (before + after))
