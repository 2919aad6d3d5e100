"""Host-speed calibration.

On a shared machine the same batch takes up to 1.5x longer when the host is
busy, and whole runs drift by 15-25%. Every timing is therefore also scaled
by CAL_REF_S / (time of a fixed calibration kernel measured right before and
right after it). The kernel mixes the kinds of work the library does
(density-like method calls, QUADPACK calling back into Python, small numpy
and Philox calls) and does not touch levyarc, so a change to the library
cannot move it. The raw wall times are kept in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

# the kernel's time on an idle core of the machine the benchmark was tuned on
CAL_REF_S = 0.005


class _Source:
    """A density-like object: the library spends its time in calls like this."""

    def __init__(self, a: float):
        self.a = a

    def value(self, r: float) -> float:
        if r <= 0.0:
            return 0.0
        return math.exp(self.a * math.log(r) - r)


def _kernel() -> float:
    src = _Source(-0.5)
    x = 0.0
    for i in range(1, 8001):
        x += src.value(i * 1e-3)
    for s in (0.5, 1.0, 2.0):
        val, _ = integrate.quad(lambda t: src.value(t) / math.sqrt(t + s), 0.0, 40.0,
                                limit=200, epsabs=1e-13, epsrel=1e-13)
        x += val
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    for _ in range(200):
        a = rng.standard_normal(64)
        x += float(a.sum()) + float(np.repeat(a[:8], 2)[0])
    return x


def calibrate(repeats: int = 2) -> float:
    """Seconds of the calibration kernel: the fastest of `repeats` runs."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
