"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was built on changes speed by up to 60% within a
minute (a fixed computation took 1.0 ms, then 1.6 ms), and process CPU time
tracks the change, so raw times from runs minutes apart are not comparable.
The time of a fixed kernel measured between the ops follows the change, but
not one to one: over 200 runs of the four workloads (2-vCPU host), log op
time moved by 0.57 to 1.0 of the change in log kernel time, and in the
host's fast spells the kernel sped up by up to 40% while the ops gained
15-25%.  Every timing the benchmark reports is therefore scaled by a
fractional power of the kernel's speed ratio:

    reported = measured * (REFERENCE_S / k) ** EXPONENT

where ``k`` is the median kernel time over the run.  With EXPONENT 0.5, the
spread (IQR / median over ten seeds) of throughput, p50 and tail averaged
7% over five sets of ten runs per workload, against 11% with full scaling
(exponent 1) and 13% with none; the worst single spread was 18%, against
31% and 34%.  The exponent was chosen on four of the sets and held on the
fifth.

The kernel mixes the three kinds of work the workloads do: a Python loop of
scalar math, QUADPACK calling back into Python, and numpy vector arithmetic.
It does not touch xidist, so no change to the program moves it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.integrate import quad

REFERENCE_S = 1.0e-3  # kernel time of the reference machine
EXPONENT = 0.5  # share of the kernel's speed change applied to the reported times
REPS = 15  # kernel runs per calibration sample; the median is kept
EVERY_S = 0.5  # least time between two samples; long ops get one sample each
_X = np.linspace(0.1, 5.0, 20_000)


def kernel() -> float:
    s = 0.0
    for i in range(3000):
        s += math.exp(-1e-3 * i) * math.cos(0.1 * i)
    s += quad(lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, 20.0, limit=200, epsabs=1e-13, epsrel=0.0)[0]
    return s + float(np.sqrt(_X) @ (np.exp(-_X) * np.cos(3.1 * _X)))


def sample() -> float:
    """Median kernel time over REPS runs, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedTrack:
    """Kernel times sampled between the ops of a run.

    One kernel sample is too short to stand for the speed over a second-long
    op, so the whole run is scaled by the median of its samples; that follows
    the drift between runs, which is what spreads the raw figures.
    """

    def __init__(self):
        self.last = None
        self.values: list[float] = []

    def maybe_sample(self) -> None:
        now = perf_counter()
        if self.last is None or now - self.last >= EVERY_S:
            self.values.append(sample())
            self.last = perf_counter()

    def median_s(self) -> float:
        return statistics.median(self.values)

    def factor(self) -> float:
        """(REFERENCE_S / median kernel time of the run) ** EXPONENT."""
        return (REFERENCE_S / self.median_s()) ** EXPONENT
