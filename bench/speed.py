"""Machine-speed reference, so that times from a shared, drifting host compare.

The benchmark runs on a small VM whose speed drifts by 20 % and more within
a minute (neighbours on the host, not the program). A fixed reference kernel,
timed between requests throughout the timed region, measures the speed the
run actually got. Every reported time is scaled to the reference speed:

    time at reference speed = measured time * REF_S / mean(kernel times in the run)

The kernel is the benchmark's own code, numpy and plain Python only, like
the mix of vectorised transcendentals and interpreter work in ddmemory's hot
path. It never calls ddmemory, so a change
to the program cannot change the reference.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

import numpy as np

# median kernel time on the machine the bounds were set on (2-vCPU Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6, one BLAS thread)
REF_S = 0.025
# one kernel sample (about 20 ms) per INTERVAL_S of run time costs about 7 % of it
INTERVAL_S = 0.3
MAX_BURST = 20

_X = np.random.default_rng(0).standard_normal(60_000)


def kernel() -> float:
    """Fixed work: cos and exp over a 60k-point array, then a plain Python loop.

    Of the kernels tried, this mix followed the speed of `chi` and
    `best_sequence` calls most closely on the reference machine. Over
    2.5 s windows of a 180 s run, the log of their times had a standard
    deviation of 0.15 and 0.12, and of their ratio to this kernel 0.071 and
    0.042 (slopes 0.98 and 0.86). The array part alone left 0.070 and
    0.056, the loop alone 0.092 and 0.068, a small dense chi quadrature
    like the reference's 0.086 and 0.066, and a memory-bound 32 MB fill
    and sum tracked worst.
    """
    y = _X
    for _ in range(8):
        y = np.cos(y * 1.0001) + np.exp(-y * y)
    s = 0.0
    for i in range(100_000):
        s += (i % 7) * 0.5
    return float(y.sum()) + s


class Meter:
    """Kernel samples spread evenly in time over the timed region.

    Samples can only be taken between requests, so after a long request a
    tick takes one sample per INTERVAL_S it lasted (at most MAX_BURST):
    every stretch of the run gets about one sample per INTERVAL_S.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last: Optional[float] = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def tick(self) -> None:
        """Sample once per INTERVAL_S elapsed since the last sample."""
        if self._last is None:
            self.sample()
            return
        due = int((time.perf_counter() - self._last) / INTERVAL_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def scale(self) -> float:
        """Factor that takes this run's times to the reference speed.

        The speed flips between fast and slow states lasting seconds, so the
        samples are often bimodal; a mean (trimmed of its outer tenths,
        mostly preemptions) follows the share of time spent in each state,
        where a median would jump between them. Scaling each request by the
        samples nearest to it instead left the spread between runs no
        smaller.
        """
        x = sorted(self.samples)
        cut = len(x) // 10
        return REF_S / statistics.fmean(x[cut:len(x) - cut])
