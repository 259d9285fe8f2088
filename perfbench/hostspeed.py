"""A fixed kernel that times how fast the host runs at the moment.

On a shared host the same pass can take twice as long from one minute to
the next, or within one run. The benchmark times this kernel between
operations and reports its bounded time metrics with each timed call
divided by the kernel's time around that call, which cancels most of that
drift. The kernel mixes what trfam's hot paths do: a Python loop, small
numpy products and a small LAPACK solve. It uses nothing from trfam, so no
change to trfam moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_N = 8
_M = np.eye(_N) * 4.0 + np.arange(_N * _N, dtype=float).reshape(_N, _N) / (_N * _N)
_M = _M + _M.T
_STEPS = 200
PERIOD_S = 0.1  # one sample per this many seconds of run time
MAX_BURST = 10
LOCAL_SAMPLES = 9  # samples behind the host speed at one moment


def kernel() -> float:
    x = np.ones(_N)
    acc = 0.0
    for _ in range(_STEPS):
        y = _M @ x
        z = np.linalg.solve(_M, y + 1.0)
        x = 0.5 * (x + z / float(np.linalg.norm(z)))
        acc += float(x @ y)
    return acc


class Sampler:
    """Times the kernel between operations, once per PERIOD_S that passed
    since the last sample (at most MAX_BURST at a time), so its samples
    spread over the run like the operations' time does."""

    def __init__(self):
        self.samples: list[float] = []
        self.mids: list[float] = []  # perf_counter time halfway through each sample
        self._last = None

    def __call__(self) -> None:
        now = time.perf_counter()
        due = 1 if self._last is None else min(MAX_BURST, int((now - self._last) / PERIOD_S))
        for _ in range(due):
            t0 = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - t0)
            self.mids.append((t0 + self._last) / 2)

    def around(self, t: float) -> float:
        """Median of the LOCAL_SAMPLES samples taken nearest to time t: the
        kernel's time when the host ran as fast as it did at t."""
        i = bisect.bisect(self.mids, t)
        lo = max(0, min(i - LOCAL_SAMPLES // 2, len(self.mids) - LOCAL_SAMPLES))
        return statistics.median(self.samples[lo:lo + LOCAL_SAMPLES])
