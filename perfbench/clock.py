"""Time calibrated against the machine's current speed.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed drifts by 20-70 % within seconds as they come
and go; the guest kernel shows no steal time for it.  Raw wall time
therefore spread by 20-30 % between runs, too much to tell a 10 % change
from noise.

SpeedGauge measures refjob.slowdown() every INTERVAL_S of wall time from
a SIGALRM handler, so samples land inside long library calls too.  The
calibrated cost of a timed stretch is each part of it between samples
divided by the slowdown measured around it, with the time spent in the
handler left out: roughly the wall time the stretch would take on an
uncontended core.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter_ns

from refjob import slowdown

INTERVAL_S = 0.05
SMOOTHING = 5  # samples in the running median of slowdowns


class SpeedGauge:
    """Context manager that samples the slowdown while it is open."""

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._raw: list[float] = []
        self._factor: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter_ns()
        self._raw.append(slowdown())
        self._starts.append(t0)
        self._ends.append(perf_counter_ns())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        half = SMOOTHING // 2
        self._factor = [statistics.median(self._raw[max(0, k - half):k + half + 1])
                        for k in range(len(self._raw))]
        self._at_end = []  # calibrated time at the end of each sample
        at = 0.0
        for k in range(1, len(self._starts) + 1):
            self._at_end.append(at)
            if k < len(self._starts):
                at += (self._starts[k] - self._ends[k - 1]) / self._factor[k]
        return False

    @property
    def samples(self) -> int:
        return len(self._starts)

    @property
    def median_slowdown(self) -> float:
        return statistics.median(self._raw)

    def calibrated(self, t: int) -> float:
        """Calibrated ns at the perf_counter_ns() reading t.  The calibrated
        clock advances by wall time over the slowdown sampled at the end of
        each stretch between samples, and stands still inside samples."""
        if not self._factor:
            raise RuntimeError("no speed samples; time a longer stretch")
        k = bisect.bisect_right(self._starts, t)
        if k == 0:
            return (t - self._starts[0]) / self._factor[0]
        if t < self._ends[k - 1]:
            return self._at_end[k - 1]
        factor = self._factor[min(k, len(self._factor) - 1)]
        return self._at_end[k - 1] + (t - self._ends[k - 1]) / factor

    def cost(self, t0: int, t1: int) -> float:
        """Calibrated ns of the wall stretch [t0, t1] (perf_counter_ns)."""
        return self.calibrated(t1) - self.calibrated(t0)
