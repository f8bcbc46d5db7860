"""Reference-speed time: wall time corrected for the host's speed at that moment.

The benchmark runs on a few cores of a shared host.  A neighbour's load
slows this process by up to 2x, in episodes of one to several seconds,
and the share of slow time drifts from minute to minute, so the wall
time of one request stream varies by 25% to 60% (interquartile range
over the median) between runs of the same code.  The probe measures that slowdown where it happens: every
``PERIOD_S`` a timer signal runs ``probe`` (an exact determinant by
``Fraction`` elimination, about 0.3 ms, the same kind of work as
kralldh's) in the benchmark's own thread, between two bytecodes of
whatever is running.

An interval's reference-speed time is its wall time, less the probes
inside it, times ``REFERENCE_PROBE_S`` over the mean probe time around
it: the time the interval would have taken had the host run the probe
in exactly ``REFERENCE_PROBE_S``.  The probe does not touch kralldh, so
a change to kralldh moves reference-speed times as much as wall times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# a round value between the probe's time in the host's fast and slow
# states (about 200 and 400 us on a 2-vCPU Xeon VM), so reference-speed
# times read close to typical wall times there
REFERENCE_PROBE_S = 300e-6

# the probe's matrix: entries of a few digits, and no leading minor is
# zero, so elimination needs no pivoting
MATRIX = tuple(
    tuple(Fraction(i * i + 3 * j * j + i * j + 1, i + j + 2) for j in range(6))
    for i in range(6)
)


def probe() -> float:
    """One fixed unit of work, an exact 6x6 determinant by fraction-valued
    elimination; returns its wall time in seconds.

    The collector is off while it runs, so a collection of garbage that
    kralldh left behind is not charged to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = [list(row) for row in MATRIX]
        for c in range(len(rows)):
            for r in range(c + 1, len(rows)):
                f = rows[r][c] / rows[c][c]
                for k in range(c, len(rows)):
                    rows[r][k] -= f * rows[c][k]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes the host's speed every PERIOD_S while the ``with`` block runs.

    Uses SIGALRM and ITIMER_REAL, so only one may be active in a process,
    and only in the main thread.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        spent = probe()
        self.starts.append(start)
        self.times.append(spent)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # one sample before the first interval, so every interval has a
        # probe near it
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def wall_time(self, start: float, end: float) -> float:
        """Wall time of the interval [start, end] less the probes inside it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return end - start - sum(self.times[lo:hi])

    def reference_time(self, start: float, end: float) -> float:
        """Reference-speed time of the interval [start, end]."""
        # the probes inside the interval and within one period of it
        lo = bisect.bisect_left(self.starts, start - PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + PERIOD_S)
        near = self.times[lo:hi]
        if not near:
            # a long native call held the signal back: take the next probe
            near = [self.times[min(lo, len(self.times) - 1)]]
        return self.wall_time(start, end) * REFERENCE_PROBE_S / statistics.fmean(near)
