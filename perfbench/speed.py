"""The speed of the box while a request runs, for scaling wall times.

A shared host slows every process on it, by up to 60% and for anything from
a fraction of a second to tens of seconds.  `Speedometer` times a fixed
probe of about 1 ms every INTERVAL_S of wall time from a SIGALRM handler, so
the probes interleave with the program's own work.  A wall time multiplied by
`scale(mark)` is the time the same work would take on a box where the probe
takes REFERENCE_PROBE_S: the slowdowns of the host cancel out, while a change
in the program moves the scaled time as much as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.001  # scaled times are seconds at this probe time
_MODULUS = (1 << 256) - 189


def probe() -> float:
    """Seconds the box takes now for a fixed loop of small- and big-integer work.

    The two halves mirror the program's pure-Python point counting and
    mpmath's big-integer mantissas (mpmath runs on Python integers here).
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i % 7
    x = 3
    for i in range(1200):
        x = (x * x + i) % _MODULUS
    return time.perf_counter() - t0


class Speedometer:
    """Probe timings taken every INTERVAL_S between `start` and `stop`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        self.samples.append(probe())  # so that scale() always has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor taking a wall time measured since `mark` to the reference speed.

        Uses the probes taken since `mark`, or the latest one if the
        interval was shorter than INTERVAL_S.
        """
        taken = self.samples[mark:] or self.samples[-1:]
        return REFERENCE_PROBE_S / statistics.fmean(taken)
