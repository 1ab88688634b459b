"""Machine-speed probe: expresses wall time in seconds of a nominal core.

The benchmark runs on shared machines whose cores slow down by up to about
40% for tens of seconds when neighbours are busy; wall-clock figures from
one run to the next then differ by more than any change worth measuring.
While a child process works, a timer interrupts it every ``PERIOD_S`` and
runs a fixed reference computation, timing it. Over any interval the mean
duration of those references says how fast the core ran, and
:meth:`SpeedProbe.nominal` rescales the interval's wall time (less the time
spent in the probe) to a core on which the reference takes
``REF_NOMINAL_S``. The reference is a chain of numpy calls on a 4-element
array, the kind of work that dominates the controller; it tracked the
workloads' slowdowns more closely than a pure-Python loop did. The probe
costs about 1% of the run.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
REF_REPEATS = 6
# Duration of the reference on an idle core of the machine the benchmark
# was calibrated on (Intel Xeon, 2 vCPUs, CPython 3.11, numpy 2.4).
REF_NOMINAL_S = 1.0e-4
_REF_VECTOR = np.array([0.1, -0.3, 0.7, 0.2])


def _reference() -> None:
    v = _REF_VECTOR
    for _ in range(REF_REPEATS):
        e = np.exp(v - v.max())
        c = np.cumsum(e)
        np.searchsorted(c, 0.5 * c[-1])


class SpeedProbe:
    """Samples the reference loop's duration from a SIGALRM interval timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.started = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        _reference()
        self.samples.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        self.started = time.monotonic()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` (``time.monotonic``) on the nominal core."""
        inside = [d for start, d in self.samples if t0 <= start and start + d <= t1]
        work = (t1 - t0) - sum(inside)
        if not inside:
            return work
        return work * REF_NOMINAL_S * len(inside) / sum(inside)
