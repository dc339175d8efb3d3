"""Machine-speed calibration for timings taken on a noisy shared machine.

On a small shared virtual machine the speed of one core swings by tens of percent
within seconds, while the ratio between the program's time and the time of a
fixed pure-Python loop stays within a few percent. ``SpeedSampler`` runs a
short calibration slice (``cal_slice``, about 0.8 ms on a 2.1 GHz Xeon)
from a SIGALRM handler every 50 ms
while operations run. An operation's time in ``cal`` units is its wall time,
less the time the handler took, divided by the mean slice time measured
during it (at least the last ``MIN_SLICES`` slices). The handler keeps the
process single-threaded; it costs about 2 % of the run.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.05
MIN_SLICES = 4


def _field(t: float, y: tuple) -> tuple:
    a, b, c = y
    return (b, -0.5 * a - 0.1 * b + c * c, -0.25 * c)


def cal_slice() -> float:
    """Seconds taken by the fixed calibration work.

    Two halves of about equal length: float arithmetic in a tight loop, and
    a small tuple-based Runge-Kutta loop with function calls, which is what
    the package's integrators spend their time on. Together they track the
    machine's speed on every workload better than either alone.
    """
    t0 = perf_counter()
    s = 0.0
    for i in range(4000):
        s += (i * 0.5) ** 0.5
    y, t, h = (1.0, 0.0, 0.5), 0.0, 1e-3
    for _ in range(150):
        k1 = _field(t, y)
        k2 = _field(t + 0.5 * h, tuple(yi + 0.5 * h * k for yi, k in zip(y, k1)))
        y = tuple(yi + 0.5 * h * (a + b) for yi, a, b in zip(y, k1, k2))
        t += h
    return perf_counter() - t0


class SpeedSampler:
    """Calibration slices taken on a timer while operations run."""

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0      # seconds spent in the handler, slices included
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.slices.append(cal_slice())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self.slices.extend(cal_slice() for _ in range(MIN_SLICES))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Call ``fn``; return (its result, seconds, seconds in cal units)."""
        first, spent0 = len(self.slices), self.spent
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0 - (self.spent - spent0)
        during = self.slices[min(first, len(self.slices) - MIN_SLICES):]
        return result, seconds, seconds * len(during) / sum(during)
