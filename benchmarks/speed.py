"""Machine-speed probe, so that solve times compare across a shared machine.

On a machine shared with other tenants, the same solve takes 30% longer or
shorter from one minute to the next, in CPU time as well as in wall time (on
a 2-vCPU Xeon VM, one fixed gd solve repeated for five minutes ranged over
0.20-0.40 s). No median over a run of tens of seconds removes drifts
that slow. So while the benchmark measures, a SIGALRM handler runs a fixed
reference kernel every ``PERIOD_S`` seconds in the measuring thread itself,
and each solve's wall time is scaled by how long the kernel took during
that solve:

    scaled_s = (wall_s - probe_s) * REF_KERNEL_S / mean kernel time

``REF_KERNEL_S`` is a constant, so a scaled second is a wall second on a
machine where the kernel takes that long. The kernel mixes the two kinds of
work sloopt does: a Python loop of small numpy operations, and tensor
contractions of the size of the dense ``d=8, k=5`` oracle. Scaling does
not remove all of the drift: the kernel and sloopt are not slowed alike by
every kind of contention. On the same machine, the spread of per-run
medians over five runs fell from 20-40% (wall) to 4-10% (scaled).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
WINDOW_S = 1.0
REF_KERNEL_S = 6.0e-4
_V = np.linspace(0.0, 1.0, 50)
_T = np.linspace(-1.0, 1.0, 8 ** 5).reshape((8,) * 5)
_U = np.linspace(0.0, 0.3, 8)


def kernel() -> float:
    x, acc = _V, 0.0
    for _ in range(200):
        x = x * 0.999 + 0.001
        acc += float(np.dot(x, x))
    for _ in range(4):
        c = _T
        while c.ndim > 1:
            c = np.tensordot(c, _U, axes=([c.ndim - 1], [0]))
        acc += float(np.sum(c))
    return acc


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REF_KERNEL_S / kernel_s


def kernel_seconds(repeats: int) -> float:
    """Median time of the kernel, for one-off measurements such as set-up."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Context manager that samples the kernel every PERIOD_S seconds of wall time."""

    def __init__(self):
        self.samples = []   # (start, end) of each kernel run

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        for _ in range(3):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent outside the probe, at reference speed.

        Call it once the probe has stopped. The speed is the mean of the
        kernel runs in [t0, t1], widened to at least ``WINDOW_S`` around its
        middle: a single kernel run is noisy, and a short call would
        otherwise be scaled by one or two of them.
        """
        busy = sum(e - s for s, e in self.samples if t0 <= s and e <= t1)
        mid, half = 0.5 * (t0 + t1), max(0.5 * (t1 - t0), 0.5 * WINDOW_S)
        window = [e - s for s, e in self.samples if abs(s - mid) <= half]
        if not window:
            window = [e - s for s, e in sorted(self.samples, key=lambda se: abs(se[0] - mid))[:3]]
        return scale(t1 - t0 - busy, statistics.mean(window))
