"""Machine-speed sampler that takes the host's speed swings out of the times.

The benchmark runs on a small virtual machine that shares its host with
other tenants. The speed of its cores drifts by tens of percent over seconds
to minutes: a fixed Python loop took anywhere from 12.9 to 18 ms within one
40 s window on a 2-vCPU Xeon. Wall times from such a machine spread more
between runs than any regression bound allows.

While a run is measured, a timer signal runs a fixed kernel every 50 ms:
once to bring its few hundred kilobytes back into cache, and once timed, so
that the sample sees the core's speed and not what the workload left in the
cache. Each workload names the kernel that resembles its own work:

- ``python``: numpy on 15-element arrays plus plain Python arithmetic, the
  mix of the quadrature and inversion code;
- ``vector``: vectorised numpy over 10k-element arrays, the mix of the
  Monte-Carlo kernels.

A measured interval is then scaled by the kernel's reference duration over
the mean sample duration around it. That states every time at the speed of
a machine on which one sample takes the reference duration. The reference
durations are fixed constants, close to the kernels' fast state on the
machine that recorded the baseline. The kernels never call the library, so
a change that makes it faster or slower moves the scaled times by the same
factor as the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# intervals shorter than this are scaled by the samples in a window of this
# width around their midpoint
MIN_WINDOW_S = 2.0

_X = np.linspace(0.1, 10.0, 15)
_U = np.random.default_rng(1).random(10_000)
_V = np.random.default_rng(2).random(10_000)
_GROUP = np.repeat(np.arange(100), 100)


def _python_kernel() -> float:
    s = 0.0
    for i in range(60):
        y = np.exp(-0.3 * _X) * np.sin(_X * (i * 1e-3))
        s += float(np.dot(y, _X))
        s += sum(j * j for j in range(20))
    return s


def _vector_kernel() -> float:
    rad = 50.0 * np.sqrt(_U)
    ang = 2.0 * np.pi * _V
    x, y = rad * np.cos(ang), rad * np.sin(ang)
    hit = (np.abs(y) < 0.5) & (x > 0.5) & (x < 40.0)
    return float(np.bincount(_GROUP[hit], minlength=100).sum())


# kernel and its reference sample duration [s]
KERNELS = {"python": (_python_kernel, 0.30e-3),
           "vector": (_vector_kernel, 0.50e-3)}


class SpeedSampler:
    """Context manager that samples the machine's speed on SIGALRM."""

    def __init__(self, kernel: str):
        self._kernel, self.reference_s = KERNELS[kernel]
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_sample(self, t0: float, t1: float) -> float:
        """Mean sample duration over [t0, t1], widened to MIN_WINDOW_S."""
        mid = 0.5 * (t0 + t1)
        lo = bisect.bisect_left(self.starts, min(t0, mid - 0.5 * MIN_WINDOW_S))
        hi = bisect.bisect_right(self.starts, max(t1, mid + 0.5 * MIN_WINDOW_S))
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no speed samples around the interval")
        return sum(window) / len(window)

    def scaled(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] at the reference speed, in seconds."""
        return (t1 - t0) * self.reference_s / self.mean_sample(t0, t1)
