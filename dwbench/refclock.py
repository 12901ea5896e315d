"""Host-speed-corrected time from a reference loop sampled during the run.

On a shared host the speed of one virtual CPU drifts by a factor of two
within seconds, and the two CPUs drift independently, so wall time of a
fixed amount of work is not steady.  A timer signal interrupts the process
every ``INTERVAL`` seconds and times a fixed reference loop of small numpy
calls, the kind of call dwlab's time goes to.  Each sample gives the host
speed ``REFERENCE_S / measured`` at that moment.  The corrected length of a
section is the integral of that speed over its wall time, each sample
standing for the time nearest to it, minus the reference loops run inside
the section.  It reads in seconds at the speed where the loop takes
``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.05
# Duration of one reference loop at the nominal speed: about its median on
# the 2-vCPU Xeon host (2.0 GHz) the baseline was measured on.
REFERENCE_S = 3.0e-4

_A = np.array([[2.0, 0.3], [0.3, 1.0]])
_B = np.array([1.0, 2.0])
_M = np.random.default_rng(0).standard_normal((8, 8, 2, 2))
_W = np.random.default_rng(1).standard_normal(8)


def reference_loop():
    s = 0.0
    for _ in range(6):
        s += float(np.linalg.solve(_A, _B)[0])
        s += float(np.tensordot(_W, _M, axes=([0], [0])).sum())
        s += float(np.linalg.eigvalsh(_A)[0])
    return s


class ReferenceClock:
    """Samples host speed on SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, a, b):
        """Corrected length of the wall interval ``[a, b]`` (perf_counter)."""
        ts = np.asarray(self.times)
        if ts.size == 0:
            raise RuntimeError("no reference samples; the timer never fired")
        speed = REFERENCE_S / np.asarray(self.durations)
        mids = (ts[1:] + ts[:-1]) / 2.0
        lo = np.concatenate([[-np.inf], mids])
        hi = np.concatenate([mids, [np.inf]])
        overlap = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
        inside = np.count_nonzero((ts >= a) & (ts < b))
        return float(overlap @ speed) - REFERENCE_S * inside
