"""Machine-pace calibration for a shared, noisy host.

On a shared machine the same work can take up to twice as long during
phases that last tens of seconds, because other tenants load the host.  A
fixed calibration kernel, independent of harmflow but made of the same kind
of work (Python loop overhead, small numpy arrays and an 11x11 LU solve, as
in the solver's step loop), is timed every ``INTERVAL_S`` from a timer
signal while a workload runs.  The kernel's mean time over an interval,
divided by ``REFERENCE_S``, is the machine's pace there; a timing divided by
the pace reads as seconds on an unloaded machine.  The time the handler
itself takes is recorded so callers can subtract it from what they timed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# The kernel's time on an unloaded core of the reference machine (2-vCPU
# KVM guest, Xeon at 2.1 GHz, numpy 2.4, scipy 1.17).  Only a unit: pace
# ratios, not this constant, carry the correction.
REFERENCE_S = 0.0050
INTERVAL_S = 0.25
_LOOPS = 400


class Kernel:
    def __init__(self) -> None:
        a = np.random.default_rng(0).standard_normal((11, 11)) + 11.0 * np.eye(11)
        self._lu = lu_factor(a)

    def __call__(self) -> float:
        """Run the kernel once; return its time in seconds."""
        start = time.perf_counter()
        b = np.ones(11)
        x = np.zeros((4, 3))
        y = np.ones((4, 3))
        for _ in range(_LOOPS):
            z = lu_solve(self._lu, b, check_finite=False)
            x = y * z[0:3][None, :] - 0.5 * x
            b[0:3] = x.sum(axis=0)
        return time.perf_counter() - start

    def pace(self) -> float:
        """Pace now, from five back-to-back runs of the kernel."""
        return statistics.fmean(self() for _ in range(5)) / REFERENCE_S


class PaceSampler:
    """Times the kernel from SIGALRM every ``INTERVAL_S`` while active."""

    def __init__(self) -> None:
        self.kernel = Kernel()
        # (handler start, handler end, kernel seconds) per sample.
        self.samples: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        seconds = self.kernel()
        self.samples.append((start, time.perf_counter(), seconds))

    def __enter__(self) -> "PaceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def stolen(self, lo: float, hi: float) -> float:
        """Time the handler took in samples that started within [lo, hi]."""
        return sum(end - start for start, end, _ in self.samples if lo <= start <= hi)

    def pace(self, lo: float, hi: float) -> float:
        """Mean kernel time over [lo, hi] relative to ``REFERENCE_S``; the
        nearest sample stands in when none started inside the interval."""
        inside = [s for start, _, s in self.samples if lo <= start <= hi]
        if not inside:
            if not self.samples:
                raise ValueError("no pace samples recorded")
            mid = 0.5 * (lo + hi)
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[2]]
        return statistics.fmean(inside) / REFERENCE_S
