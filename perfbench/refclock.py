"""Reference clock: interval lengths read at a fixed nominal machine speed.

The 2-vCPU hosts this benchmark was built on share their cores with other
tenants, and their speed drifts by up to 2x over tens of seconds: one scan
pass took 2.5 s to 4.8 s within a single run, and the medians of ten runs
spread by 20-30% (distance between quartiles over the median), more than
any regression bound worth having.  Medians within a run cannot remove a
drift that outlasts the run.

So a fixed kernel of small-matrix NumPy algebra and interpreter work, the
kind hypersym does, is timed between consecutive measured intervals, and
each interval is scaled by ``NOMINAL_S`` over the mean of the two kernel
readings on either side of it.  On the same box this cut the spread of the
pass medians from 20% to 3% on scan and from 17% to 11% on evolve, and did
better than scaling by the median reading of a whole pass or run.  The
kernel is benchmark code, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

NOMINAL_S = 0.04  # about the kernel's duration on the reference box (0.033-0.05 s)


class RefClock:
    """Takes a kernel reading at creation and at every ``lap``."""

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((16, 3, 3)) + 1j
        self._eye = np.eye(3)
        self.readings = [self._kernel()]

    def _kernel(self) -> float:
        gc.collect()  # garbage the last interval left is not the kernel's
        t0 = time.perf_counter()
        for _ in range(800):
            np.linalg.solve(self._a @ self._a + self._eye, self._a)
            sum(k * 0.5 for k in range(120))
        return time.perf_counter() - t0

    def lap(self) -> float:
        """Scale for the interval since the last reading; takes the next one."""
        self.readings.append(self._kernel())
        return 2.0 * NOMINAL_S / (self.readings[-2] + self.readings[-1])
