"""Wall time expressed at a fixed machine speed.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes (other tenants, turbo states), and process CPU time
drifts with it.  A fixed calibration kernel, independent of porosplit, is
therefore timed every ``EVERY_S`` solver seconds, between nonlinear
iterations.  A timed region's wall seconds are scaled by ``NOMINAL_S``
over the mean of the calibration times taken during it.  The result
reads in seconds at the speed where the kernel takes ``NOMINAL_S`` (about
the speed of the machine the benchmark was written on); raw wall seconds
are kept next to it.  Calibration time itself is never counted.

Over six runs per workload on a 2-core shared VM this brought the
spread (interquartile range over median) of a pass's solve time from
6-18% for raw wall seconds to 1.5-6.5%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_S = 0.05     # the kernel's time at the reference speed
EVERY_S = 0.5        # solver seconds between calibrations

_n = 45
_lap1 = sp.diags([2.0 * np.ones(_n), -np.ones(_n - 1), -np.ones(_n - 1)], [0, 1, -1])
_LAPLACIAN = (sp.kron(_lap1, sp.eye(_n)) + sp.kron(sp.eye(_n), _lap1)).tocsc()
_VALUES = np.linspace(0.1, 5.0, 300_000)
_ROWS = np.arange(40_000) % 2_000
_COLS = (np.arange(40_000) * 7) % 2_000


def calibrate() -> float:
    """Seconds the calibration kernel takes now.  It mixes the kinds of
    work in a porosplit iteration: a sparse LU and solve, a power/log/exp
    pass over arrays larger than the L2 cache, and sparse assembly driven
    from the interpreter."""
    t0 = time.perf_counter()
    for _ in range(3):
        spla.splu(_LAPLACIAN).solve(np.ones(_n * _n))
        np.exp(-0.3 * np.log1p(_VALUES**1.4)).sum()
        for k in range(10):
            sp.csr_array((_VALUES[:40_000] + k, (_ROWS, _COLS)), shape=(2_000, 2_000)).sum()
    return time.perf_counter() - t0


class SpeedClock:
    """Accumulates solver wall time between ``start`` and ``stop``;
    ``tick`` (after each nonlinear iteration) calibrates once ``EVERY_S``
    solver seconds have passed.  ``on_calibrate``, if given, is a context
    manager factory entered around each calibration (the tracer's span)."""

    def __init__(self, on_calibrate=None):
        self.raw_s = 0.0
        self.stretches = []
        self.calibrations = []
        self._on_calibrate = on_calibrate
        self._t0 = None

    @property
    def speed_s(self) -> float:
        return self.raw_s * NOMINAL_S / statistics.fmean(self.calibrations)

    def _calibrate(self):
        if self._on_calibrate is None:
            self.calibrations.append(calibrate())
        else:
            with self._on_calibrate():
                self.calibrations.append(calibrate())

    def start(self):
        self._calibrate()
        self._t0 = time.perf_counter()

    def tick(self, force=False):
        if self._t0 is None:
            return
        stretch = time.perf_counter() - self._t0
        if stretch < EVERY_S and not force:
            return
        self.raw_s += stretch
        self.stretches.append(stretch)
        self._calibrate()
        self._t0 = time.perf_counter()

    def stop(self):
        self.tick(force=True)
        self._t0 = None
