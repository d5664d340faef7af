"""Calibration kernel that gauges the machine's speed next to each timing."""

from __future__ import annotations

import time

import numpy as np

#: Scaled times read as times on a machine on which the calibration kernel
#: takes this long [s]: its typical time on the 2-core sandbox the
#: reference figures in README.md come from.
NOMINAL_S = 2.0e-3


class Calibration:
    """A fixed kernel timed next to every operation to gauge machine speed.

    The sandbox's CPU speed swings by up to 1.7x within seconds (other
    tenants share the cores), and a slow phase slows this kernel and the
    program alike.  Half of it is NumPy trigonometry and logs over 4202
    bins, as in the likelihood; half is Python float parsing, as in
    read_record.  It calls nothing in weakdelay.
    """

    def __init__(self):
        self.omega = np.linspace(2.1e15, 2.7e15, 4202)
        self.q = np.linspace(1.0, 2.0, 4202)
        self.lines = [f"{780 + k * 0.1:.17g},{k * 1.37:.17g},{k * 0.59:.17g}"
                      for k in range(500)]

    def seconds(self):
        t0 = time.perf_counter()
        for k in range(10):
            x = (1e-18 + k * 1e-20) * self.omega
            z = np.cos(x) ** 2 + 1.1 * np.sin(x) ** 2 + 0.3 * np.sin(2.0 * x)
            float(self.q @ np.log(z))
        for line in self.lines:
            [float(p) for p in line.split(",")]
        return time.perf_counter() - t0

    def scale(self, before, after):
        """Factor taking a time measured between two kernel timings to nominal speed."""
        return NOMINAL_S / (0.5 * (before + after))
