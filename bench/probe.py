"""A fixed slice of work, run between the program's own steps, that
measures how fast the machine runs while the program runs.

The machine is shared, and the speed of the core the benchmark runs on
moves by tens of percent within seconds: the same work takes that much
more CPU time, not more waiting, and the two cores move independently.
No number of rounds in one run averages out a change that lasts as long
as the run. So every timed set-up and round runs with the probe
interleaved: a timer signal every `INTERVAL_S` seconds runs one slice in
the program's thread, between two of its Python steps, and the slice's
time is left out of the program's time. The program and the probe then
see the same core at the same moments, and their ratio hardly moves when
the core's speed does. `scaled()` turns a measured time into the time at
the speed that gives one slice `REFERENCE_SLICE_S` seconds.

The probe calls nothing in `fos`, so a change to the program cannot
change it. Its work is the kind the workloads do: small dense kernel
sums in numpy with Python between the calls (the registrations at K=73),
and a sparse LU factorisation and solve (the FE systems of demons and
fPCA).
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

# one slice's time on the machine of the reference figures in README.md,
# at about its median speed; any fixed value would do, this one keeps
# scaled times near the raw ones there
REFERENCE_SLICE_S = 0.025
INTERVAL_S = 0.25
DENSE_REPEATS = 5


class Section:
    """The program's seconds and the probe's slices of one measured
    section."""

    def __init__(self):
        self.seconds = 0.0
        self.slice_seconds = 0.0
        self.slices = 0

    def slice_s(self):
        return self.slice_seconds / self.slices

    def scaled(self):
        """The program's seconds at the reference speed."""
        return self.seconds * REFERENCE_SLICE_S / self.slice_s()


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((73, 3))
        self.p = 0.1 * rng.standard_normal((73, 3))
        self.y = rng.standard_normal((300, 3))
        side = 45                                  # 2,025 unknowns
        lap = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        eye = identity(side)
        self.a = (kron(lap, eye) + kron(eye, lap)
                  + 0.1 * identity(side * side)).tocsc()
        self.b = rng.standard_normal(side * side)
        self.section = None
        self._slice()                              # warm-up, not kept

    def _slice(self):
        for _ in range(DENSE_REPEATS):
            x, p = self.x, self.p
            for _ in range(10):
                d = x[:, None, :] - x[None, :, :]
                k = np.exp(-np.einsum("ijk,ijk->ij", d, d) / 0.5)
                g = np.einsum("ij,ijk->ik", k * (p @ p.T), d)
                x = x + 0.1 * (k @ p)
                p = p + 0.01 * g
            e = x[:, None, :] - self.y[None, :, :]
            np.exp(-np.einsum("ijk,ijk->ij", e, e)).sum()
        splu(self.a).solve(self.b)

    def _timed_slice(self, section):
        t0 = time.perf_counter()
        self._slice()
        section.slice_seconds += time.perf_counter() - t0
        section.slices += 1

    def _on_alarm(self, signum, frame):
        # an alarm during a slice (a very slow machine) runs no second one
        section, self.section = self.section, None
        if section is not None:
            try:
                self._timed_slice(section)
            finally:
                self.section = section

    def measure(self, fn, interval=INTERVAL_S):
        """Calls fn() with slices interleaved: one just before it and one
        every `interval` seconds while it runs. Returns (its result, its
        Section)."""
        section = Section()
        self._timed_slice(section)
        before = section.slice_seconds
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.section = section
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self.section = None
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        section.seconds = wall - (section.slice_seconds - before)
        return result, section
