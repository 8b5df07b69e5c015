"""Machine-speed probe: fixed work that shares no code with memheat.

The host the benchmark was tuned on changes speed in phases of ten minutes
or more, and everything in the guest slows down together, by up to about
1.4 times. One probe follows each repeat of a workload, so the first
repeat's peak memory excludes the probe's arrays. A run scales its wall
times by ``REFERENCE_S`` over its median probe time, so its timings read as
seconds at the speed where the probe takes ``REFERENCE_S``. The probe mixes
what memheat spends its time on: Python calls, array arithmetic and a
sparse LU solve.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the probe's time in the host's fast phase, on the machine in NOTES.md
REFERENCE_S = 0.065


class Probe:
    def __init__(self):
        n = 60
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self.matrix = (sp.kronsum(lap, lap) + sp.eye(n * n)).tocsc()
        self.rhs = np.ones(n * n)
        self.array = np.linspace(0.0, 1.0, 128 * 4000).reshape(128, 4000)
        self.buffer = np.empty_like(self.array)

    def __call__(self) -> float:
        """Seconds one pass of the fixed work takes now."""
        t0 = perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i % 7
        a, buf = self.array, self.buffer
        for _ in range(15):
            np.multiply(a[:, ::-1], 0.5, out=buf)
            buf += a
            buf *= a
            float(buf.sum())
        lu = spla.splu(self.matrix)
        for _ in range(20):
            lu.solve(self.rhs)
        return perf_counter() - t0
