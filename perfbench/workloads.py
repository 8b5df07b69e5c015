"""The benchmark's workloads and the configs it generates from a seed.

All workloads share one physical setup (kernel, reactions, alpha, beta, dt
and the history grid); they differ in domain, recording density and
command. The seed moves only the initial data: the constant level, or the
smooth profile's offset and amplitude. Every level it can draw keeps
|u| far inside the reaction budget that ``memheat.solver._budget_check``
enforces for dt = 0.0025 (the budget allows amplitudes up to about 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DT = 0.0025

# every run sets these to 1, so BLAS and OpenMP stay single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BASE_CONFIG = {
    "kernel": {"omega": 0.5, "rate": 3.0},
    "nonlinearity": {"f": [-0.125, 0.0, 0.0, 1.0],
                     "g": [-0.375, 0.0, 0.0, 1.0]},
    "alpha": 0.0,
    "beta": 1.0,
    "dt": DT,
    "history": {"n_s": 128, "spacing": "geometric"},
}


@dataclass(frozen=True)
class Workload:
    """One command at one grid size; ``steps`` counts steps per run."""

    name: str
    kind: str
    n: int
    eps: float
    steps: int
    record_stride: int
    initial: str
    checkpoint_step: Optional[int] = None
    sweep_eps: Optional[tuple] = None

    @property
    def is_sweep(self) -> bool:
        return self.sweep_eps is not None

    @property
    def t_final(self) -> float:
        return self.steps * DT

    @property
    def steps_per_run(self) -> int:
        """Time steps one run integrates: a sweep pairs a memory run with a
        limit run per eps."""
        if self.is_sweep:
            return 2 * len(self.sweep_eps) * self.steps
        return self.steps

    @property
    def samples_per_run(self) -> int:
        """Rows the recorder adds; a checkpointed run re-records its seam."""
        if self.is_sweep:
            return 0
        parts = [self.steps] if self.checkpoint_step is None else \
            [self.checkpoint_step, self.steps - self.checkpoint_step]
        return sum(-(-p // self.record_stride) + 1 for p in parts)

    @property
    def csv_rows(self) -> int:
        if self.is_sweep:
            return len(self.sweep_eps)
        return -(-self.steps // self.record_stride) + 1

    @property
    def output_csv(self) -> str:
        return "sweep.csv" if self.is_sweep else "trajectory.csv"

    def initial_data(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        if self.initial == "constant":
            return {"kind": "constant", "value": round(rng.uniform(0.2, 0.9), 3)}
        return {"kind": "smooth", "offset": round(rng.uniform(-0.2, 0.2), 3),
                "amplitude": round(rng.uniform(0.3, 0.8), 3)}

    def config(self, seed: int) -> dict:
        cfg = dict(BASE_CONFIG,
                   experiment="trajectory",
                   domain={"kind": self.kind, "n": self.n},
                   eps=self.eps,
                   t_final=self.t_final,
                   record_stride=self.record_stride,
                   initial=self.initial_data(seed))
        if self.checkpoint_step is not None:
            cfg["checkpoint_step"] = self.checkpoint_step
        return cfg


WORKLOADS = {w.name: w for w in (
    # recorder-bound: every step is sampled, so the history norms dominate;
    # the mid-run checkpoint exercises checkpoint_save
    Workload("square65-dense-record", "square", 65, eps=0.2, steps=40,
             record_stride=1, initial="constant", checkpoint_step=20),
    # transport- and solve-bound: first and last sample only, largest
    # grid, largest setup and resident memory
    Workload("square129-sparse-record", "square", 129, eps=0.2, steps=60,
             record_stride=60, initial="smooth"),
    # many small steps, per-call overhead: the eps sweep against the
    # limit problem at the north-star interval size
    Workload("interval1025-eps-sweep", "interval", 1025, eps=0.2, steps=400,
             record_stride=4, initial="constant",
             sweep_eps=(0.2, 0.1, 0.05, 0.025)),
)}
