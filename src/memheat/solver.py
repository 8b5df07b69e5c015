"""Time integration of the memory problem and its instantaneous limit.

Both problems share one IMEX scheme: the stiff linear Wentzell part is
implicit (one prefactored sparse solve per step), the reaction and the
memory load are explicit, and the history moves by one semi-Lagrangian
transport step driven by the freshly computed field.

Memory problem (eps > 0), per step of size dt:

    (M/dt + omega K_{0,beta}) u_{n+1}
        = M u_n / dt - [memory load of Phi_n + F(u_n)],
    Phi_{n+1} = transport of Phi_n with trapezoidal inflow (u_n, u_{n+1}).

Limit problem (eps = 0): full unit diffusion with the residual zero-order
coefficients alpha (1 - omega), beta (1 - omega) implicit and the raw
reactions f, g explicit. The coefficient bookkeeping is what the memory
term converges to and is locked by regression tests.

Every time loop is ``march``, which owns the one sampling rule: observe
the start state, each state whose absolute step index is a multiple of
``record_stride``, and the final state. Every integrator, the difference
pair and both parts of the compact split included, advances through the
one IMEX step ``_advance``.

Time is tracked as an integer step count times dt, so a run that is
checkpointed and resumed reproduces the direct run bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .domain import (
    DiscreteDomain,
    StateField,
    norm_v1_sq,
    norm_v2_sq,
    norm_x2_sq,
    solve_wentzell_shifted,
)
from .memory import (
    HistoryField,
    HistoryGrid,
    KernelSpec,
    advance_history,
    build_history_grid,
    convolve_wentzell,
    history_norms,
    k2_norm_sq,
    memory_norm_sq,
    zero_history,
)
from .physics import (
    NonlinearitySpec,
    eval_F,
    eval_f,
    eval_g,
    lipschitz_bound,
    monotonicity_shift,
)

__all__ = [
    "ProblemConfig",
    "build_problem",
    "suggest_dt",
    "SystemState",
    "lift",
    "project",
    "step_peps",
    "step_p0",
    "march",
    "TrajectoryRecord",
    "evolve",
    "ContractionRecord",
    "evolve_contraction_pair",
    "SplitRecord",
    "evolve_compact_split",
]

Array = NDArray[np.float64]


@dataclass
class ProblemConfig:
    """One fully assembled problem instance.

    eps = 0 selects the instantaneous limit problem (no history grid);
    eps in (0, 1] selects the memory problem on ``grid``. omega and the
    decay rate delta are owned by the kernel.
    """

    domain: DiscreteDomain
    kernel: KernelSpec
    nonlinearity: NonlinearitySpec
    alpha: float
    beta: float
    eps: float
    dt: float
    t_final: float
    record_stride: int = 1
    grid: Optional[HistoryGrid] = None

    @property
    def omega(self) -> float:
        return self.kernel.omega

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if not (self.eps == 0.0 or 0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must be 0 or in (0, 1], got {self.eps}")
        if self.dt <= 0.0 or self.t_final < 0.0:
            raise ValueError("need dt > 0 and t_final >= 0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.eps > 0.0:
            if self.grid is None:
                raise ValueError("memory problem needs a history grid")
            if self.dt > 0.1 * self.eps * (1.0 + 1e-9):
                raise ValueError(
                    f"dt = {self.dt} exceeds the memory resolution budget 0.1 eps = {0.1 * self.eps}"
                )
        else:
            if self.grid is not None:
                raise ValueError("the limit problem carries no history grid")


def build_problem(domain: DiscreteDomain, kernel: KernelSpec,
                  nonlinearity: NonlinearitySpec, *, alpha: float, beta: float,
                  eps: float, dt: float, t_final: float, record_stride: int = 1,
                  n_s: int = 128, s_max_factor: float = 30.0,
                  grid: Optional[HistoryGrid] = None) -> ProblemConfig:
    """Assemble a ProblemConfig, building the graded history grid if needed."""
    if eps > 0.0 and grid is None:
        grid = build_history_grid(kernel, eps, n_s=n_s, s_max_factor=s_max_factor)
    return ProblemConfig(domain=domain, kernel=kernel, nonlinearity=nonlinearity,
                         alpha=alpha, beta=beta, eps=eps, dt=dt, t_final=t_final,
                         record_stride=record_stride, grid=grid)


def suggest_dt(nonlinearity: NonlinearitySpec, omega: float, beta: float,
               eps: float, amplitude: float, cap: float = 0.05) -> float:
    """Largest dt inside the stability budget for data of the given size.

    The budget is min(0.1 eps, 1 / (2 Lip F)) with the Lipschitz constant
    taken over the envelope 1.5 amplitude + 0.5 that dissipative runs stay
    inside, cut additionally at ``cap``.
    """
    lip = lipschitz_bound(nonlinearity, omega, beta, 1.5 * abs(amplitude) + 0.5)
    dt = min(cap, 0.5 / max(lip, 1e-12))
    if eps > 0.0:
        dt = min(dt, 0.1 * eps)
    return dt


@dataclass
class SystemState:
    """Field plus history at an integer multiple of dt."""

    u: StateField
    phi: Optional[HistoryField]
    step: int
    t: float

    def copy(self) -> "SystemState":
        return SystemState(self.u.copy(),
                           None if self.phi is None else self.phi.copy(),
                           self.step, self.t)


def lift(u: StateField, cfg: ProblemConfig) -> SystemState:
    """Embed a field as a state with vanishing history (none at eps = 0)."""
    phi = zero_history(cfg.grid, cfg.domain) if cfg.eps > 0.0 else None
    return SystemState(u.copy(), phi, 0, 0.0)


def project(y: SystemState) -> StateField:
    """Forget the history component."""
    return y.u.copy()


def _budget_check(cfg: ProblemConfig, u0: StateField) -> None:
    amp = float(np.max(np.abs(u0.bulk))) if u0.bulk.size else 0.0
    lip = lipschitz_bound(cfg.nonlinearity, cfg.omega, cfg.beta, 1.5 * amp + 0.5)
    if cfg.dt > 0.5 / max(lip, 1e-12) * (1.0 + 1e-9):
        raise ValueError(
            f"dt = {cfg.dt} exceeds the reaction stability budget "
            f"{0.5 / lip:.3e} for data of amplitude {amp:.3g}"
        )


def _advance(cfg: ProblemConfig, u: StateField, phi: Optional[HistoryField],
             *sources: StateField) -> tuple[StateField, Optional[HistoryField]]:
    """One IMEX step of the pair (u, phi): solve for u_new from
    M u / dt - sources, then transport phi with inflow (u, u_new).

    With a history (memory problem) its load comes first among the sources
    and the implicit operator is omega K_{0,beta}; without one (limit
    problem) it is unit diffusion with the residues alpha (1 - omega),
    beta (1 - omega). The sources are subtracted in the order given.
    """
    dt, om = cfg.dt, cfg.omega
    if phi is None:
        c_a, a, b = 1.0, cfg.alpha * (1.0 - om), cfg.beta * (1.0 - om)
    else:
        sources = (convolve_wentzell(phi, cfg.domain, cfg.alpha, cfg.beta),
                   *sources)
        c_a, a, b = om, 0.0, cfg.beta
    bulk, boundary = u.bulk / dt, u.boundary / dt
    for src in sources:
        bulk, boundary = bulk - src.bulk, boundary - src.boundary
    u_new = solve_wentzell_shifted(1.0 / dt, c_a, StateField(bulk, boundary),
                                   cfg.domain, a, b)
    return u_new, (None if phi is None
                   else advance_history(phi, u_new, dt, u_prev=u))


def step_peps(state: SystemState, cfg: ProblemConfig) -> SystemState:
    """One IMEX step of the memory problem."""
    if cfg.eps <= 0.0:
        raise ValueError("step_peps needs eps > 0; use step_p0 for the limit")
    reac = eval_F(state.u, cfg.nonlinearity, cfg.omega, cfg.beta)
    u_new, phi_new = _advance(cfg, state.u, state.phi, reac)
    step = state.step + 1
    return SystemState(u_new, phi_new, step, step * cfg.dt)


def step_p0(state: SystemState, cfg: ProblemConfig) -> SystemState:
    """One IMEX step of the instantaneous limit problem.

    Unit diffusion throughout; the zero-order residues of the vanished
    memory, alpha (1 - omega) in the bulk and beta (1 - omega) on the
    boundary, sit in the implicit operator.
    """
    reac = StateField(eval_f(cfg.nonlinearity, state.u.bulk),
                      eval_g(cfg.nonlinearity, state.u.boundary))
    u_new, _ = _advance(cfg, state.u, None, reac)
    step = state.step + 1
    return SystemState(u_new, state.phi, step, step * cfg.dt)


def march(state, step, start: int, stop: int, stride: int, observe):
    """Advance ``state`` from step index ``start`` to ``stop`` with ``step``.

    The one sampling rule: ``observe(state, k)`` sees the start state, each
    state whose absolute step index k is a multiple of ``stride``, and the
    final state, each once. ``state`` is whatever ``step`` maps to its
    successor, e.g. a tuple of states advanced in lockstep. Returns the
    final state.
    """
    observe(state, start)
    for k in range(start + 1, stop + 1):
        state = step(state)
        if k % stride == 0 or k == stop:
            observe(state, k)
    return state


@dataclass
class TrajectoryRecord:
    """Recorded norms along a run; columns match the CSV the CLI writes."""

    times: Array
    norm_x2_sq: Array
    norm_m1_sq: Array
    norm_v1_sq: Array
    norm_m2_sq: Array
    tail_sup: Array
    energy_h0: Array
    energy_v1: Array
    final_state: SystemState

    COLUMNS = ("t", "norm_x2_sq", "norm_m1_sq", "norm_v1_sq",
               "norm_m2_sq", "tail_sup", "energy_h0", "energy_v1")

    def columns(self):
        return list(zip(self.COLUMNS,
                        (self.times, self.norm_x2_sq, self.norm_m1_sq,
                         self.norm_v1_sq, self.norm_m2_sq, self.tail_sup,
                         self.energy_h0, self.energy_v1)))


class _Recorder:
    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.rows = {name: [] for name in TrajectoryRecord.COLUMNS}

    def add(self, state: SystemState):
        cfg = self.cfg
        d, a, b = cfg.domain, cfg.alpha, cfg.beta
        x2 = norm_x2_sq(state.u, d)
        v1 = norm_v1_sq(state.u, d, a, b)
        m1, m2, ts, k2 = history_norms(state.phi, d, a, b)
        r = self.rows
        r["t"].append(state.t)
        r["norm_x2_sq"].append(x2)
        r["norm_m1_sq"].append(m1)
        r["norm_v1_sq"].append(v1)
        r["norm_m2_sq"].append(m2)
        r["tail_sup"].append(ts)
        r["energy_h0"].append(x2 + m1)
        r["energy_v1"].append(v1 + k2)

    def finish(self, final_state: SystemState) -> TrajectoryRecord:
        arr = {k: np.array(v) for k, v in self.rows.items()}
        return TrajectoryRecord(
            times=arr["t"], norm_x2_sq=arr["norm_x2_sq"],
            norm_m1_sq=arr["norm_m1_sq"], norm_v1_sq=arr["norm_v1_sq"],
            norm_m2_sq=arr["norm_m2_sq"], tail_sup=arr["tail_sup"],
            energy_h0=arr["energy_h0"], energy_v1=arr["energy_v1"],
            final_state=final_state,
        )


def _n_steps(cfg: ProblemConfig, start_step: int) -> int:
    n_total = round(cfg.t_final / cfg.dt)
    if abs(n_total * cfg.dt - cfg.t_final) > 1e-9 * max(1.0, cfg.t_final):
        raise ValueError("t_final must be an integer multiple of dt")
    if n_total < start_step:
        raise ValueError("state is already past t_final")
    return n_total - start_step


def evolve(y0: SystemState, cfg: ProblemConfig) -> TrajectoryRecord:
    """Integrate to t_final, recording every ``record_stride`` steps.

    The first and final states are always recorded. Deterministic: equal
    inputs give bitwise equal records.
    """
    _budget_check(cfg, y0.u)
    step_fn = step_peps if cfg.eps > 0.0 else step_p0
    if cfg.eps > 0.0 and y0.phi is None:
        raise ValueError("memory problem needs a history in the initial state")
    stop = y0.step + _n_steps(cfg, y0.step)
    rec = _Recorder(cfg)
    final = march(y0.copy(), lambda s: step_fn(s, cfg), y0.step, stop,
                  cfg.record_stride, lambda s, k: rec.add(s))
    return rec.finish(final)


@dataclass
class ContractionRecord:
    times: Array
    gap_sq: Array
    fitted_rate: float
    monotone: bool
    zero_gap: bool


def _fit_log_rate(times: Array, values_sq: Array) -> float:
    """Decay rate of sqrt(values_sq) from a log-linear fit."""
    mask = values_sq > 0.0
    if mask.sum() < 2:
        return 0.0
    slope = np.polyfit(times[mask], 0.5 * np.log(values_sq[mask]), 1)[0]
    return float(-slope)


def evolve_contraction_pair(y0: SystemState, z0: SystemState,
                            cfg: ProblemConfig) -> ContractionRecord:
    """Integrate the linear difference system of two states.

    The difference of two trajectories obeys the memoryless-reaction linear
    system; its flat-plus-memory energy must decay monotonically. Reports
    the energy series and the fitted decay rate of the gap norm.
    """
    d, dt, a, b = cfg.domain, cfg.dt, cfg.alpha, cfg.beta
    psi = None
    if cfg.eps > 0.0:
        if y0.phi is None or z0.phi is None:
            raise ValueError("memory problem needs histories on both states")
        psi = y0.phi - z0.phi
    n_steps = _n_steps(cfg, 0)
    times, gaps = [], []

    def record(pair, k):
        times.append(k * dt)
        gaps.append(norm_x2_sq(pair[0], d) + memory_norm_sq(pair[1], 1, d, a, b))

    march((y0.u - z0.u, psi), lambda p: _advance(cfg, *p), 0, n_steps,
          cfg.record_stride, record)
    times = np.array(times)
    gaps = np.array(gaps)
    zero_gap = bool(np.all(gaps == 0.0))
    rate = 0.0 if zero_gap else _fit_log_rate(times, gaps)
    monotone = bool(np.all(np.diff(gaps) <= 1e-12 * max(gaps.max(), 1e-300)))
    return ContractionRecord(times=times, gap_sq=gaps, fitted_rate=rate,
                             monotone=monotone, zero_gap=zero_gap)


@dataclass
class SplitRecord:
    times: Array
    z_h0_sq: Array
    k_strong_sq: Array
    z_rate: float
    sum_mismatch: float


def evolve_compact_split(y0: SystemState, cfg: ProblemConfig) -> SplitRecord:
    """Integrate the decaying/compact two-part splitting of one trajectory.

    The state is split as U = V + W: the V-part carries the data and the
    monotone-shifted reaction difference F0(U) - F0(W) (so it decays to
    zero), the W-part starts from zero and carries F0(W) - M_F U (so it
    stays bounded in the strong norm). Both parts step with the same IMEX
    scheme as the direct solve; their sum is checked against a directly
    integrated trajectory and reported as the maximal relative mismatch.
    """
    if cfg.eps <= 0.0:
        raise ValueError("the splitting is defined for the memory problem")
    d, dt, a, b = cfg.domain, cfg.dt, cfg.alpha, cfg.beta
    nl, om = cfg.nonlinearity, cfg.omega
    _budget_check(cfg, y0.u)
    n_steps = _n_steps(cfg, 0)
    mf = monotonicity_shift(nl, om, b)

    def step(parts):
        v, w, psi, theta, direct = parts
        f_w = eval_F(w, nl, om, b)
        # V-part: F0(U) - F0(W) = F(U) - F(W) + M_F V
        v_new, psi_new = _advance(cfg, v, psi,
                                  eval_F(v + w, nl, om, b) - f_w + mf * v)
        # W-part: F0(W) - M_F U = F(W) - M_F V
        w_new, theta_new = _advance(cfg, w, theta, f_w - mf * v)
        return v_new, w_new, psi_new, theta_new, step_peps(direct, cfg)

    times, z_rows, k_rows = [], [], []
    mismatch = 0.0

    def record(parts, k):
        nonlocal mismatch
        v, w, psi, theta, direct = parts
        times.append(k * dt)
        z_rows.append(norm_x2_sq(v, d) + memory_norm_sq(psi, 1, d, a, b))
        k_rows.append(norm_v2_sq(w, d, a, b) + k2_norm_sq(theta, d, a, b))
        gap = (v + w) - direct.u
        rel = math.sqrt(norm_x2_sq(gap, d)) / max(math.sqrt(norm_x2_sq(direct.u, d)), 1e-300)
        mismatch = max(mismatch, rel)

    parts = (y0.u.copy(), d.zero_field(), y0.phi.copy(),
             zero_history(cfg.grid, d), y0.copy())
    march(parts, step, 0, n_steps, cfg.record_stride, record)
    times = np.array(times)
    z_arr = np.array(z_rows)
    return SplitRecord(times=times, z_h0_sq=z_arr, k_strong_sq=np.array(k_rows),
                       z_rate=_fit_log_rate(times, z_arr), sum_mismatch=mismatch)
