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
``record_stride``, and the final state. It returns what its observer
returned for each of them, so every consumer is a row function. Every
integrator, the difference pair and both parts of the compact split
included, advances through the one IMEX step ``_advance``.

A state carries its step index only; its time is that index times dt, so
a run that is checkpointed and resumed reproduces the direct run bitwise.

A step consumes its input state's history: the transport writes the new
history over the old one, so a run holds one history, not two. ``evolve``
steps a copy of its start state and leaves the caller's state as it was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
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
    "SystemState",
    "lift",
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

    eps = 0 selects the instantaneous limit problem; eps in (0, 1] selects
    the memory problem. omega and the decay rate delta are owned by the
    kernel. ``history`` holds the keyword arguments of
    ``build_history_grid`` (its defaults when empty). A problem keeps that
    recipe at every eps, the limit included, so
    ``dataclasses.replace(cfg, eps=...)`` is the same problem at another
    horizon on the same kind of grid.
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
    history: dict = field(default_factory=dict)

    @property
    def omega(self) -> float:
        return self.kernel.omega

    @cached_property
    def grid(self) -> Optional[HistoryGrid]:
        """The history grid the memory problem steps on, built from
        (kernel, eps, history) on first use; None at eps = 0. Every grid a
        run steps on is built here, and a copy made with
        ``dataclasses.replace`` builds its own only when asked."""
        if self.eps == 0.0:
            return None
        return build_history_grid(self.kernel, self.eps, **self.history)

    def __post_init__(self):
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be nonnegative")
        if not (self.eps == 0.0 or 0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must be 0 or in (0, 1], got {self.eps}")
        if self.dt <= 0.0 or self.t_final < 0.0:
            raise ValueError("need dt > 0 and t_final >= 0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.eps > 0.0 and self.dt > 0.1 * self.eps * (1.0 + 1e-9):
            raise ValueError(
                f"dt = {self.dt} exceeds the memory resolution budget 0.1 eps = {0.1 * self.eps}"
            )


@dataclass
class SystemState:
    """Field plus history after ``step`` steps; its time is step * dt."""

    u: StateField
    phi: Optional[HistoryField]
    step: int

    def copy(self) -> "SystemState":
        return SystemState(self.u.copy(),
                           None if self.phi is None else self.phi.copy(),
                           self.step)


def lift(u: StateField, cfg: ProblemConfig) -> SystemState:
    """Embed a field as a state with vanishing history (none at eps = 0)."""
    phi = zero_history(cfg.grid, cfg.domain) if cfg.eps > 0.0 else None
    return SystemState(u.copy(), phi, 0)


def _budget_check(cfg: ProblemConfig, u0: StateField) -> None:
    """Refuse a dt above the reaction stability budget 1 / (2 Lip F), with
    the Lipschitz constant taken over the envelope 1.5 |amplitude| + 0.5
    that dissipative runs stay inside. Data so large that the bound
    overflows gets an infinite one, so a zero budget."""
    amp = float(np.max(np.abs(u0.bulk))) if u0.bulk.size else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        lip = lipschitz_bound(cfg.nonlinearity, cfg.omega, cfg.beta,
                              1.5 * amp + 0.5)
    budget = 0.5 / max(lip, 1e-12)
    if cfg.dt > budget * (1.0 + 1e-9):
        raise ValueError(
            f"dt = {cfg.dt} exceeds the reaction stability budget "
            f"{budget:.3e} for data of amplitude {amp:.3g}"
        )


def _h0_sq(cfg: ProblemConfig, u: StateField,
           phi: Optional[HistoryField]) -> float:
    """Squared H0 = X2 x M1 norm of (u, phi), the distance the paper states
    its estimates in; a missing history (eps = 0) contributes 0."""
    return (norm_x2_sq(u, cfg.domain)
            + memory_norm_sq(phi, 1, cfg.domain, cfg.alpha, cfg.beta))


def _advance(cfg: ProblemConfig, u: StateField, phi: Optional[HistoryField],
             *sources: StateField) -> tuple[StateField, Optional[HistoryField]]:
    """One IMEX step of the pair (u, phi): solve for u_new from
    M u / dt - sources, then transport phi in place with inflow
    (u, u_new); the returned history is ``phi`` itself.

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
    """One IMEX step of the memory problem; it consumes ``state``'s
    history, which becomes the new state's."""
    if cfg.eps <= 0.0:
        raise ValueError("step_peps needs eps > 0; use step_p0 for the limit")
    reac = eval_F(state.u, cfg.nonlinearity, cfg.omega, cfg.beta)
    u_new, phi_new = _advance(cfg, state.u, state.phi, reac)
    return SystemState(u_new, phi_new, state.step + 1)


def step_p0(state: SystemState, cfg: ProblemConfig) -> SystemState:
    """One IMEX step of the instantaneous limit problem.

    Unit diffusion throughout; the zero-order residues of the vanished
    memory, alpha (1 - omega) in the bulk and beta (1 - omega) on the
    boundary, sit in the implicit operator.
    """
    reac = StateField(eval_f(cfg.nonlinearity, state.u.bulk),
                      eval_g(cfg.nonlinearity, state.u.boundary))
    u_new, _ = _advance(cfg, state.u, None, reac)
    return SystemState(u_new, state.phi, state.step + 1)


def march(state, step, start: int, stop: int, stride: int, observe):
    """Advance ``state`` from step index ``start`` to ``stop`` with ``step``.

    The one sampling rule: ``observe(state, k)`` sees the start state, each
    state whose absolute step index k is a multiple of ``stride``, and the
    final state, each once; the time of an observed state is k * dt.
    ``state`` is whatever ``step`` maps to its successor, e.g. a tuple of
    states advanced in lockstep. Returns ``(final_state, rows)``, ``rows``
    holding what ``observe`` returned, in order.
    """
    rows = [observe(state, start)]
    for k in range(start + 1, stop + 1):
        state = step(state)
        if k % stride == 0 or k == stop:
            rows.append(observe(state, k))
    return state, rows


@dataclass
class TrajectoryRecord:
    """Recorded norms along a run; columns match the CSV the CLI writes.

    ``COLUMNS`` names the columns; the array fields follow it in order,
    ``times`` holding the column ``t``.
    """

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

    def columns(self) -> list[tuple[str, Array]]:
        return [(name, getattr(self, f.name))
                for name, f in zip(self.COLUMNS, fields(self))]


def _trajectory_row(cfg: ProblemConfig, state: SystemState, k: int) -> tuple:
    """One value per ``TrajectoryRecord`` column, in ``COLUMNS`` order, for
    the state at step k."""
    d, a, b = cfg.domain, cfg.alpha, cfg.beta
    x2 = norm_x2_sq(state.u, d)
    v1 = norm_v1_sq(state.u, d, a, b)
    m1, m2, ts, k2 = history_norms(state.phi, d, a, b)
    return k * cfg.dt, x2, m1, v1, m2, ts, x2 + m1, v1 + k2


def _n_steps(cfg: ProblemConfig) -> int:
    """The step count from t = 0 to t_final."""
    ratio = cfg.t_final / cfg.dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / dt = {ratio} is not a finite step count")
    n_total = round(ratio)
    if abs(n_total * cfg.dt - cfg.t_final) > 1e-9 * max(1.0, cfg.t_final):
        raise ValueError("t_final must be an integer multiple of dt")
    return n_total


def evolve(y0: SystemState, cfg: ProblemConfig) -> TrajectoryRecord:
    """Integrate to t_final, recording every ``record_stride`` steps.

    The first and final states are always recorded. Deterministic: equal
    inputs give bitwise equal records. The run steps a copy of ``y0``, so
    ``y0`` is left as it was.
    """
    _budget_check(cfg, y0.u)
    step_fn = step_peps if cfg.eps > 0.0 else step_p0
    if cfg.eps > 0.0 and y0.phi is None:
        raise ValueError("memory problem needs a history in the initial state")
    stop = _n_steps(cfg)
    if stop < y0.step:
        raise ValueError("state is already past t_final")
    final, rows = march(y0.copy(), lambda s: step_fn(s, cfg), y0.step, stop,
                        cfg.record_stride,
                        lambda s, k: _trajectory_row(cfg, s, k))
    return TrajectoryRecord(*map(np.array, zip(*rows)), final_state=final)


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
    system; its squared H0 distance must decay monotonically. Reports
    the energy series and the fitted decay rate of the gap norm.
    """
    psi = None
    if cfg.eps > 0.0:
        if y0.phi is None or z0.phi is None:
            raise ValueError("memory problem needs histories on both states")
        psi = y0.phi - z0.phi
    _, rows = march((y0.u - z0.u, psi), lambda p: _advance(cfg, *p), 0,
                    _n_steps(cfg), cfg.record_stride,
                    lambda pair, k: (k * cfg.dt, _h0_sq(cfg, *pair)))
    times, gaps = map(np.array, zip(*rows))
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

    def observe(parts, k):
        # time, z_h0_sq, k_strong_sq and the parts' relative X2 mismatch
        v, w, psi, theta, direct = parts
        gap = (v + w) - direct.u
        return (k * dt, _h0_sq(cfg, v, psi),
                norm_v2_sq(w, d, a, b) + history_norms(theta, d, a, b)[3],
                math.sqrt(norm_x2_sq(gap, d))
                / max(math.sqrt(norm_x2_sq(direct.u, d)), 1e-300))

    parts = (y0.u.copy(), d.zero_field(), y0.phi.copy(),
             zero_history(cfg.grid, d), y0.copy())
    _, rows = march(parts, step, 0, _n_steps(cfg), cfg.record_stride, observe)
    times, z_arr, k_arr, rel = map(np.array, zip(*rows))
    return SplitRecord(times=times, z_h0_sq=z_arr, k_strong_sq=k_arr,
                       z_rate=_fit_log_rate(times, z_arr),
                       sum_mismatch=float(rel.max()))
