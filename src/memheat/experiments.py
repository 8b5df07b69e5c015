"""Verification suites for the decay, robustness, and continuity estimates.

Every experiment runs desk-scale trajectories, audits its target
inequality at each recorded sample, and returns a report carrying the
measured constants next to the theoretical ones. Reports expose boolean
flags; numeric pass thresholds live with the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .domain import DiscreteDomain, StateField, norm_x2_sq
from .memory import _S_MAX_FACTOR, history_from_profile
from .physics import SmallnessReport, check_smallness
from .solver import (ProblemConfig, SystemState, TrajectoryRecord,
                     _budget_check, _h0_sq, _n_steps, evolve, lift, march,
                     step_p0, step_peps)

Array = np.ndarray


class GateError(RuntimeError):
    """The smallness gate failed; the decay estimate is not guaranteed."""


# -- decay fitting -----------------------------------------------------------


@dataclass
class DecayFit:
    """Parameters of E(t) ~ amplitude * exp(-rate t) + offset."""

    amplitude: float
    rate: float
    offset: float
    residual: float


# The rate scan: grid points per decade of the rate, and its smallest
# positive rate, as r times the sampled time span (below it the model is
# linear in t to about 1e-18). Its largest rate makes exp(-r dt) < 1e-16
# over the shortest sample gap dt: the model is then a step at the first
# sample.
_SCAN_PER_DECADE = 16
_SCAN_FLOOR = 1e-9
_STEP_LOG = 37.0
# the most (rate, sample) pairs evaluated at once: 256 KiB of exponentials
# and three times that of residuals
_BLOCK_ELEMENTS = 1 << 15
# points per refinement pass; each pass shrinks the bracket 16-fold
_REFINE_POINTS = 33


def _profile_block(rates: Array, tau: Array, y: Array) -> tuple:
    e = np.exp(np.multiply.outer(-rates, tau))
    e_mean = e.sum(axis=1) / tau.size
    y_mean = y.sum() / y.size
    dev = e - e_mean[:, None]
    see = np.einsum("ij,ij->i", dev, dev)
    # see is 0 where the columns coincide (r = 0); dev, and so a_free, is
    # 0 there
    a_free = np.einsum("ij,j->i", dev, y - y_mean) / np.where(see > 0.0,
                                                              see, 1.0)
    a_face = np.einsum("ij,j->i", e, y) / np.einsum("ij,ij->i", e, e)
    zero = np.zeros_like(rates)
    # the candidates: free, a = 0 and c = 0
    amp = np.array([a_free, zero, a_face])
    off = np.array([y_mean - a_free * e_mean, zero + y_mean, zero])
    res = e * amp[:, :, None]
    res += off[:, :, None]
    res -= y
    ss = np.einsum("kij,kij->ki", res, res)
    ss[0, (a_free < 0.0) | (off[0] < 0.0)] = np.inf
    ss[2, see == 0.0] = np.inf  # coinciding columns: the level is c's
    k = ss.argmin(axis=0)[None]
    return tuple(np.take_along_axis(v, k, 0)[0] for v in (amp, off, ss))


def _profile(rates: Array, tau: Array, y: Array) -> tuple:
    """For each rate r, the nonnegative (a, c) that fit ``a exp(-r tau) +
    c`` to ``y`` best, and the residual sum of squares, as three arrays.

    At a fixed rate the model is linear in (a, c), so this is a 2 x 2
    nonnegative least-squares problem: the free solution when it is
    nonnegative, else the better of the faces a = 0 and c = 0. Where the
    two columns coincide (r = 0) the level goes to c. Ties go to the free
    solution, then to a = 0. The rates are taken a block at a time, of at
    most ``_BLOCK_ELEMENTS`` (rate, sample) pairs.
    """
    rows = max(_BLOCK_ELEMENTS // tau.size, 1)
    parts = zip(*(_profile_block(rates[i:i + rows], tau, y)
                  for i in range(0, rates.size, rows)))
    return tuple(map(np.concatenate, parts))


def fit_decay(times: Array, values: Array) -> DecayFit:
    """Least-squares fit of a decaying exponential with nonnegative floor,
    with amplitude, rate and offset all >= 0.

    Variable projection (Golub and Pereyra): for a fixed rate the best
    amplitude and offset have a closed form (``_profile``), so the fit is
    a search in the rate alone. It scans 0 and a geometric grid up to the
    rate whose exponential drops below 1e-16 over the shortest sample gap,
    then refines the bracket around the best rate with evenly spaced grids
    until it is a few units in the last place wide or the residual is flat
    across it. Ties go to the smaller rate. At rate 0 amplitude and offset
    cannot be told apart, so a best rate of 0 reports amplitude 0 and the
    whole level as offset; a fit whose best amplitude is 0 has rate 0.
    Numpy only, and deterministic: repeated fits of the same series are
    bit-identical.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError("times and values must be equal-length 1-d arrays")
    if t.size < 10:
        raise ValueError(f"need at least 10 samples to fit, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("decay fit expects finite times and samples")
    if np.any(y < 0.0):
        raise ValueError("decay fit expects nonnegative samples")

    t0 = float(t.min())
    tau = t - t0
    gaps = np.diff(np.unique(tau))
    grid = np.zeros(1)
    if gaps.size:
        top = _STEP_LOG / gaps.min()
        decades = math.log10(top * tau.max() / _SCAN_FLOOR)
        grid = np.concatenate([grid, top * np.logspace(
            -decades, 0.0, math.ceil(decades * _SCAN_PER_DECADE) + 1)])
    a, c, ss = _profile(grid, tau, y)
    i = int(ss.argmin())
    best = (float(grid[i]), a[i], c[i], ss[i])
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    while hi - lo > 4.0 * np.spacing(hi):
        rates = np.linspace(lo, hi, _REFINE_POINTS)
        a, c, ss = _profile(rates, tau, y)
        j = int(ss.argmin())
        if ss[j] < best[3]:
            best = (float(rates[j]), a[j], c[j], ss[j])
        if ss[j] == ss.max():
            break  # the residual is flat across the bracket
        lo, hi = rates[max(j - 1, 0)], rates[min(j + 1, rates.size - 1)]
    rate, amp, offset, sum_sq = best
    return DecayFit(_amplitude_at_zero(float(amp), rate, t0), rate,
                    float(offset), math.sqrt(sum_sq / t.size))


def _amplitude_at_zero(amp: float, rate: float, t0: float) -> float:
    """The amplitude ``amp`` fitted at t0, moved back to t = 0: ``amp
    e^{rate t0}``. Where the factor alone overflows, the sum of logarithms
    gives the value, so the result is inf only when the value itself
    exceeds the float range; an amplitude of 0 stays 0."""
    if amp == 0.0:
        return 0.0
    try:
        return amp * math.exp(rate * t0)
    except OverflowError:
        try:
            return math.exp(math.log(amp) + rate * t0)
        except OverflowError:
            return math.inf


# -- shared data helpers -----------------------------------------------------


def smooth_profile(d: DiscreteDomain) -> StateField:
    """A fixed smooth trace-compatible field with zero-mean oscillation."""
    def fn(p):
        x = p[..., 0]
        out = np.sin(2.0 * np.pi * x) + 0.5 * np.cos(3.0 * np.pi * x)
        if p.shape[-1] > 1:
            out = out * np.cos(np.pi * p[..., 1])
        return out
    return d.field_from_function(fn)


def _sup_gap(states: tuple, step, cfg: ProblemConfig, t_lo: float,
             t_hi: float) -> float:
    """Largest H0 distance between the pair ``states`` over the states
    ``march`` observes at times in [t_lo, t_hi], advancing the pair with
    ``step``. A second state without a history (the limit problem) leaves
    the first one's history whole in the difference."""
    def gap(states, k):
        if not t_lo - 1e-12 <= k * cfg.dt <= t_hi + 1e-12:
            return 0.0  # outside the window the norm is not computed
        y, z = states
        phi = y.phi if z.phi is None else y.phi - z.phi
        return math.sqrt(_h0_sq(cfg, y.u - z.u, phi))

    return max(march(states, step, 0, _n_steps(cfg), cfg.record_stride,
                     gap)[1])


# -- absorbing-set energy decay ----------------------------------------------


@dataclass
class EnergyDecayReport:
    """Pointwise audit of the weak-ball decay estimate for one run.

    ``absorbed_by_t0`` is None when the run ends before t0 outside the
    ball: the absorbing time is then not judged, and ``passed`` rests on
    the decay bound alone.
    """

    eps: float
    times: Array
    energy: Array
    bound: Array
    gate: SmallnessReport
    tol: float
    violations: int
    max_excess: float
    t_absorb: float
    t0: float
    absorbed_by_t0: Optional[bool]
    passed: bool
    record: TrajectoryRecord


def _entry_time(times: Array, below) -> float:
    """The time of the sample just after the last one not ``below``, from
    which on every sample is below; inf if the last sample is not."""
    above = np.flatnonzero(~below)
    i = above[-1] + 1 if above.size else 0
    return float(times[i]) if i < times.size else math.inf


def _decay_gate(cfg: ProblemConfig) -> SmallnessReport:
    """The smallness gate of ``cfg``; GateError if it fails, since the
    decay estimate is only guaranteed under the gate."""
    gate = check_smallness(cfg.nonlinearity, cfg.omega, cfg.beta,
                           cfg.kernel.delta)
    if not gate.passes:
        raise GateError(
            f"smallness gate failed: C_F={gate.c_f:.4f} >= {gate.threshold:.4f}; "
            "the decay estimate is not guaranteed")
    return gate


def _decay_start(d: DiscreteDomain, radius: float) -> StateField:
    """The data ``energy_decay_experiment`` starts from: the constant of X2
    norm ``radius``."""
    shape = d.constant_field(1.0)
    return shape * (radius / math.sqrt(norm_x2_sq(shape, d)))


def energy_decay_experiment(cfg: ProblemConfig, radius: float,
                            tol_frac: float = 0.05) -> EnergyDecayReport:
    """Run from constant data of X2 norm ``radius`` and audit exponential
    decay, once the smallness gate passes (GateError if it fails).
    """
    gate = _decay_gate(cfg)
    rec = evolve(lift(_decay_start(cfg.domain, radius), cfg), cfg)
    e0 = rec.energy_h0[0]
    tol = tol_frac * e0
    bound = e0 * np.exp(-gate.m0 * rec.times) + gate.p0 + tol
    excess = rec.energy_h0 - bound
    violations = int(np.sum(excess > 0.0))
    max_excess = float(excess.max())

    t0 = gate.absorbing_time(radius)
    level = e0 / radius**2 + gate.p0 + tol
    t_absorb = _entry_time(rec.times, rec.energy_h0 <= level)
    absorbed = (True if t_absorb <= t0
                else None if rec.times[-1] < t0 else False)
    passed = violations == 0 and absorbed is not False
    return EnergyDecayReport(cfg.eps, rec.times, rec.energy_h0, bound, gate,
                             tol, violations, max_excess, t_absorb, t0,
                             absorbed, passed, rec)


# -- history decay in eps ----------------------------------------------------


@dataclass
class PhiDecayReport:
    """Residual-scale stability and early-time decay of the history norm."""

    eps: Array
    c_emp: Array
    spread: float
    early_rates: Array
    early_targets: Array
    passed: bool


def phi_decay_experiment(cfg: ProblemConfig,
                         eps_list: Sequence[float]) -> PhiDecayReport:
    """Audit the two regimes of the history decay estimate.

    The O(eps) residual constant comes from zero-history runs on
    ``cfg``'s history recipe: with Phi_0 = 0 the bound collapses to
    sup_t |Phi|^2 / eps. Every run starts from u0 = 0.5. The early-time
    rate comes from separate short runs with a ramp history of twice u0 on
    a uniform s-grid whose cell width equals dt, so the transport part of
    the update is an exact node shift and the fitted rate isolates the
    kernel decay.
    """
    d = cfg.domain
    delta = cfg.kernel.delta
    u0 = d.constant_field(0.5)

    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    c_emp = np.empty(eps_arr.size)
    for i, eps in enumerate(eps_arr):
        run = replace(cfg, eps=float(eps))
        rec = evolve(lift(u0, run), run)
        c_emp[i] = float(rec.norm_m1_sq.max()) / eps
    spread = float(c_emp.max() / c_emp.min())

    early_rates = np.empty(eps_arr.size)
    early_targets = 0.8 * delta / (4.0 * eps_arr)
    for i, eps in enumerate(eps_arr):
        uniform = replace(cfg, eps=float(eps), history=dict(
            n_s=128, spacing="uniform", s_max=10.0 * float(eps)))
        grid = uniform.grid
        dt = float(grid.s_nodes[1] - grid.s_nodes[0])
        # every step up to the first one at or past t = eps; the run steps
        # on the history it is given, so it builds no grid of its own
        run = replace(uniform, dt=dt, t_final=math.ceil(eps / dt - 1e-9) * dt,
                      record_stride=1)
        phi0 = history_from_profile(grid, d, lambda s: np.minimum(s, eps),
                                    u0 * 2.0)
        rec = evolve(SystemState(u0.copy(), phi0, 0), run)
        early_rates[i] = -np.polyfit(rec.times, np.log(rec.norm_m1_sq), 1)[0]

    passed = spread <= 2.0 and bool(np.all(early_rates >= early_targets))
    return PhiDecayReport(eps_arr, c_emp, spread, early_rates, early_targets,
                          passed)


# -- singular-limit robustness -----------------------------------------------


@dataclass
class SweepResult:
    """Per-eps sup-gap against the limit problem and its log-log fit."""

    eps: Array
    errors: Array
    slope: float
    intercept: float
    c_calibrated: float
    bound_ok: bool
    monotone: bool

    def __post_init__(self):
        if np.any(np.diff(self.eps) >= 0.0):
            raise ValueError("eps values must be strictly decreasing")
        if np.any(self.errors <= 0.0):
            raise ValueError("sweep errors must be positive")


def robustness_sweep(cfg: ProblemConfig, eps_list: Sequence[float],
                     u0: StateField) -> SweepResult:
    """Compare the memory problem against its singular limit over an eps sweep.

    All runs lift the same data with empty history and share one step size;
    each eps runs on a grid built with ``cfg``'s history recipe, whatever
    ``cfg``'s own eps (the limit included). The gap at time t is the squared
    field difference plus the full memory norm of the history (the limit
    problem carries none); per eps the sup is taken over recorded samples in
    [sqrt(eps), t_final]. The calibration constant comes from the two
    largest eps. Like ``evolve``, it refuses a dt above the reaction
    budget of ``u0`` before the first step.
    """
    _budget_check(cfg, u0)
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=float)
    limit = replace(cfg, eps=0.0)
    errors = np.empty(eps_arr.size)
    for i, eps in enumerate(eps_arr):
        run = replace(cfg, eps=float(eps))
        errors[i] = _sup_gap(
            (lift(u0, run), lift(u0, limit)),
            lambda yz: (step_peps(yz[0], run), step_p0(yz[1], limit)),
            cfg, math.sqrt(eps), math.inf)

    with np.errstate(divide="ignore"):  # SweepResult refuses an error of 0
        slope, intercept = np.polyfit(np.log(eps_arr), np.log(errors), 1)
    # compared as scaled errors, as calibrated: (e / s) * s can round
    # below e, which would fail the calibration eps by one ulp
    scaled = errors / np.sqrt(eps_arr)
    c_cal = float(scaled[:2].max())
    bound_ok = bool(np.all(scaled <= c_cal))
    monotone = bool(np.all(np.diff(errors) < 0.0))
    return SweepResult(eps_arr, errors, float(slope), float(intercept),
                       c_cal, bound_ok, monotone)


# -- Holder continuity in eps ------------------------------------------------


@dataclass
class HolderReport:
    """Pairwise gaps between memory problems at two nearby horizons."""

    pairs: list
    gaps: Array
    exponent: float
    c_calibrated: float
    bound_ok: bool
    monotone: bool


def holder_pair_gap(cfg: ProblemConfig, eps1: float, eps2: float,
                    u0: StateField, t_star: float,
                    s_max: float = None) -> float:
    """Sup gap between the eps1 and eps2 problems over [t_star, 2 t_star].

    Both histories live on one uniform s-grid of 192 nodes (they depend
    only on s_max), so the history difference is formed node by node and
    weighed with the eps1 kernel.
    """
    if not 0.0 < eps2 <= eps1 <= 1.0:
        raise ValueError(f"need 0 < eps2 <= eps1 <= 1, got ({eps1}, {eps2})")
    if s_max is None:
        s_max = _S_MAX_FACTOR * eps1 / cfg.kernel.delta
    history = dict(n_s=192, spacing="uniform", s_max=s_max)
    c1 = replace(cfg, eps=eps1, history=history)
    c2 = replace(cfg, eps=eps2, history=history)
    return _sup_gap((lift(u0, c1), lift(u0, c2)),
                    lambda ys: (step_peps(ys[0], c1), step_peps(ys[1], c2)),
                    cfg, t_star, 2.0 * t_star)


def holder_sweep(cfg: ProblemConfig, pairs: Sequence[tuple],
                 u0: StateField, t_star: float) -> HolderReport:
    """Fit the gap between nearby-horizon problems against their separation.

    The shared s-grid spans the widest horizon in the sweep. The
    calibration constant for the square-root envelope comes from the two
    widest separations.
    """
    pairs = sorted(pairs, key=lambda p: p[0] - p[1], reverse=True)
    s_max = _S_MAX_FACTOR * max(p[0] for p in pairs) / cfg.kernel.delta
    gaps = np.array([holder_pair_gap(cfg, e1, e2, u0, t_star, s_max=s_max)
                     for e1, e2 in pairs])
    seps = np.array([e1 - e2 for e1, e2 in pairs])
    exponent = float(np.polyfit(np.log(seps), np.log(gaps), 1)[0])
    scaled = gaps / np.sqrt(seps / np.array([p[1] for p in pairs]))
    c_cal = float(scaled[:2].max())
    bound_ok = bool(np.all(scaled <= c_cal * (1.0 + 1e-12)))
    monotone = bool(np.all(np.diff(gaps) < 0.0))
    return HolderReport(list(pairs), gaps, exponent, c_cal, bound_ok, monotone)


# -- Gronwall property suite -------------------------------------------------


def gronwall_check(times: Array, lam: Array, h: Array,
                   k: float, eta: float, m: float) -> str:
    """Audit the decay conclusion on sampled data.

    Returns "pass" or "fail" when the integral hypothesis on h holds on
    the samples, and "inconclusive" when it does not (the conclusion is
    then not claimed by the proposition). The hypothesis over every sample
    pair s <= t reduces to a running-minimum scan of the antiderivative.
    """
    t = np.asarray(times, dtype=float)
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(h, dtype=float)
    if eta <= 0.0 or k < 0.0 or m < 0.0:
        raise ValueError("need eta > 0, k >= 0, m >= 0")

    # G(t) = int_0^t h - eta t; hypothesis iff G(t) - min_{s<=t} G(s) <= m
    cells = 0.5 * (h[1:] + h[:-1]) * np.diff(t)
    g = np.concatenate([[0.0], np.cumsum(cells)]) - eta * t
    drift = g - np.minimum.accumulate(g)
    if np.any(drift > m * (1.0 + 1e-9) + 1e-12):
        return "inconclusive"

    bound = lam[0] * math.exp(m) * np.exp(-eta * t) + k * math.exp(m) / eta
    ok = np.all(lam <= bound * (1.0 + 1e-9) + 1e-12)
    return "pass" if ok else "fail"


def gronwall_instance(eta: float, k: float, m: float, q: float, psi: float,
                      lam0: float, t_final: float):
    """Forward-Euler trajectory saturating the differential hypothesis.

    h = eta + phi' with phi = m (0.5 + 0.5 sin(q t + psi)) makes the
    integral hypothesis hold with constant m exactly. The explicit step is
    kept small enough that the discrete solution never overshoots the
    continuum one.
    """
    dt = min(0.5 / (3.0 * eta + 0.5 * m * q + k + 1.0), 0.02 / max(q, 1e-9))
    n = max(50, math.ceil(t_final / dt))
    times = np.arange(n + 1) * (t_final / n)
    h = eta + 0.5 * m * q * np.cos(q * times + psi)
    lam = np.empty(n + 1)
    lam[0] = lam0
    dt = t_final / n
    for i in range(n):
        lam[i + 1] = lam[i] + dt * ((h[i] - 2.0 * eta) * lam[i] + k)
    return times, lam, h


def gronwall_random_suite(n_instances: int = 200, seed: int = 0) -> dict:
    """Randomized admissible instances; counts conclusion violations."""
    rng = np.random.default_rng(seed)
    counts = {"pass": 0, "fail": 0, "inconclusive": 0}
    for _ in range(n_instances):
        eta = rng.uniform(0.2, 3.0)
        k = rng.uniform(0.0, 2.0)
        m = rng.uniform(0.0, 1.5)
        q = rng.uniform(0.5, 6.0)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        lam0 = rng.uniform(0.1, 5.0)
        t_final = rng.uniform(2.0, 8.0)
        times, lam, h = gronwall_instance(eta, k, m, q, psi, lam0, t_final)
        counts[gronwall_check(times, lam, h, k, eta, m)] += 1
    return counts


# -- transitivity of exponential attraction ----------------------------------


def transitivity_combine(c_lip: float, k_lip: float, c1: float, a1: float,
                         c2: float, a2: float) -> tuple:
    """Combine two exponential-attraction estimates through a Lipschitz flow.

    Rates combine as a1 a2 / (k_lip + a1 + a2); the printed source has a
    repeated-index typo here, and the product form is what the chained
    bound below actually attains.
    """
    if a1 <= 0.0 or a2 <= 0.0:
        raise ValueError("attraction rates must be positive")
    if c_lip <= 0.0 or c1 <= 0.0 or c2 <= 0.0 or k_lip < 0.0:
        raise ValueError("constants must be positive (k_lip >= 0)")
    c_combined = c_lip * c1 + c2
    a_combined = a1 * a2 / (k_lip + a1 + a2)
    return c_combined, a_combined


@dataclass
class TransitivityReport:
    c_combined: float
    a_combined: float
    max_violation: float
    passed: bool


def transitivity_chain_check(c_lip: float, k_lip: float, c1: float, a1: float,
                             c2: float, a2: float) -> TransitivityReport:
    """Verify the combined bound dominates the best chained estimate.

    For each t the hypotheses give the two-hop bound
    c_lip e^{k s} c1 e^{-a1 (t-s)} + c2 e^{-a2 s} for any intermediate
    time s in [0, t]; its minimum over s must stay below the combined
    envelope. At the optimizer s* = a1 t / (k_lip + a1 + a2) the two terms
    balance and the envelope is attained exactly. The check samples 1000
    times t in [0, 20] and 400 times s per t.
    """
    cc, ac = transitivity_combine(c_lip, k_lip, c1, a1, c2, a2)
    worst = -np.inf
    for t in np.linspace(0.0, 20.0, 1000):
        s = np.linspace(0.0, t, 400) if t > 0 else np.array([0.0])
        chained = (c_lip * np.exp(k_lip * s) * c1 * np.exp(-a1 * (t - s))
                   + c2 * np.exp(-a2 * s))
        envelope = cc * math.exp(-ac * t)
        worst = max(worst, float(chained.min() - envelope))
    return TransitivityReport(cc, ac, worst, worst <= 1e-9 * (cc + 1.0))
