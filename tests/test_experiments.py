"""Decay fitting, integral-inequality audits, and the sweep validators."""

import dataclasses
import math

import numpy as np
import pytest

from memheat import experiments
from memheat.domain import build_domain
from memheat.memory import exponential_kernel
from memheat.physics import make_nonlinearity
from memheat.solver import ProblemConfig
from memheat.experiments import (
    GateError,
    SweepResult,
    _entry_time,
    energy_decay_experiment,
    fit_decay,
    gronwall_check,
    gronwall_instance,
    gronwall_random_suite,
    holder_pair_gap,
    robustness_sweep,
    smooth_profile,
    transitivity_chain_check,
    transitivity_combine,
)

SHIFTED = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])


# -- decay fitting -------------------------------------------------------------


def test_fit_decay_recovers_exponential_with_floor():
    t = np.linspace(0.0, 4.0, 60)
    y = 2.0 * np.exp(-3.0 * t) + 0.5
    fit = fit_decay(t, y)
    assert fit.amplitude == pytest.approx(2.0, abs=1e-7)
    assert fit.rate == pytest.approx(3.0, abs=1e-6)
    assert fit.offset == pytest.approx(0.5, abs=1e-8)
    assert fit.residual < 1e-9


def test_fit_decay_handles_constant_series():
    t = np.linspace(0.0, 5.0, 25)
    fit = fit_decay(t, np.full(25, 1.7))
    assert fit.amplitude + fit.offset == pytest.approx(1.7, abs=1e-8)
    assert fit.residual < 1e-9


def test_fit_decay_is_deterministic():
    t = np.linspace(0.0, 2.0, 40)
    y = np.exp(-t) + 0.1
    a, b = fit_decay(t, y), fit_decay(t, y)
    assert (a.amplitude, a.rate, a.offset) == (b.amplitude, b.rate, b.offset)


def test_fit_decay_input_validation():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="at least 10"):
        fit_decay(t, np.ones(5))
    with pytest.raises(ValueError, match="nonnegative"):
        fit_decay(np.linspace(0, 1, 12), np.linspace(-0.1, 1, 12))
    with pytest.raises(ValueError):
        fit_decay(np.linspace(0, 1, 12), np.ones((12, 1)))
    with pytest.raises(ValueError, match="finite"):
        fit_decay(np.linspace(0, 1, 12), np.full(12, np.nan))


def _least_squares_fit(t, y):
    """The decay fit before variable projection: scipy's bounded
    trust-region least squares started from the endpoint samples. Returns
    (amplitude at t = 0, rate, offset, residual)."""
    from scipy.optimize import least_squares
    offset0 = max(min(y[-1], float(y.min())), 0.0)
    amp0 = max(y[0] - offset0, 1e-12)
    span = max(t[-1] - t[0], 1e-12)
    head = max(y[0] - offset0, 1e-300)
    tail = max(y[-1] - offset0, 1e-300)
    rate0 = max(math.log(head / tail) / span, 0.0)
    sol = least_squares(
        lambda p: p[0] * np.exp(-p[1] * (t - t[0])) + p[2] - y,
        x0=[amp0, rate0, offset0], bounds=([0.0] * 3, [np.inf] * 3),
        method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert sol.success
    amp, rate, offset = sol.x
    return (amp * math.exp(rate * t[0]), rate, offset,
            float(np.sqrt(np.mean(sol.fun**2))))


def _fit_series():
    """(name, times, values, whether least squares determines the rate)."""
    run = np.arange(41) * 0.0025  # the sample times of a 40-step run
    step = np.full(20, 0.5)
    step[0] = 2.0
    series = [
        # the series of the tests above, and one sampled from t = 1, where
        # least squares ends at rate 312.6 with residual 0.022
        ("floor", np.linspace(0.0, 4.0, 60),
         lambda t: 2.0 * np.exp(-3.0 * t) + 0.5, True),
        ("constant", np.linspace(0.0, 5.0, 25),
         lambda t: np.full(t.size, 1.7), False),
        ("unit", np.linspace(0.0, 2.0, 40), lambda t: np.exp(-t) + 0.1, True),
        ("anchored", np.linspace(1.0, 3.0, 30),
         lambda t: 0.7 * np.exp(-2.0 * t) + 0.2, False),
        # the shapes of the recorded energies: rising to a plateau, rising
        # (twice), and a decay whose free fit has a negative offset (the
        # bound is active)
        ("flat", run, lambda t: 1.86 + 0.033 * np.sin(15.7 * t), False),
        ("rising", run, lambda t: 0.5 + 0.1 * (1.0 - np.exp(-5.0 * t)),
         False),
        ("ramp", run, lambda t: 0.55 + 0.03 * t, False),
        ("zero-floor", run, lambda t: 3.0 * np.exp(-0.5 * t) - 0.05, True),
        ("step", np.linspace(0.0, 1.0, 20), lambda t: step, False),
    ]
    t = np.linspace(0.0, 3.0, 50)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a, r, c = rng.uniform(0.5, 3.0), rng.uniform(0.3, 4.0), rng.uniform(0.0, 1.0)
        y = np.maximum(a * np.exp(-r * t) + c + 0.01 * rng.standard_normal(50),
                       0.0)
        series.append((f"noisy{seed}", t, lambda t, y=y: y, True))
    return [(name, t, f(t), determined) for name, t, f, determined in series]


@pytest.mark.parametrize("name, t, y, determined", _fit_series(),
                         ids=[s[0] for s in _fit_series()])
def test_fit_decay_is_no_worse_than_least_squares(name, t, y, determined):
    amp, rate, offset, residual = _least_squares_fit(t, y)
    fit = fit_decay(t, y)
    assert min(fit.amplitude, fit.rate, fit.offset) >= 0.0
    # a residual of exact data is rounding: allow that much on top
    rounding = 8.0 * np.finfo(float).eps * float(y.max())
    assert fit.residual <= residual * (1.0 + 1e-9) + rounding
    if determined:
        assert (fit.amplitude, fit.rate, fit.offset) == pytest.approx(
            (amp, rate, offset), rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("name", ["constant", "flat", "rising", "ramp"])
def test_a_decay_fit_without_a_rate_puts_the_level_in_the_offset(name):
    # at rate 0 the amplitude and the offset cannot be told apart: least
    # squares ends at a rate of at most 1e-10 with some split of the level,
    # the fit reports rate 0, amplitude 0 and the whole level as offset
    _, t, y, _ = next(s for s in _fit_series() if s[0] == name)
    amp, rate, offset, residual = _least_squares_fit(t, y)
    assert rate <= 1e-10
    fit = fit_decay(t, y)
    assert (fit.amplitude, fit.rate) == (0.0, 0.0)
    assert fit.offset == pytest.approx(y.mean(), rel=1e-15)
    assert fit.offset == pytest.approx(amp + offset, rel=1e-9)
    assert fit.residual == pytest.approx(residual, rel=1e-10, abs=1e-15)


def test_fit_decay_scans_in_blocks_without_changing_the_fit(monkeypatch):
    # a long series is scanned a few rates at a time; the fit is the same
    # bit for bit, since each rate's profile is computed on its own
    whole = [fit_decay(t, y) for _, t, y, _ in _fit_series()]
    monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", 100)
    assert [fit_decay(t, y) for _, t, y, _ in _fit_series()] == whole


def test_a_late_steep_fit_reports_its_amplitude_without_overflow():
    # a step at t0 = 10 fits rate 703, so the factor e^{rate t0} that moves
    # the amplitude to t = 0 overflows; the amplitude itself, 1.5 e^{7030},
    # exceeds the float range too and reads inf
    t = np.linspace(10.0, 11.0, 20)
    y = np.full(20, 0.5)
    y[0] = 2.0
    fit = fit_decay(t, y)
    assert fit.rate > 700.0 and fit.amplitude == math.inf
    assert fit.offset == pytest.approx(0.5, rel=1e-12)
    # where only the factor overflows, the value comes from its logarithm;
    # an amplitude of 0 stays 0, and a factor in range is applied as is
    amp = experiments._amplitude_at_zero
    assert amp(1e-300, 1.0, 800.0) == math.exp(math.log(1e-300) + 800.0)
    assert math.isfinite(amp(1e-300, 1.0, 800.0))
    assert amp(0.0, 703.0, 10.0) == 0.0
    assert amp(2.0, 3.0, 0.0) == 2.0
    assert amp(2.0, 3.0, 1.5) == 2.0 * math.exp(4.5)


def test_the_sweep_verdict_compares_scaled_errors(interval, monkeypatch):
    # at the calibration eps 0.2, (e0 / sqrt(0.2)) * sqrt(0.2) rounds below
    # e0, so an envelope check on unscaled errors fails the very error it
    # was calibrated on; the scaled errors compare exactly
    e0 = 0.0038064830680943694
    assert (e0 / math.sqrt(0.2)) * math.sqrt(0.2) < e0
    errors = iter([e0, e0 / 2.0, 0.3 * e0, 0.2 * e0])
    monkeypatch.setattr(experiments, "_sup_gap",
                        lambda *args: next(errors))
    cfg = ProblemConfig(interval, exponential_kernel(0.5, rate=3.0), SHIFTED,
                        alpha=0.0, beta=1.0, eps=0.2, dt=0.0025, t_final=1.0)
    sw = robustness_sweep(cfg, [0.2, 0.1, 0.05, 0.025],
                          interval.constant_field(0.5))
    assert sw.c_calibrated == e0 / math.sqrt(0.2)
    assert sw.bound_ok and sw.monotone


def test_smooth_profile_is_reproducible(interval):
    a = smooth_profile(interval)
    b = smooth_profile(interval)
    assert a.bulk.tobytes() == b.bulk.tobytes()
    assert interval.is_trace_compatible(a)
    assert np.abs(a.bulk).max() > 0.8


# -- energy decay gate ----------------------------------------------------------


def test_energy_decay_refuses_when_the_gate_fails(interval):
    # beta = 0.6 pushes the anti-dissipation past omega / C
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
    cfg = ProblemConfig(interval, exponential_kernel(0.5, rate=1.0), nl,
                        alpha=0.0, beta=0.6, eps=1.0, dt=0.0016,
                        t_final=0.0016)
    with pytest.raises(GateError, match="smallness gate failed"):
        energy_decay_experiment(cfg, radius=10.0)


def _loop_entry_time(times, below):
    # the rule as a scan: the first sample from which on every one is below
    for i in range(below.size):
        if below[i:].all():
            return float(times[i])
    return math.inf


@pytest.mark.parametrize("below, want", [
    ([True, True, True, True, True], 0.0),
    # a re-entry: below, above, below again; entry after the last exit
    ([True, False, True, False, True], 0.4),
    ([False, True, True, False], math.inf),
])
def test_entry_time_follows_the_last_exit(below, want):
    times = np.arange(len(below)) * 0.1
    below = np.array(below)
    assert _entry_time(times, below) == want
    assert _entry_time(times, below) == _loop_entry_time(times, below)


# -- integral inequality audits ---------------------------------------------------


def test_gronwall_trivial_cases_pass():
    t = np.linspace(0.0, 10.0, 2001)
    lam = 3.0 * np.exp(-2.0 * 0.7 * t)
    assert gronwall_check(t, lam, np.zeros_like(t), 0.0, 0.7, 0.0) == "pass"
    eta = 0.9
    lam2 = 1.5 * np.exp(-eta * t) + (1.0 - np.exp(-eta * t)) / eta
    assert gronwall_check(t, lam2, np.full_like(t, eta), 1.0, eta, 0.0) == "pass"


def test_gronwall_reports_inadmissible_forcing_as_inconclusive():
    t = np.linspace(0.0, 10.0, 2001)
    lam = 3.0 * np.exp(-1.4 * t)
    assert gronwall_check(t, lam, np.full_like(t, 5.0), 0.0, 0.7, 0.0) == \
        "inconclusive"


def test_gronwall_detects_a_conclusion_violation():
    t = np.linspace(0.0, 10.0, 2001)
    eta = 1.0
    # decays slower than the certified envelope while h = 0 is admissible
    lam = 2.0 * np.exp(-0.5 * eta * t)
    assert gronwall_check(t, lam, np.zeros_like(t), 0.0, eta, 0.0) == "fail"


def test_gronwall_parameter_validation():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        gronwall_check(t, np.ones(10), np.ones(10), 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gronwall_check(t, np.ones(10), np.ones(10), -1.0, 1.0, 0.0)


def test_gronwall_instance_stays_below_its_envelope():
    times, lam, h = gronwall_instance(eta=1.1, k=0.7, m=0.9, q=2.0, psi=0.3,
                                      lam0=2.5, t_final=6.0)
    assert gronwall_check(times, lam, h, 0.7, 1.1, 0.9) == "pass"


def test_gronwall_random_suite_has_no_violations():
    counts = gronwall_random_suite(50, seed=123)
    assert counts["fail"] == 0
    assert counts["inconclusive"] == 0
    assert counts["pass"] == 50


# -- attraction-rate combinator ----------------------------------------------------


def test_combination_rule_frozen_point():
    assert transitivity_combine(1.0, 0.0, 1.0, 1.0, 1.0, 1.0) == (2.0, 0.5)


def test_combination_rule_saturates_at_the_first_rate():
    prev = 0.0
    for a2 in (1e2, 1e4, 1e6):
        _, ac = transitivity_combine(1.0, 0.5, 1.0, 1.2, 1.0, a2)
        assert prev < ac < 1.2
        prev = ac
    assert ac == pytest.approx(1.2, rel=1e-5)


def test_combination_rule_input_validation():
    with pytest.raises(ValueError):
        transitivity_combine(1.0, 0.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        transitivity_combine(0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        transitivity_combine(1.0, -0.1, 1.0, 1.0, 1.0, 1.0)


def test_chained_bound_attains_the_combined_envelope():
    rep = transitivity_chain_check(1.3, 0.8, 2.0, 1.1, 0.7, 2.3)
    assert rep.passed
    assert abs(rep.max_violation) <= 1e-9 * (rep.c_combined + 1.0)


def test_misprinted_rate_formula_is_rejected_by_the_chain():
    # replacing a1 a2 by a1 a1 in the rate makes the envelope claim false
    c_lip, k_lip, c1, a1, c2, a2 = 1.0, 0.5, 1.0, 2.0, 1.0, 1.0
    cc = c_lip * c1 + c2
    ac_bad = a1 * a1 / (k_lip + a1 + a2)
    worst = -np.inf
    for t in np.linspace(0.0, 20.0, 1000):
        s = np.linspace(0.0, t, 400) if t > 0 else np.array([0.0])
        chained = (c_lip * np.exp(k_lip * s) * c1 * np.exp(-a1 * (t - s))
                   + c2 * np.exp(-a2 * s))
        worst = max(worst, float(chained.min() - cc * math.exp(-ac_bad * t)))
    assert worst > 0.1


# -- sweep validators ---------------------------------------------------------------


def test_sweep_result_rejects_degenerate_data():
    with pytest.raises(ValueError, match="strictly decreasing"):
        SweepResult(np.array([0.1, 0.2]), np.array([1.0, 2.0]),
                    0.5, 0.0, 1.0, True, True)
    with pytest.raises(ValueError, match="positive"):
        SweepResult(np.array([0.2, 0.1]), np.array([1.0, 0.0]),
                    0.5, 0.0, 1.0, True, True)


def test_holder_pair_gap_validates_the_horizon_order(interval):
    nl = make_nonlinearity([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
    cfg = ProblemConfig(interval, exponential_kernel(0.5, rate=3.0), nl,
                        alpha=0.0, beta=1.0, eps=0.2, dt=0.0025, t_final=0.01)
    u0 = interval.constant_field(0.5)
    with pytest.raises(ValueError):
        holder_pair_gap(cfg, 0.1, 0.2, u0, t_star=0.005)
    with pytest.raises(ValueError):
        holder_pair_gap(cfg, 1.5, 0.2, u0, t_star=0.005)


def test_holder_pair_gap_sees_the_final_state():
    # stride 300 of 400 steps: the only observed state in [0.8, 1.6] is the
    # final one at t = 1, which the gap must not drop
    d = build_domain("interval", 33)
    cfg = ProblemConfig(d, exponential_kernel(0.5, rate=3.0), SHIFTED,
                        alpha=0.0, beta=1.0, eps=0.2, dt=0.0025, t_final=1.0,
                        record_stride=300)
    u0 = d.constant_field(0.5)
    gap = holder_pair_gap(cfg, 0.2, 0.1, u0, t_star=0.8)
    assert gap == pytest.approx(0.0091, rel=0.01)
    every = dataclasses.replace(cfg, record_stride=1)
    assert gap == holder_pair_gap(every, 0.2, 0.1, u0, t_star=1.0)


def test_pair_gaps_refuse_a_horizon_off_the_step_grid(interval):
    cfg = ProblemConfig(interval, exponential_kernel(0.5, rate=3.0), SHIFTED,
                        alpha=0.0, beta=1.0, eps=0.2, dt=0.003, t_final=0.1)
    u0 = interval.constant_field(0.5)
    with pytest.raises(ValueError, match="integer multiple"):
        holder_pair_gap(cfg, 0.2, 0.1, u0, t_star=0.05)
    with pytest.raises(ValueError, match="integer multiple"):
        robustness_sweep(cfg, [0.2, 0.1], u0)


def test_robustness_sweep_refuses_an_empty_audit_window(interval):
    # sqrt(0.1) lies past t_final = 0.1: no sample is audited, every error
    # is 0, and SweepResult refuses it
    cfg = ProblemConfig(interval, exponential_kernel(0.5, rate=3.0), SHIFTED,
                        alpha=0.0, beta=1.0, eps=0.2, dt=0.005, t_final=0.1)
    with pytest.raises(ValueError, match="must be positive"):
        robustness_sweep(cfg, [0.2, 0.1], smooth_profile(interval))
