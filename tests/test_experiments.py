"""Decay fitting, integral-inequality audits, and the sweep validators."""

import dataclasses
import math

import numpy as np
import pytest

from memheat.domain import build_domain
from memheat.memory import exponential_kernel
from memheat.physics import make_nonlinearity
from memheat.solver import ProblemConfig
from memheat.experiments import (
    GateError,
    SweepResult,
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
