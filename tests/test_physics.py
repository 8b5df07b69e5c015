"""Reaction pairs, certified structure constants, and the smallness gate."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat import physics
from memheat.domain import StateField, norm_v1_sq, norm_x2_sq
from memheat.physics import (
    _EMBED_TOL,
    _check_sign_oracle,
    _horner,
    _oracle_grid,
    check_smallness,
    estimate_embedding_constant,
    eval_F,
    eval_f,
    eval_g,
    lipschitz_bound,
    make_nonlinearity,
    monotonicity_shift,
)


def test_cubic_minus_linear_constants():
    # f(s) = s^3 - s: s f(s) = s^4 - s^2 >= -1/4, slope bounded below by -1
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
    assert nl.kappa1 == 0.0
    assert nl.kappa2 == pytest.approx(0.25, abs=1e-12)
    assert nl.kappa3 == 0.0
    assert nl.kappa4 == pytest.approx(0.25, abs=1e-12)
    assert nl.m_f == pytest.approx(1.0, abs=1e-12)
    assert nl.m_g == pytest.approx(1.0, abs=1e-12)


def test_pure_linear_and_constant_terms():
    # f(s) = -s: s f(s) = -s^2, absorbed entirely into kappa1
    nl = make_nonlinearity([0.0, -1.0], [0.0, 0.0, 0.0, 1.0])
    assert (nl.kappa1, nl.kappa2) == (1.0, 0.0)
    # f(s) = 1: s f(s) = s, the bare linear term splits evenly
    nl2 = make_nonlinearity([1.0], [0.0])
    assert (nl2.kappa1, nl2.kappa2) == (0.5, 0.5)
    # the zero pair is admissible with no anti-dissipation at all
    nl3 = make_nonlinearity([0.0], [0.0])
    assert (nl3.kappa1, nl3.kappa2, nl3.kappa3, nl3.kappa4) == (0.0,) * 4
    assert nl3.m_f == 0.0


def test_sign_inequality_certified_on_grid():
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [2.0, -3.0, 0.0, 0.5])
    s = np.linspace(-20.0, 20.0, 20001)
    for coeffs, k1, k2 in ((nl.f_coeffs, nl.kappa1, nl.kappa2),
                           (nl.g_coeffs, nl.kappa3, nl.kappa4)):
        h = s * np.polynomial.polynomial.polyval(s, coeffs)
        assert np.min(h + k1 * s**2 + k2) >= -1e-9 * max(1.0, np.abs(h).max())


# the reaction pair of every benchmark workload
WORKLOAD_F = [-0.125, 0.0, 0.0, 1.0]
WORKLOAD_G = [-0.375, 0.0, 0.0, 1.0]


def _assert_bitwise(a, b):
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_horner_is_bitwise_polyval():
    polyval = np.polynomial.polynomial.polyval
    polyder = np.polynomial.polynomial.polyder
    nl = make_nonlinearity(WORKLOAD_F, [2.0, -3.0, 0.0, 0.5])
    padded = [nl.f_coeffs, nl.g_coeffs, make_nonlinearity([0.0, -1.0], [1.0]).f_coeffs]
    assert all(len(c) == 4 for c in padded)
    derived = [polyder(c) for c in padded]
    assert all(len(c) == 3 for c in derived)
    coeff_sets = padded + derived + [(2.5,), (-0.0,)]
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e100, -1e100])
    inputs = [rng.normal(scale=3.0, size=257), rng.normal(size=(4, 5)), special,
              np.asarray(-0.0), np.asarray(1.5), -0.0, 2.0, np.inf]
    # inf * 0 and inf - inf are NaN in both, as is overflow to inf
    with np.errstate(invalid="ignore", over="ignore"):
        for coeffs in coeff_sets:
            for s in inputs:
                _assert_bitwise(_horner(s, coeffs), polyval(s, coeffs))
        _assert_bitwise(eval_f(nl, special), polyval(special, nl.f_coeffs))
    _assert_bitwise(eval_g(nl, -0.0), polyval(-0.0, nl.g_coeffs))


def _reference_sign_oracle(coeffs, kappa1, kappa2):
    # the oracle's rule in one scan of the whole grid, written with polyval
    # as it read before Horner: None if it passes, else its message
    s = _oracle_grid()
    h = s * np.polynomial.polynomial.polyval(s, coeffs)
    worst = float(np.min(h + kappa1 * s**2 + kappa2))
    if worst < -1e-9 * max(1.0, np.abs(h).max()):
        return f"sign constants fail on the oracle grid by {worst:.3e}"
    return None


def _reference_sign_oracle_passes(coeffs, kappa1, kappa2):
    return _reference_sign_oracle(coeffs, kappa1, kappa2) is None


def _sign_oracle_message(coeffs, kappa1, kappa2):
    try:
        _check_sign_oracle(coeffs, kappa1, kappa2, "f")
    except AssertionError as e:
        return str(e)
    return None


def test_sign_oracle_catches_understated_constants():
    nl = make_nonlinearity(WORKLOAD_F, WORKLOAD_G)
    for coeffs, k1, k2 in ((nl.f_coeffs, nl.kappa1, nl.kappa2),
                           (nl.g_coeffs, nl.kappa3, nl.kappa4)):
        _check_sign_oracle(coeffs, k1, k2, "f")
        # the tolerance is relative to max |s f(s)| on the grid, about 1e8
        # for these cubics, so it resolves understatements beyond 0.1
        with pytest.raises(AssertionError):
            _check_sign_oracle(coeffs, k1, k2 - 0.2, "f")
        with pytest.raises(AssertionError):
            _check_sign_oracle(coeffs, k1 - 1.0, k2, "f")
        # the verdict is the old rule's on both sides of that threshold
        for dk1, dk2 in ((0.0, 0.05), (0.0, 0.1000001), (0.0, 0.11),
                         (0.5, 0.0), (0.7, 0.0)):
            try:
                _check_sign_oracle(coeffs, k1 - dk1, k2 - dk2, "f")
                passed = True
            except AssertionError:
                passed = False
            assert passed == _reference_sign_oracle_passes(
                coeffs, k1 - dk1, k2 - dk2), (coeffs, dk1, dk2)
    # an indefinite quadratic part: kappa1 > 0 carries the check
    nl = make_nonlinearity([0.5, -1.0], [0.0])
    assert nl.kappa1 == 1.25
    _check_sign_oracle(nl.f_coeffs, nl.kappa1, nl.kappa2, "f")
    with pytest.raises(AssertionError):
        _check_sign_oracle(nl.f_coeffs, nl.kappa1 - 0.01, nl.kappa2, "f")


def _worst_oracle_point(coeffs, k1, k2) -> int:
    s = _oracle_grid()
    with np.errstate(over="ignore", invalid="ignore"):
        bound = s * np.polynomial.polynomial.polyval(s, coeffs) + k1 * s**2 + k2
        return int(np.nanargmin(bound))


def test_chunked_sign_oracle_matches_the_whole_grid_rule(monkeypatch):
    nl = make_nonlinearity(WORKLOAD_F, WORKLOAD_G)
    cases = [
        (nl.f_coeffs, nl.kappa1, nl.kappa2),
        (nl.f_coeffs, nl.kappa1, nl.kappa2 - 0.2),
        (nl.g_coeffs, nl.kappa3 - 1.0, nl.kappa4),
    ]
    for coeffs, k1, k2 in cases:
        want = _reference_sign_oracle(coeffs, k1, k2)
        # chunks that start, and that end, at the worst point
        worst = _worst_oracle_point(coeffs, k1, k2)
        for chunk in (1000, *((worst, worst + 1) if worst > 1 else ())):
            assert _oracle_grid().size % chunk != 0  # the last chunk is ragged
            monkeypatch.setattr(physics, "_ORACLE_CHUNK", chunk)
            assert _sign_oracle_message(coeffs, k1, k2) == want, (
                coeffs, k1, k2, chunk)
    assert _reference_sign_oracle(*cases[1]) is not None


@pytest.mark.parametrize("coeffs, k1, k2", [
    # s f(s) overflows to inf at both ends, so the scale is inf
    ((0.0, 0.0, 0.0, 1e305), 0.0, -1.0),
    # s f(s) -> -inf and kappa1 s^2 -> inf: NaN at both ends
    ((0.0, -1e305), 1e305, -1.0),
    # -inf on s < 0 and NaN on s > 0
    ((np.inf, -np.inf), 0.0, 0.0),
    # NaN for |s| > 42, -inf between
    (WORKLOAD_F, 1e305, -np.inf),
])
def test_sign_oracle_refuses_what_is_not_finite_on_its_grid(monkeypatch,
                                                            coeffs, k1, k2):
    # these passed before, certified by an infinite scale or a NaN worst
    # point; no chunk size, one that splits at the worst point included,
    # may let them through
    worst = _worst_oracle_point(coeffs, k1, k2)
    for chunk in (1000, *((worst, worst + 1) if worst > 1 else ())):
        monkeypatch.setattr(physics, "_ORACLE_CHUNK", chunk)
        with pytest.raises(ValueError, match="g cannot be certified"):
            _check_sign_oracle(coeffs, k1, k2, "g")


def test_inadmissible_polynomials_are_rejected():
    with pytest.raises(ValueError):
        make_nonlinearity([0.0, 0.0, 0.0, -1.0], [0.0])  # negative cubic
    with pytest.raises(ValueError):
        make_nonlinearity([0.0, 0.0, 1.0], [0.0])  # bare quadratic
    with pytest.raises(ValueError):
        make_nonlinearity([0.0, 0.0, 0.0, 0.0, 1.0], [0.0])  # degree 4


def test_reaction_pair_boundary_bookkeeping(interval):
    # the boundary component carries g(v) minus the omega beta v term that
    # the implicit linear operator applies
    nl = make_nonlinearity([0.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0])
    u = interval.constant_field(1.5)
    out = eval_F(u, nl, omega=0.5, beta=2.0)
    assert np.allclose(out.bulk, 1.5**3)
    want = (1.5**3 + 2.0 * 1.5) - 0.5 * 2.0 * 1.5
    assert np.allclose(out.boundary, want)
    assert eval_f(nl, 2.0) == pytest.approx(8.0)
    assert eval_g(nl, 2.0) == pytest.approx(12.0)


def test_shifted_reaction_is_monotone(interval):
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.5, -2.0, 0.0, 1.0])
    om, beta = 0.5, 1.5
    mf = monotonicity_shift(nl, om, beta)
    assert mf == pytest.approx(max(nl.m_f, nl.m_g + om * beta) + 1e-6, abs=1e-15)
    # F + M_F id, the reaction the compact split shifts by, is monotone in
    # both components
    s = np.linspace(-5.0, 5.0, 4001)
    u = StateField(s, s.copy())
    shifted = eval_F(u, nl, om, beta) + mf * u
    assert np.min(np.diff(shifted.bulk)) >= -1e-9
    assert np.min(np.diff(shifted.boundary)) >= -1e-9


def test_lipschitz_bound_on_cubic_box():
    nl = make_nonlinearity([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
    # sup over |s| <= 2 of max(|3 s^2|, |3 s^2 - omega beta|) = 12
    assert lipschitz_bound(nl, 0.5, 1.0, 2.0) == pytest.approx(12.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_lipschitz_bound_dominates_differences(a, b):
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.3, 0.0, 0.0, 0.7])
    om, beta = 0.4, 1.2
    lip = lipschitz_bound(nl, om, beta, 2.0)
    df = abs(eval_f(nl, a) - eval_f(nl, b))
    dg = abs((eval_g(nl, a) - om * beta * a) - (eval_g(nl, b) - om * beta * b))
    assert max(df, dg) <= lip * abs(a - b) + 1e-12


def test_smallness_gate_frozen_constants():
    # f = g = s^3 - s with omega = 0.5, beta = 0.1 against unit embedding
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
    gate = check_smallness(nl, omega=0.5, beta=0.1, c_embed=1.0, delta=1.0)
    assert gate.passes
    assert gate.c_f == pytest.approx(0.1, abs=1e-15)
    assert gate.threshold == pytest.approx(0.5, abs=1e-15)
    assert gate.m0 == pytest.approx(0.8, abs=1e-12)
    assert gate.p0 == pytest.approx(1.25, abs=1e-12)
    assert gate.absorbing_time(10.0) == pytest.approx(math.log(100.0) / 0.8,
                                                      rel=1e-12)
    # a small decay rate caps m0
    gate2 = check_smallness(nl, 0.5, 0.1, 1.0, delta=0.3)
    assert gate2.m0 == pytest.approx(0.3, abs=1e-15)


def test_smallness_gate_refusal():
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
    gate = check_smallness(nl, omega=0.5, beta=0.6, c_embed=1.0)
    assert not gate.passes
    assert gate.m0 is None and gate.p0 is None
    with pytest.raises(ValueError):
        gate.absorbing_time(10.0)


def test_embedding_constant_on_the_interval(interval):
    c = estimate_embedding_constant(interval, 1.0, 1.0)
    # constants extremize the (1, 1) form on the interval, so C = 1
    assert c == pytest.approx(1.0, abs=1e-6)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = interval.field_from_bulk(rng.normal(size=interval.n_bulk))
        x2 = norm_x2_sq(u, interval)
        v1 = norm_v1_sq(u, interval, 1.0, 1.0)
        assert x2 <= c * v1 * (1.0 + 1e-6)
    with pytest.raises(ValueError):
        estimate_embedding_constant(interval, 0.0, 0.0)


def test_embedding_constant_is_the_top_generalized_eigenvalue(square):
    # dense reference for the power iteration on the sparse factor
    k_mat = square.bulk_operators(1.0, 1.0)[0].toarray()
    top = scipy.linalg.eigh(np.diag(square.mass_diag()), k_mat,
                            eigvals_only=True)[-1]
    assert estimate_embedding_constant(square, 1.0, 1.0) == pytest.approx(
        top, rel=_EMBED_TOL, abs=0.0)


def test_shared_equilibrium_of_both_reaction_laws():
    # with omega = 0.5, beta = 1: f(m) = 0 and g(m) + beta (1 - omega) m = 0
    # pick out the same constant state m = 1/2
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    m, beta, omega = 0.5, 1.0, 0.5
    assert eval_f(nl, m) == pytest.approx(0.0, abs=1e-15)
    assert eval_g(nl, m) + beta * (1.0 - omega) * m == pytest.approx(
        0.0, abs=1e-15)
