"""Reaction pairs, certified structure constants, and the smallness gate."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memheat import physics
from memheat.domain import StateField, norm_v1_sq, norm_x2_sq
from memheat.physics import (
    _check_sign_certificate,
    _horner,
    check_smallness,
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


# admissible cubics: a nonnegative cubic term, and no bare quadratic; the
# coefficients lie on a 1e-3 lattice, since a tiny one can make a constant
# overflow (f = 1 + 1e-311 s has kappa2 = 1/(4e-311)), which is refused
_COEFF = st.integers(-5000, 5000).map(lambda k: k / 1000.0)
_CUBIC = st.one_of(
    st.tuples(_COEFF, _COEFF, _COEFF,
              st.integers(50, 5000).map(lambda k: k / 1000.0)),
    st.tuples(_COEFF, _COEFF, st.just(0.0), st.just(0.0)))


@settings(max_examples=60, deadline=None)
@given(_CUBIC, _CUBIC)
@example((-0.125, 0.0, 0.0, 1.0), (2.0, -3.0, 0.0, 0.5))
def test_sign_inequality_certified_on_grid(f, g):
    # an independent dense-grid reference for the certificate: every grid
    # point obeys the inequality within rounding of its own terms
    nl = make_nonlinearity(f, g)
    s = np.linspace(-20.0, 20.0, 20001)
    for coeffs, k1, k2 in ((nl.f_coeffs, nl.kappa1, nl.kappa2),
                           (nl.g_coeffs, nl.kappa3, nl.kappa4)):
        h = s * np.polynomial.polynomial.polyval(s, coeffs)
        terms = np.polynomial.polynomial.polyval(np.abs(s), np.abs(coeffs))
        terms = np.abs(s) * terms + k1 * s**2 + k2
        assert k1 >= 0.0 and k2 >= 0.0
        assert np.all(h + k1 * s**2 + k2 >= -1e-12 * terms)


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


def test_sign_oracle_catches_understated_constants():
    nl = make_nonlinearity(WORKLOAD_F, WORKLOAD_G)
    # an indefinite quadratic part: kappa1 > 0 carries the check, and
    # s f(s) + kappa1 s^2 + kappa2 = (1 + s)^2 / 4 touches 0 at s = -1
    quad = make_nonlinearity([0.5, -1.0], [0.0])
    assert (quad.kappa1, quad.kappa2) == (1.25, 0.25)
    for coeffs, k1, k2 in ((nl.f_coeffs, nl.kappa1, nl.kappa2),
                           (nl.g_coeffs, nl.kappa3, nl.kappa4),
                           (quad.f_coeffs, quad.kappa1, quad.kappa2)):
        _check_sign_certificate(coeffs, k1, k2, "f")
        # an understatement by 1e-9 relative is refused
        with pytest.raises(ValueError, match="f cannot .* falls to"):
            _check_sign_certificate(coeffs, k1, k2 * (1.0 - 1e-9), "f")
        # and any negative kappa1, however small
        for bad in (-1e-300, -0.5):
            with pytest.raises(ValueError, match="negative constant"):
                _check_sign_certificate(coeffs, bad, k2, "f")
        with pytest.raises(ValueError, match="negative constant"):
            _check_sign_certificate(coeffs, k1, -1e-300, "f")
    # the workload cubics' kappa2 is not 0, which the grid tolerance took
    assert nl.kappa2 == pytest.approx(0.0295294, abs=1e-7)
    with pytest.raises(ValueError, match="falls to -2.953e-02"):
        _check_sign_certificate(nl.f_coeffs, 0.0, 0.0, "f")
    with pytest.raises(ValueError, match="falls to"):
        _check_sign_certificate(quad.f_coeffs, quad.kappa1 * (1.0 - 1e-9),
                                quad.kappa2, "f")
    # s f(s) = s, with kappa1 = 0: p has odd degree, so it is unbounded below
    with pytest.raises(ValueError, match="unbounded below"):
        _check_sign_certificate((1.0, 0.0, 0.0, 0.0), 0.0, 10.0, "f")


@pytest.mark.parametrize("coeffs, k1, k2", [
    # s f(s) overflows to inf at both ends
    ((0.0, 0.0, 0.0, 1e305), 0.0, -1.0),
    # s f(s) -> -inf and kappa1 s^2 -> inf
    ((0.0, -1e305), 1e305, -1.0),
    # coefficients that are not finite
    ((np.inf, -np.inf), 0.0, 0.0),
    # kappa1 s^2 overflows, and kappa2 is not finite
    (WORKLOAD_F, 1e305, -np.inf),
])
def test_sign_oracle_refuses_what_is_not_finite_on_its_grid(coeffs, k1, k2):
    # overflow within |s| <= 100 certifies nothing, before the constants'
    # signs are looked at
    with pytest.raises(ValueError, match="g cannot .* is not finite"):
        _check_sign_certificate(coeffs, k1, k2, "g")


def test_a_small_real_critical_point_beside_a_huge_complex_pair(monkeypatch):
    # (s f)' has the real root -c0 / (2 c1) = -0.0924 and a complex pair near
    # +-2.82e53 i; the companion roots return that real root as 0, so the
    # minimum of s f, -c0^2 / (4 c1) = -2.3659e149, was read as -6.731e106
    c0, c1 = 5.12e150, 2.77e151
    f = [c0, c1, 6.1, 1.74e44]
    nl = make_nonlinearity(f, WORKLOAD_G)
    assert nl.kappa1 == 0.0
    assert nl.kappa2 == pytest.approx(c0 * c0 / (4.0 * c1), rel=1e-12)
    # a real root that Newton's steps leave off is refused, naming f
    monkeypatch.setattr(physics, "_NEWTON_STEPS", 0)
    with pytest.raises(ValueError, match="f cannot be certified: its "
                       "critical points cannot be computed .*Newton"):
        make_nonlinearity(f, WORKLOAD_G)


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


def test_lipschitz_bound_finds_the_vertex_between_samples():
    # f' = 3 s^2 - 0.003 s - 10 has its vertex at s = 5e-4, between two
    # points of a 2001-point sample of [-1, 1], where |f'| = 10 + 0.0015^2/3
    nl = make_nonlinearity([0.0, -10.0, -0.0015, 1.0], [0.0, 0.0, 0.0, 1.0])
    assert lipschitz_bound(nl, 0.5, 1.0, 1.0) == pytest.approx(
        10.0 + 0.0015**2 / 3.0, abs=1e-12)


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
    # f = g = s^3 - s with omega = 0.5, beta = 0.1
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
    gate = check_smallness(nl, omega=0.5, beta=0.1, delta=1.0)
    assert gate.passes
    assert gate.c_f == pytest.approx(0.1, abs=1e-15)
    assert gate.threshold == pytest.approx(0.5, abs=1e-15)
    assert gate.m0 == pytest.approx(0.8, abs=1e-12)
    assert gate.p0 == pytest.approx(1.25, abs=1e-12)
    assert gate.absorbing_time(10.0) == pytest.approx(math.log(100.0) / 0.8,
                                                      rel=1e-12)
    # a small decay rate caps m0
    gate2 = check_smallness(nl, 0.5, 0.1, delta=0.3)
    assert gate2.m0 == pytest.approx(0.3, abs=1e-15)


def test_smallness_gate_refusal():
    nl = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
    gate = check_smallness(nl, omega=0.5, beta=0.6, delta=1.0)
    assert not gate.passes
    assert gate.m0 is None and gate.p0 is None
    with pytest.raises(ValueError):
        gate.absorbing_time(10.0)


def _top_generalized_eigenvalue(d):
    # C in ||u||_X2^2 <= C ||u||_V1^2 under the (1, 1) form is the top
    # eigenvalue of M u = lambda K_{1,1} u
    k_mat = d.bulk_operators(1.0, 1.0)[0].toarray()
    return scipy.linalg.eigh(np.diag(d.mass_diag()), k_mat,
                             eigvals_only=True)[-1]


def test_embedding_constant_on_the_interval(interval):
    # constants extremize the (1, 1) form, so the gate takes C = 1
    assert _top_generalized_eigenvalue(interval) == pytest.approx(
        1.0, rel=0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = interval.field_from_bulk(rng.normal(size=interval.n_bulk))
        x2 = norm_x2_sq(u, interval)
        v1 = norm_v1_sq(u, interval, 1.0, 1.0)
        assert x2 <= v1 * (1.0 + 1e-12)


def test_embedding_constant_is_the_top_generalized_eigenvalue(square):
    # dense reference for the C = 1 that the gate takes
    assert _top_generalized_eigenvalue(square) == pytest.approx(
        1.0, rel=0.0, abs=1e-12)


def test_shared_equilibrium_of_both_reaction_laws():
    # with omega = 0.5, beta = 1: f(m) = 0 and g(m) + beta (1 - omega) m = 0
    # pick out the same constant state m = 1/2
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    m, beta, omega = 0.5, 1.0, 0.5
    assert eval_f(nl, m) == pytest.approx(0.0, abs=1e-15)
    assert eval_g(nl, m) + beta * (1.0 - omega) * m == pytest.approx(
        0.0, abs=1e-15)
