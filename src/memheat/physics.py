"""Reaction terms and the structural constants the energy estimates need.

Bulk and boundary reactions are cubic-or-lower polynomials with nonnegative
leading coefficient. From the coefficients we derive, and certify:

* sign conditions  s f(s) >= -kappa1 s^2 - kappa2  (same for g with
  kappa3/kappa4), with kappa1 minimal so the smallness gate is as sharp as
  the data allow;
* semiconvexity constants  M_f = -min f' (cut at 0), likewise M_g.

The growth assumption on the derivatives, |f'(s)| <= ell (1 + |s|^r) with
r < 5/2, holds with r = 2, since a degree above three is refused.

Every polynomial is evaluated by one in-place Horner recurrence,
``_horner``: f and g in each step, and the minima, the sign certificate and
the Lipschitz bound at construction. It follows
``numpy.polynomial.polynomial.polyval``'s order of operations, so it is
bitwise equal to it, without a temporary per coefficient.

Every check rests on one rule: a polynomial of degree at most four takes its
extremes on a set only at the set's ends or at real critical points.
``_critical_points`` supplies 0 and the real parts of all roots of the
derivative, a superset that can neither lower a minimum nor raise a maximum;
where a real root fails its backward error, which the companion roots give
when the coefficients span hundreds of decades, every real root is also
bracketed, by exact sign changes between the roots of the derivative's
derivative.
The sign certificate evaluates p(s) = s f(s) + kappa1 s^2 + kappa2, plus a
tolerance of a few rounding units of its |terms| at s, at the critical
points of each half-line in ``np.longdouble``. It refuses, with a
ValueError, negative constants, a p unbounded below, and an s f(s) or
kappa1 s^2 that overflows for |s| <= ``_FINITE_RANGE``.

The coupled-system vector reaction is F(u) = (f(u), g(u) - omega beta u) on
(bulk, boundary); adding M_F u with M_F = max(M_f, M_g + omega beta) + 1e-6
makes it monotone, which the splitting experiments rely on.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.typing import NDArray

from .domain import StateField

__all__ = [
    "NonlinearitySpec",
    "make_nonlinearity",
    "eval_f",
    "eval_g",
    "eval_F",
    "monotonicity_shift",
    "lipschitz_bound",
    "SmallnessReport",
    "check_smallness",
]

Array = NDArray[np.float64]

# s f(s) and kappa1 s^2 must be finite for |s| up to this, or the sign
# constants are refused as not certifiable
_FINITE_RANGE = 100.0


def _horner(s, coeffs):
    """The polynomial with ascending ``coeffs`` at float ``s``, in place.

    The recurrence y = c[-1] + 0 s, then y = c[i] + y s, is ``polyval``'s own
    order of operations, so the result is bitwise equal to it, signed zeros,
    infinities and NaN included.
    """
    y = s * 0.0
    y += coeffs[-1]
    for c in coeffs[-2::-1]:
        y *= s
        y += c
    return y


# the rounding unit and the least subnormal of binary64
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


def _is_root(der: list, x: float) -> bool:
    """Whether ``x`` is a root of ``der`` (ascending float coefficients) to
    8 rounding units of its terms at x, plus its slope times the least
    subnormal, the spacing left to a root that underflows. The terms are
    summed exactly (``math.fsum``), so the float nearest a simple root
    passes, and a companion root far off it does not. A term or slope
    term that overflows certifies nothing."""
    powers = [1.0]
    for _ in der[1:]:
        powers.append(powers[-1] * x)
    terms = [c * p for c, p in zip(der, powers)]
    slope = [k * c * p for k, (c, p) in enumerate(zip(der[1:], powers), 1)]
    if not all(map(math.isfinite, terms + slope)):
        return False
    try:
        return abs(math.fsum(terms)) <= 8 * (
            _EPS * math.fsum(map(abs, terms))
            + _TINY * math.fsum(map(abs, slope)))
    except OverflowError:  # the sum of the magnitudes overflows
        return False


def _bracketed_roots(der: list) -> list[float]:
    """``_real_roots`` of ``der``, ascending float coefficients, taken
    exactly; ``LinAlgError`` if a coefficient is not finite, or if a root
    may lie past the largest float, where the brackets end: that is, if
    Fujiwara's bound on the roots, 2 max_k |d_{n-k} / d_n|^(1/k), does
    not stay below it."""
    # imported here: only this rare path needs it, and it loads ``decimal``
    from fractions import Fraction
    if not all(map(math.isfinite, der)):
        raise np.linalg.LinAlgError("the derivative's coefficients overflow")
    coeffs = [Fraction(c) for c in np.trim_zeros(der, "b")]
    n, half = len(coeffs) - 1, Fraction(float(np.finfo(float).max)) / 2
    if any(abs(coeffs[n - k] / coeffs[n]) > half ** k for k in range(1, n + 1)):
        raise np.linalg.LinAlgError("a real root of the derivative may lie "
                                    "past the largest float")
    return _real_roots(coeffs)


def _exact_sign(coeffs: list, x: float) -> int:
    """The sign of the polynomial with ascending Fraction ``coeffs`` at the
    float ``x``, evaluated exactly."""
    y, x = 0 * coeffs[-1], coeffs[-1].from_float(x)
    for c in reversed(coeffs):
        y = y * x + c
    return (y > 0) - (y < 0)


def _ordered(x: float) -> int:
    """The float ``x`` as an integer of the same order, adjacent floats
    adjacent integers (both zeros are 0)."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def _unordered(n: int) -> float:
    """The float that ``_ordered`` maps to ``n``."""
    bits = n if n >= 0 else -n | 1 << 63
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _real_roots(coeffs: list) -> list[float]:
    """Floats bracketing every real root of odd multiplicity of the
    polynomial with ascending Fraction ``coeffs``, each by the adjacent
    pair of floats (or the one float) where its exact sign changes; roots
    past the largest float are not bracketed.

    Between consecutive real roots of the derivative the polynomial is
    monotone, so it has at most one root there, found by bisection over
    the floats in their integer order: at most 64 exact sign evaluations.
    The derivative's roots are bracketed the same way, down to a linear
    polynomial. The brackets, the derivative's included, are a superset
    of the real critical points of the polynomial's antiderivative. The
    leading coefficient must not be 0."""
    if len(coeffs) < 2:
        return []
    seps = _real_roots([k * c for k, c in enumerate(coeffs)][1:])
    big = float(np.finfo(float).max)
    ends = sorted({-big, big, *seps})
    signs = [_exact_sign(coeffs, x) for x in ends]
    roots = list(seps)
    for a, b, sa, sb in zip(ends, ends[1:], signs, signs[1:]):
        if sa * sb < 0:
            lo, hi = _ordered(a), _ordered(b)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                sm = _exact_sign(coeffs, _unordered(mid))
                if sm == 0:
                    lo = hi = mid
                elif sm == sa:
                    lo = mid
                else:
                    hi = mid
            roots += [_unordered(lo), _unordered(hi)]
        elif sa == 0:
            roots.append(a)
    return roots


def _critical_points(coeffs) -> Array:
    """0 and the real parts of all roots of the polynomial's derivative: its
    real critical points and a few harmless extra points.

    The companion roots err relative to the largest root, so where a root
    returned as real fails ``_is_root`` (a small real root beside a huge
    complex pair), or the companion matrix overflows, every real root is
    bracketed and added (``_bracketed_roots``). A linear derivative's root,
    -d0 / d1 rounded once, needs no check."""
    der = npoly.polyder(coeffs)
    crit = [0.0]
    if len(der) > 1:
        d = der.tolist()
        try:
            roots = npoly.polyroots(der).tolist()
        except np.linalg.LinAlgError:
            return np.array(crit + _bracketed_roots(d))
        crit += [r.real for r in roots]
        if len(d) > 2 and any(r.imag == 0.0 and not _is_root(d, r.real)
                              for r in roots):
            crit += _bracketed_roots(d)
    return np.array(crit)


def _poly_min(coeffs) -> float:
    """Global minimum of a bounded-below polynomial (even positive leading)."""
    return float(min(_horner(_critical_points(coeffs), coeffs)))


def _sign_constants(coeffs: tuple[float, ...]) -> tuple[float, float]:
    """Minimal (kappa1, kappa2) with s f(s) >= -kappa1 s^2 - kappa2.

    h(s) = s f(s) has even degree 4 or 2 when bounded below (completing the
    square then gives kappa1 = 0); an indefinite quadratic part is absorbed
    into kappa1, and a bare linear term costs |c0|/2 on both constants.
    """
    # h = s * f(s): coefficient k of f becomes k+1 of h
    h = (0.0,) + tuple(coeffs)
    deg = len(h) - 1
    while deg > 0 and h[deg] == 0.0:
        deg -= 1
    bounded = (deg == 0) or (deg % 2 == 0 and h[deg] > 0.0)
    if bounded:
        kappa1 = 0.0
        kappa2 = max(0.0, -_poly_min(h[: deg + 1]))
    else:
        # admissible unbounded cases are at most quadratic in h
        c2 = h[2] if len(h) > 2 else 0.0
        c1 = h[1]
        kappa1 = max(0.0, -c2)
        kappa2 = 0.0
        if c1 != 0.0:
            kappa1 += abs(c1) / 2.0
            kappa2 = abs(c1) / 2.0
    return kappa1, kappa2


def _check_sign_certificate(coeffs, kappa1, kappa2, which: str) -> None:
    """Raise ValueError, naming the reaction ``which``, unless s f(s) and
    kappa1 s^2 are finite for |s| <= _FINITE_RANGE, both constants are
    nonnegative, and p(s) = s f(s) + kappa1 s^2 + kappa2 is at least
    -tol(s) on the whole line, tol(s) = 8 (eps |terms of p at s| + the
    least subnormal)."""
    r = _FINITE_RANGE
    size = sum(abs(c) * r ** (k + 1) for k, c in enumerate(coeffs))
    why = f"{which} cannot be certified: s {which}(s) + kappa s^2 + kappa' "
    if not math.isfinite(size + abs(kappa1) * r * r + abs(kappa2)):
        raise ValueError(why + f"is not finite for |s| <= {r:g}; its "
                         "coefficients are too large or not finite")
    if not (kappa1 >= 0.0 and kappa2 >= 0.0):
        raise ValueError(why + f"has a negative constant: {kappa1!r}, "
                         f"{kappa2!r}")
    p = np.zeros(max(len(coeffs) + 1, 3), np.longdouble)
    p[1:len(coeffs) + 1] = coeffs
    tol = 8 * _EPS * np.abs(p)
    p[0], tol[0] = kappa2, 8 * (_EPS * kappa2 + _TINY)
    p[2] += kappa1
    tol[2] += 8 * _EPS * kappa1
    # p(s) + tol(s) on each half-line s = t and s = -t, t >= 0
    for q in (p + tol, p * (-1.0) ** np.arange(p.size) + tol):
        if npoly.polytrim(q)[-1] < 0.0:
            raise ValueError(why + "is unbounded below")
        t = _critical_points(q.astype(float))
        low = _horner(t[t >= 0.0].astype(np.longdouble), q).min()
        if not low >= 0.0:
            raise ValueError(why + f"falls to {float(low):.3e}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Validated reaction pair with its derived structural constants."""

    f_coeffs: tuple[float, ...]
    g_coeffs: tuple[float, ...]
    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    m_f: float
    m_g: float


def _validate_coeffs(coeffs, which: str) -> tuple[float, ...]:
    c = tuple(float(x) for x in coeffs)
    if len(c) > 4:
        raise ValueError(f"{which} must have degree <= 3, got degree {len(c) - 1}")
    c = c + (0.0,) * (4 - len(c))
    if c[3] < 0.0:
        raise ValueError(f"{which} needs a nonnegative cubic coefficient, got {c[3]}")
    if c[3] == 0.0 and c[2] != 0.0:
        raise ValueError(
            f"{which} with a bare quadratic leading term is sign-indefinite "
            "and violates the dissipativity inequality"
        )
    return c


def _reaction_constants(coeffs, which: str) -> tuple[float, float, float]:
    """The sign constants and M of the reaction ``which``, the sign
    constants certified on the whole line. Coefficients so large that a
    constant overflows, or that s f(s) does for |s| <= _FINITE_RANGE, or
    whose critical points cannot be computed, or constants that fail the
    certificate, raise ValueError."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            ka, kb = _sign_constants(coeffs)
            m = max(0.0, -_poly_min(npoly.polyder(coeffs)))
            if not all(map(math.isfinite, (ka, kb, m))):
                raise ValueError(f"{which} cannot be certified: its sign or "
                                 "semiconvexity constants overflow; its "
                                 "coefficients are too large")
            _check_sign_certificate(coeffs, ka, kb, which)
        except np.linalg.LinAlgError as e:
            raise ValueError(f"{which} cannot be certified: its critical "
                             f"points cannot be computed ({e}); its "
                             "coefficients are too far apart in size") from e
    return ka, kb, m


def make_nonlinearity(f_coeffs, g_coeffs) -> NonlinearitySpec:
    """Build the reaction pair from ascending polynomial coefficients.

    The sign constants are certified on the whole line, at the critical
    points of s f(s) + kappa1 s^2 + kappa2, before the result is returned;
    an inadmissible polynomial (negative cubic leading term, degree above
    three, bare quadratic), one whose constants, or whose s f(s) for
    |s| <= 100, overflow, or one whose constants fail the certificate
    raises ValueError.
    """
    fc = _validate_coeffs(f_coeffs, "f")
    gc = _validate_coeffs(g_coeffs, "g")
    k1, k2, m_f = _reaction_constants(fc, "f")
    k3, k4, m_g = _reaction_constants(gc, "g")
    return NonlinearitySpec(
        f_coeffs=fc, g_coeffs=gc,
        kappa1=k1, kappa2=k2, kappa3=k3, kappa4=k4,
        m_f=m_f, m_g=m_g,
    )


def eval_f(spec: NonlinearitySpec, s):
    return _horner(np.asarray(s, dtype=float), spec.f_coeffs)


def eval_g(spec: NonlinearitySpec, s):
    return _horner(np.asarray(s, dtype=float), spec.g_coeffs)


def eval_F(u: StateField, spec: NonlinearitySpec,
           omega: float, beta: float) -> StateField:
    """Coupled reaction pair (f(u), g(v) - omega beta v).

    The boundary offset compensates the omega beta v term that the implicit
    linear part of the evolution carries, so the assembled right-hand side
    matches the boundary equation exactly.
    """
    return StateField(
        eval_f(spec, u.bulk),
        eval_g(spec, u.boundary) - omega * beta * u.boundary,
    )


def monotonicity_shift(spec: NonlinearitySpec, omega: float, beta: float) -> float:
    """M_F such that F + M_F id is monotone on the pair space."""
    return max(spec.m_f, spec.m_g + omega * beta) + 1e-6


def lipschitz_bound(spec: NonlinearitySpec, omega: float, beta: float,
                    amplitude: float) -> float:
    """sup |F'| over the box |s| <= amplitude: |f'| and |g' - omega beta|
    at the box's ends and at the critical points of f' and g' inside it."""
    a = abs(amplitude)
    lip = 0.0
    for coeffs, shift in ((spec.f_coeffs, 0.0), (spec.g_coeffs, omega * beta)):
        der = npoly.polyder(coeffs)
        s = _critical_points(der)
        s = np.concatenate(([-a, a], s[np.abs(s) <= a]))
        lip = max(lip, float(np.abs(_horner(s, der) - shift).max()))
    return lip


@dataclass
class SmallnessReport:
    """Outcome of the dissipativity-versus-diffusion gate.

    ``c_f = max(kappa1, kappa3 + beta)`` must stay strictly below
    ``threshold = omega``; then the energy decays at rate at least ``m0``
    toward the level ``p0``.
    """

    c_f: float
    threshold: float
    passes: bool
    m0: Optional[float]
    p0: Optional[float]

    def absorbing_time(self, r_amp: float) -> float:
        """t0 = ln(R^2) / m0, entry time of the radius-R energy ball."""
        if not self.passes:
            raise ValueError("gate failed, no absorbing time")
        return float(np.log(r_amp**2) / self.m0)


def check_smallness(spec: NonlinearitySpec, omega: float, beta: float,
                    delta: float) -> SmallnessReport:
    """Evaluate the smallness gate ``c_f < omega / C`` for the energy decay
    estimate, C the best constant in ||u||_X2^2 <= C ||u||_V1^2 for the
    (1, 1) form. C = 1 exactly: K_{1,1} - M = A + Tr' A_Gamma Tr is
    positive semidefinite and zero on constants."""
    c_f = max(spec.kappa1, spec.kappa3 + beta)
    passes = c_f < omega
    if passes:
        m0 = min(2.0 * (omega - c_f), delta)
        p0 = 2.0 * (spec.kappa2 + spec.kappa4) / m0
    else:
        m0 = p0 = None
    return SmallnessReport(c_f=c_f, threshold=omega, passes=passes,
                           m0=m0, p0=p0)
