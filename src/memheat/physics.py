"""Reaction terms and the structural constants the energy estimates need.

Bulk and boundary reactions are cubic-or-lower polynomials with nonnegative
leading coefficient. From the coefficients we derive, and verify against a
brute-force grid oracle:

* sign conditions  s f(s) >= -kappa1 s^2 - kappa2  (same for g with
  kappa3/kappa4), with kappa1 minimal so the smallness gate is as sharp as
  the data allow;
* semiconvexity constants  M_f = -min f' (cut at 0), likewise M_g.

The growth assumption on the derivatives, |f'(s)| <= ell (1 + |s|^r) with
r < 5/2, holds with r = 2, since a degree above three is refused.

Every polynomial is evaluated by one in-place Horner recurrence,
``_horner``: f and g in each step, and the oracle grid, the minima and the
Lipschitz sampling at construction. It follows
``numpy.polynomial.polynomial.polyval``'s order of operations, so it is
bitwise equal to it, without a temporary per coefficient. The oracle keeps
its grid of 200,001 points on [-100, 100] and its tolerance.

The coupled-system vector reaction is F(u) = (f(u), g(u) - omega beta u) on
(bulk, boundary); adding M_F u with M_F = max(M_f, M_g + omega beta) + 1e-6
makes it monotone, which the splitting experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.typing import NDArray

from .domain import DiscreteDomain, StateField, _factor_symmetric

__all__ = [
    "NonlinearitySpec",
    "make_nonlinearity",
    "eval_f",
    "eval_g",
    "eval_F",
    "eval_F0",
    "monotonicity_shift",
    "lipschitz_bound",
    "SmallnessReport",
    "check_smallness",
    "estimate_embedding_constant",
]

Array = NDArray[np.float64]

_GRID = None  # lazy oracle grid, [-100, 100] step 1e-3


def _oracle_grid() -> Array:
    global _GRID
    if _GRID is None:
        _GRID = np.arange(-100.0, 100.0 + 1e-3, 1e-3)
    return _GRID


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


def _poly_min(coeffs: tuple[float, ...]) -> float:
    """Global minimum of a bounded-below polynomial (even positive leading)."""
    der = npoly.polyder(coeffs)
    crit = [0.0]
    if len(der) > 1:
        # real parts of all roots: the real critical points are among them,
        # and extra evaluation points cannot fall below the global minimum
        crit += [float(r.real) for r in npoly.polyroots(der)]
    return float(min(_horner(np.array(crit), coeffs)))


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


def _check_sign_oracle(coeffs, kappa1, kappa2) -> None:
    s = _oracle_grid()
    h = _horner(s, coeffs)
    h *= s
    scale = max(1.0, float(h.max()), -float(h.min()))
    # h + kappa1 s^2 + kappa2, in place
    bound = s * s
    bound *= kappa1
    bound += h
    bound += kappa2
    worst = float(bound.min())
    if worst < -1e-9 * scale:
        raise AssertionError(
            f"sign constants fail on the oracle grid by {worst:.3e}"
        )


def _deriv_min(coeffs: tuple[float, ...]) -> float:
    """Global min of f' for admissible f (f' has even positive leading or is constant)."""
    der = npoly.polyder(coeffs)
    deg = len(der) - 1
    while deg > 0 and der[deg] == 0.0:
        deg -= 1
    if deg == 0:
        return float(der[0])
    return _poly_min(tuple(der[: deg + 1]))


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


def make_nonlinearity(f_coeffs, g_coeffs) -> NonlinearitySpec:
    """Build the reaction pair from ascending polynomial coefficients.

    Every derived constant is certified on a dense grid before the result is
    returned; an inadmissible polynomial (negative cubic leading term,
    degree above three, bare quadratic) raises ValueError.
    """
    fc = _validate_coeffs(f_coeffs, "f")
    gc = _validate_coeffs(g_coeffs, "g")

    k1, k2 = _sign_constants(fc)
    k3, k4 = _sign_constants(gc)
    _check_sign_oracle(fc, k1, k2)
    _check_sign_oracle(gc, k3, k4)

    m_f = max(0.0, -_deriv_min(fc))
    m_g = max(0.0, -_deriv_min(gc))

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


def eval_F0(u: StateField, spec: NonlinearitySpec,
            omega: float, beta: float) -> StateField:
    """The monotone shift F0 = F + M_F id."""
    return eval_F(u, spec, omega, beta) + monotonicity_shift(spec, omega, beta) * u


def lipschitz_bound(spec: NonlinearitySpec, omega: float, beta: float,
                    amplitude: float) -> float:
    """sup |F'| over the box |s| <= amplitude, by dense sampling."""
    s = np.linspace(-abs(amplitude), abs(amplitude), 2001)
    df = _horner(s, npoly.polyder(spec.f_coeffs))
    dg = _horner(s, npoly.polyder(spec.g_coeffs)) - omega * beta
    return float(max(np.abs(df).max(), np.abs(dg).max()))


@dataclass
class SmallnessReport:
    """Outcome of the dissipativity-versus-diffusion gate.

    ``c_f = max(kappa1, kappa3 + beta)`` must stay strictly below
    ``omega / c_embed``; then the energy decays at rate at least ``m0``
    toward the level ``p0``.
    """

    c_f: float
    threshold: float
    passes: bool
    c_embed: float
    m0: Optional[float]
    p0: Optional[float]

    def absorbing_time(self, r_amp: float) -> float:
        """t0 = ln(R^2) / m0, entry time of the radius-R energy ball."""
        if not self.passes:
            raise ValueError("gate failed, no absorbing time")
        return float(np.log(r_amp**2) / self.m0)


def check_smallness(spec: NonlinearitySpec, omega: float, beta: float,
                    c_embed: float, delta: float = 1.0) -> SmallnessReport:
    """Evaluate the smallness gate for the energy decay estimate."""
    c_f = max(spec.kappa1, spec.kappa3 + beta)
    threshold = omega / c_embed
    passes = c_f < threshold
    if passes:
        m0 = min(2.0 * (threshold - c_f), delta)
        p0 = 2.0 * (spec.kappa2 + spec.kappa4) / m0
    else:
        m0 = p0 = None
    return SmallnessReport(c_f=c_f, threshold=threshold, passes=passes,
                           c_embed=c_embed, m0=m0, p0=p0)


# stopping rule of the embedding constant's power iteration
_EMBED_TOL = 1e-8
_EMBED_MAX_ITER = 50000


def estimate_embedding_constant(d: DiscreteDomain, alpha: float,
                                beta: float) -> float:
    """Best constant in ||u||_X2^2 <= C ||u||_V1^2 for the (alpha, beta) form.

    Computed as the top eigenvalue of M u = lambda K u by power iteration on
    the inverse operator, deterministic start, relative eigenvalue residual
    below ``_EMBED_TOL``.
    """
    if alpha <= 0.0 and beta <= 0.0:
        raise ValueError("the (alpha, beta) form is only a norm for alpha > 0 or beta > 0")
    k_mat = d.bulk_operators(alpha, beta)[0].tocsc()
    m_diag = d.mass_diag()
    lu = _factor_symmetric(k_mat)

    x = np.ones(d.n_bulk) + 0.01 * d.x_bulk[:, 0]
    x /= np.sqrt(x @ (m_diag * x))
    lam = 0.0
    for _ in range(_EMBED_MAX_ITER):
        y = lu.solve(m_diag * x)
        y /= np.sqrt(y @ (m_diag * y))
        lam = float((y @ (m_diag * y)) / (y @ (k_mat @ y)))
        res = m_diag * y - (k_mat @ y) * lam
        if np.linalg.norm(res) <= _EMBED_TOL * np.linalg.norm(m_diag * y):
            return lam
        x = y
    raise RuntimeError("power iteration did not reach the residual target")
