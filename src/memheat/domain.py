"""Discrete domains with dynamic-boundary structure.

The continuous setting is a bounded domain whose boundary carries its own
surface dynamics (Wentzell coupling): the operator acting on a field U with
bulk trace v on the boundary is

    bulk:      -Laplace(u) + alpha * u
    boundary:  d_n(u) - LaplaceBeltrami(v) + beta * v

Two desk-scale domains are provided, the unit interval (boundary = two
endpoints) and the unit square (boundary = perimeter chain). Discretization
uses summation-by-parts operators so that the discrete integration-by-parts
identity holds to roundoff,

    <-Lap_h u, v>_bulk + sum_G sigma * d_n(u) v = u' A v,

which makes the assembled operator symmetric and the discrete energy
identities exact rather than O(h).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.typing import NDArray

__all__ = [
    "StateField",
    "DiscreteDomain",
    "build_domain",
    "inner_x2",
    "norm_x2_sq",
    "inner_v1",
    "norm_v1_sq",
    "norm_v2_sq",
    "apply_wentzell",
    "solve_wentzell_shifted",
]

Array = NDArray[np.float64]

# SuperLU factor of a symmetric CSC matrix with its columns ordered by
# minimum degree on A' + A, a symmetric fill-reducing ordering; the default
# COLAMD orders for the fill of A' A, which suits a nonsymmetric matrix
_factor_symmetric = functools.partial(spla.splu, permc_spec="MMD_AT_PLUS_A")


@dataclass
class StateField:
    """Bulk values on the closed grid plus boundary values.

    States produced by constructors and time steppers are trace compatible
    (``boundary == bulk[domain.boundary_index]``), and so is every history
    row, which is why a history stores the bulk only. Operator images in
    general are not: ``apply_wentzell`` returns the pair of residuals of the
    two coupled equations, which differ at the boundary by design.
    """

    bulk: Array
    boundary: Array

    def copy(self) -> "StateField":
        return StateField(self.bulk.copy(), self.boundary.copy())

    def __add__(self, other: "StateField") -> "StateField":
        return StateField(self.bulk + other.bulk, self.boundary + other.boundary)

    def __sub__(self, other: "StateField") -> "StateField":
        return StateField(self.bulk - other.bulk, self.boundary - other.boundary)

    def __mul__(self, c: float) -> "StateField":
        return StateField(self.bulk * c, self.boundary * c)

    __rmul__ = __mul__

    def __neg__(self) -> "StateField":
        return StateField(-self.bulk, -self.boundary)


@dataclass
class DiscreteDomain:
    """Assembled grid geometry and operators for one domain.

    Attributes
    ----------
    kind : str
        ``"interval"`` or ``"square"``.
    n : int
        Nodes per axis (closed grid, endpoints included).
    h : float
        Mesh width ``1/(n-1)``.
    n_bulk, n_boundary : int
        Total closed-grid node count and boundary chain length.
    x_bulk : ndarray, shape (n_bulk, dim)
        Node coordinates, row-major for the square (index = ix*n + iy).
    boundary_index : ndarray of int
        Positions of the boundary chain inside the closed grid, ordered
        counterclockwise for the square.
    dx : ndarray
        Bulk quadrature weights (trapezoid / tensor trapezoid).
    dsigma : ndarray
        Boundary quadrature weights (arclength h per chain node; 1 per
        endpoint on the interval).
    stiff_bulk : sparse matrix
        Dirichlet form: ``u' stiff_bulk u ~ int |grad u|^2``.
    stiff_gamma : sparse matrix
        Boundary Dirichlet form along the chain (zero on the interval).
    normal_deriv : sparse matrix, (n_boundary, n_bulk)
        One-sided second-order outward normal derivative; corner rows of the
        square average the two incident one-sided fluxes. Assembled in one
        pass from COO triplets, one set per side, a corner row taking weight
        1/2 from each of its two sides; the CSR constructor sums the corner
        node's two entries.
    trace : sparse matrix, (n_boundary, n_bulk)
        Boundary restriction (0/1 selector).
    lap_stencil : sparse matrix
        Closed-grid Laplacian consistent with the SBP identity; exact on
        affine fields at every node including the boundary rows.
    lb_stencil : sparse matrix
        Laplace-Beltrami stencil on the chain, ``-W_sigma^{-1} stiff_gamma``.
    """

    kind: str
    n: int
    h: float
    n_bulk: int
    n_boundary: int
    x_bulk: Array
    boundary_index: NDArray[np.int64]
    dx: Array
    dsigma: Array
    stiff_bulk: sp.csr_matrix
    stiff_gamma: sp.csr_matrix
    normal_deriv: sp.csr_matrix
    trace: sp.csr_matrix
    lap_stencil: sp.csr_matrix
    lb_stencil: sp.csr_matrix
    _cache: dict = field(default_factory=dict, repr=False)

    # -- field constructors -------------------------------------------------

    def field_from_bulk(self, bulk: Array) -> StateField:
        """Build a trace-compatible state from closed-grid bulk values."""
        bulk = np.asarray(bulk, dtype=float)
        if bulk.shape != (self.n_bulk,):
            raise ValueError(f"expected bulk shape ({self.n_bulk},), got {bulk.shape}")
        return StateField(bulk.copy(), bulk[self.boundary_index].copy())

    def field_from_function(self, fn) -> StateField:
        """Sample ``fn`` at the nodes. ``fn`` maps coordinate rows to values."""
        return self.field_from_bulk(np.asarray(fn(self.x_bulk), dtype=float))

    def zero_field(self) -> StateField:
        return StateField(np.zeros(self.n_bulk), np.zeros(self.n_boundary))

    def constant_field(self, c: float) -> StateField:
        return StateField(np.full(self.n_bulk, float(c)), np.full(self.n_boundary, float(c)))

    def is_trace_compatible(self, u: StateField, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(u.boundary - u.bulk[self.boundary_index])) <= tol)

    # -- merged variational matrices ----------------------------------------

    def mass_diag(self) -> Array:
        """Diagonal of the merged measure matrix M = H + Tr' W_sigma Tr."""
        m = self.dx.copy()
        # the boundary indices are unique, so a fancy-index add is exact
        m[self.boundary_index] += self.dsigma
        return m

    def bulk_operators(self, alpha: float,
                       beta: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The merged stiffness K and the trace-restricted equation pair P,
        both as matrices on bulk vectors, cached per (alpha, beta).

        K = A + alpha H + Tr'(A_Gamma + beta W_sigma)Tr is symmetric PSD
        and satisfies ``u' K v == <A_W u, v>_X2`` exactly for trace-compatible
        fields, where A_W is the pair operator of ``apply_wentzell``. P is
        that operator restricted to trace-compatible fields, (n_bulk +
        n_boundary) x n_bulk, bulk equation over boundary one.
        """
        key = ("bulk", float(alpha), float(beta))
        if key not in self._cache:
            tr = self.trace
            k = (self.stiff_bulk + alpha * sp.diags(self.dx)
                 + tr.T @ (self.stiff_gamma + beta * sp.diags(self.dsigma)) @ tr)
            pair = sp.vstack([alpha * sp.identity(self.n_bulk) - self.lap_stencil,
                              self.normal_deriv
                              + (beta * sp.identity(self.n_boundary)
                                 - self.lb_stencil) @ tr], format="csr")
            self._cache[key] = (k.tocsr(), pair)
        return self._cache[key]

    def edge_form(self, alpha: float,
                  beta: float) -> tuple[tuple, NDArray[np.int64], Array]:
        """The merged stiffness K of ``bulk_operators`` as edge and node
        weights, cached per (alpha, beta): ``(edges, node_index,
        node_weight)``. Each edge entry ``(o, c)`` holds a flat offset o of
        K's strict upper triangle and ``c[i] = -K[i, i + o]``; the node
        weights are K's nonzero row sums. For symmetric K,

            x' K y = sum_o c . (x[o:] - x[:-o]) (y[o:] - y[:-o])
                     + node_weight . x[node_index] y[node_index],

        and all weights are >= 0, so x' K x is a sum of nonnegative terms
        with no cancellation. The offsets are 1 on the interval and 1 and n
        on the square, whose boundary chain also steps by 1 or n. The row
        sums are accumulated in extended precision, so rows whose stencil
        cancels (every interior row when alpha = 0) give an exact zero and
        drop out.
        """
        key = ("edges", float(alpha), float(beta))
        if key not in self._cache:
            k = self.bulk_operators(alpha, beta)[0]
            upper = sp.triu(k, 1).tocoo()
            offset = upper.col - upper.row
            edges = []
            for o in np.unique(offset):
                c = np.zeros(self.n_bulk - o)
                on = offset == o
                c[upper.row[on]] = -upper.data[on]
                edges.append((int(o), c))
            full = k.tocoo()
            sums = np.zeros(self.n_bulk, dtype=np.longdouble)
            np.add.at(sums, full.row, full.data.astype(np.longdouble))
            sums = sums.astype(float)
            index = np.flatnonzero(sums)
            self._cache[key] = (tuple(edges), index, sums[index])
        return self._cache[key]

    def weigh_pair(self, rhs: StateField) -> Array:
        """Measure-weighted load vector of a (bulk, boundary) pair."""
        b = self.dx * rhs.bulk
        b[self.boundary_index] += self.dsigma * rhs.boundary
        return b


def _interval_domain(n: int) -> DiscreteDomain:
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    dx = np.full(n, h)
    dx[[0, -1]] = h / 2.0

    # Dirichlet form: sum over cells of (du)^2 / h
    d1 = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    stiff = (d1.T @ d1) / h

    # outward normal derivative, one-sided second order
    stencil = np.array([3.0, -4.0, 1.0]) / (2 * h)
    nd = sp.csr_matrix(
        (np.concatenate([stencil, stencil]),
         ([0, 0, 0, 1, 1, 1], [0, 1, 2, n - 1, n - 2, n - 3])),
        shape=(2, n))

    bidx = np.array([0, n - 1], dtype=np.int64)
    dsig = np.ones(2)
    tr = sp.csr_matrix((np.ones(2), (np.arange(2), bidx)), shape=(2, n))

    w_sig = sp.diags(dsig)
    lap = -sp.diags(1.0 / dx) @ (stiff - tr.T @ w_sig @ nd)
    stiff_gamma = sp.csr_matrix((2, 2))
    lb = sp.csr_matrix((2, 2))

    return DiscreteDomain(
        kind="interval", n=n, h=h, n_bulk=n, n_boundary=2,
        x_bulk=x.reshape(-1, 1), boundary_index=bidx, dx=dx, dsigma=dsig,
        stiff_bulk=stiff.tocsr(), stiff_gamma=stiff_gamma, normal_deriv=nd,
        trace=tr, lap_stencil=lap.tocsr(), lb_stencil=lb,
    )


def _square_boundary_chain(n: int) -> NDArray[np.int64]:
    # counterclockwise perimeter walk, row-major flat index = ix*n + iy
    idx = []
    for ix in range(n - 1):                  # bottom edge, y = 0
        idx.append(ix * n + 0)
    for iy in range(n - 1):                  # right edge, x = 1
        idx.append((n - 1) * n + iy)
    for ix in range(n - 1, 0, -1):           # top edge, y = 1
        idx.append(ix * n + (n - 1))
    for iy in range(n - 1, 0, -1):           # left edge, x = 0
        idx.append(0 * n + iy)
    return np.array(idx, dtype=np.int64)


def _square_domain(n: int) -> DiscreteDomain:
    h = 1.0 / (n - 1)
    t = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    coords = np.column_stack([xx.ravel(), yy.ravel()])

    w1 = np.full(n, h)
    w1[[0, -1]] = h / 2.0
    dx = np.multiply.outer(w1, w1).ravel()

    d1 = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    a1 = (d1.T @ d1) / h
    h1 = sp.diags(w1)
    stiff = sp.kron(a1, h1) + sp.kron(h1, a1)

    bidx = _square_boundary_chain(n)
    nb = bidx.size
    dsig = np.full(nb, h)
    tr = sp.csr_matrix((np.ones(nb), (np.arange(nb), bidx)), shape=(nb, n * n))

    # periodic chain Dirichlet form and Laplace-Beltrami
    rows = np.arange(nb)
    nxt = (rows + 1) % nb
    dchain = sp.csr_matrix(
        (np.concatenate([-np.ones(nb), np.ones(nb)]),
         (np.concatenate([rows, rows]), np.concatenate([rows, nxt]))),
        shape=(nb, nb),
    )
    stiff_gamma = (dchain.T @ dchain) / h
    lb = -sp.diags(1.0 / dsig) @ stiff_gamma

    # outward normal derivative rows; corners average the two incident
    # fluxes. Each side's stencil steps inward by a flat stride: +n from
    # x = 0, -n from x = 1, +1 from y = 0, -1 from y = 1.
    ix, iy = np.divmod(bidx, n)
    sides = [(ix == 0, n), (ix == n - 1, -n), (iy == 0, 1), (iy == n - 1, -1)]
    weight = 1.0 / sum(on.astype(float) for on, _ in sides)
    c = 1.0 / (2 * h)
    rows, cols, vals = [], [], []
    for on, stride in sides:
        k = np.flatnonzero(on)
        for j, val in enumerate((3 * c, -4 * c, c)):
            rows.append(k)
            cols.append(bidx[k] + j * stride)
            vals.append(weight[k] * val)
    nd = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nb, n * n))

    w_sig = sp.diags(dsig)
    lap = -sp.diags(1.0 / dx) @ (stiff - tr.T @ w_sig @ nd)

    return DiscreteDomain(
        kind="square", n=n, h=h, n_bulk=n * n, n_boundary=nb,
        x_bulk=coords, boundary_index=bidx, dx=dx, dsigma=dsig,
        stiff_bulk=stiff.tocsr(), stiff_gamma=stiff_gamma.tocsr(),
        normal_deriv=nd, trace=tr, lap_stencil=lap.tocsr(), lb_stencil=lb.tocsr(),
    )


def build_domain(kind: str, n_bulk: int) -> DiscreteDomain:
    """Assemble a discrete domain.

    Parameters
    ----------
    kind : {"interval", "square"}
        Unit interval or unit square.
    n_bulk : int
        Nodes per axis including endpoints, at least 8.
    """
    if n_bulk < 8:
        raise ValueError(f"n_bulk must be >= 8, got {n_bulk}")
    if kind == "interval":
        return _interval_domain(n_bulk)
    if kind == "square":
        return _square_domain(n_bulk)
    raise ValueError(f"unknown domain kind {kind!r}")


# -- inner products and norms ------------------------------------------------


def inner_x2(u: StateField, v: StateField, d: DiscreteDomain) -> float:
    """Flat product: bulk quadrature plus boundary quadrature."""
    return float(d.dx @ (u.bulk * v.bulk) + d.dsigma @ (u.boundary * v.boundary))


def norm_x2_sq(u: StateField, d: DiscreteDomain) -> float:
    return inner_x2(u, u, d)


def inner_v1(u: StateField, v: StateField, d: DiscreteDomain,
             alpha: float, beta: float) -> float:
    """First-order form: Dirichlet energies plus weighted zero-order terms.

    With alpha > 0 or beta > 0 this is an inner product (it vanishes only on
    zero); with alpha = beta = 0 it is the seminorm killing constants.
    """
    val = u.bulk @ (d.stiff_bulk @ v.bulk) + alpha * (d.dx @ (u.bulk * v.bulk))
    val += u.boundary @ (d.stiff_gamma @ v.boundary)
    val += beta * (d.dsigma @ (u.boundary * v.boundary))
    return float(val)


def norm_v1_sq(u: StateField, d: DiscreteDomain, alpha: float, beta: float) -> float:
    return inner_v1(u, u, d, alpha, beta)


def apply_wentzell(u: StateField, d: DiscreteDomain,
                   alpha: float, beta: float) -> StateField:
    """Apply the coupled second-order operator, returning the equation pair.

    Returns
    -------
    StateField
        ``bulk = -Lap_h u + alpha u`` on the closed grid and
        ``boundary = d_n u - LB v + beta v`` on the chain. The pair is not
        trace compatible for generic input; it is the residual pair of the
        two coupled equations.
    """
    bulk = -(d.lap_stencil @ u.bulk) + alpha * u.bulk
    bdry = d.normal_deriv @ u.bulk - d.lb_stencil @ u.boundary + beta * u.boundary
    return StateField(bulk, bdry)


def norm_v2_sq(u: StateField, d: DiscreteDomain, alpha: float, beta: float) -> float:
    """Second-order energy ``||A_W u||^2_X2`` of the equation pair.

    Requires alpha > 0 or beta > 0 so the underlying first-order form is a
    norm.
    """
    if alpha <= 0.0 and beta <= 0.0:
        raise ValueError("norm_v2_sq needs alpha > 0 or beta > 0")
    return norm_x2_sq(apply_wentzell(u, d, alpha, beta), d)


def solve_wentzell_shifted(c0: float, c_a: float, rhs: StateField,
                           d: DiscreteDomain, alpha: float, beta: float) -> StateField:
    """Solve ``(c0 I + c_a A_W) u = rhs`` in the merged variational sense.

    The assembled symmetric system is ``(c0 M + c_a K) u = H rhs_bulk +
    Tr' W_sigma rhs_boundary`` with M the measure matrix and K the cached
    stiffness of ``DiscreteDomain.bulk_operators``. The returned state is
    trace compatible. The residual of the assembled system, measured in the
    X2 norm against ``||rhs||_X2``, is checked to be <= 1e-8.

    Factorizations are cached per (c0, c_a, alpha, beta) on the domain. The
    system is exactly symmetric (M is diagonal and K is assembled as
    symmetric sums), so it is factored with the symmetric minimum-degree
    ordering of ``_factor_symmetric``; on the square n = 129 its factor has
    0.56x the fill of a COLAMD one, and a solve takes about 0.75x the time.
    """
    if c0 <= 0.0 or c_a < 0.0:
        raise ValueError("need c0 > 0 and c_a >= 0")
    key = ("solve", float(c0), float(c_a), float(alpha), float(beta))
    if key not in d._cache:
        m_diag = d.mass_diag()
        k = d.bulk_operators(alpha, beta)[0]
        sys = (c0 * sp.diags(m_diag) + c_a * k).tocsc()
        d._cache[key] = (_factor_symmetric(sys), sys, m_diag)
    lu, sys, m_diag = d._cache[key]

    b = d.weigh_pair(rhs)
    sol = lu.solve(b)
    res = sys @ sol - b
    # residual in the X2 norm of the field M^{-1} res
    res_norm = float(np.sqrt(res @ (res / m_diag)))
    rhs_norm = float(np.sqrt(norm_x2_sq(rhs, d)))
    if res_norm > 1e-8 * max(rhs_norm, 1e-300):
        raise RuntimeError(f"shifted solve residual {res_norm:.3e} exceeds contract")
    return d.field_from_bulk(sol)
