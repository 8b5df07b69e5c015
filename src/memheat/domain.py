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
    """Grid geometry and the primitive forms of one domain, from which every
    operator is derived.

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
        counterclockwise for the square; the trace selects these nodes.
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
        square average the two incident one-sided fluxes.

    The operators are derived on first use and cached per (alpha, beta) in
    ``_cache``: ``bulk_operators`` builds the trace, the closed-grid
    Laplacian and the Laplace-Beltrami stencil, and from them the merged
    stiffness K and the equation pair P; ``edge_form`` reads K as edge and
    node weights, which ``v1_products`` evaluates on blocks of rows, states
    and histories alike.
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
        and satisfies ``u' K v == <P u, v>_X2`` exactly for trace-compatible
        fields. P is the coupled operator on those fields, (n_bulk +
        n_boundary) x n_bulk, the bulk equation ``-Lap_h u + alpha u`` over
        the boundary one ``d_n u - LB u + beta u``. Only here are its
        stencils built: the trace Tr (a 0/1 selector), the SBP-consistent
        Laplacian ``Lap_h = -H^{-1}(A - Tr' W_sigma d_n)``, exact on affine
        fields at every node, and ``LB = -W_sigma^{-1} A_Gamma``.
        """
        key = ("bulk", float(alpha), float(beta))
        if key not in self._cache:
            nb = self.n_boundary
            tr = sp.csr_matrix((np.ones(nb), (np.arange(nb), self.boundary_index)),
                               shape=(nb, self.n_bulk))
            w_sig = sp.diags(self.dsigma)
            lap = -sp.diags(1.0 / self.dx) @ (self.stiff_bulk
                                              - tr.T @ w_sig @ self.normal_deriv)
            lb = -sp.diags(1.0 / self.dsigma) @ self.stiff_gamma
            k = (self.stiff_bulk + alpha * sp.diags(self.dx)
                 + tr.T @ (self.stiff_gamma + beta * w_sig) @ tr)
            pair = sp.vstack([alpha * sp.identity(self.n_bulk) - lap,
                              self.normal_deriv
                              + (beta * sp.identity(nb) - lb) @ tr], format="csr")
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
            # row sums over K's CSR segments; reduceat would return the
            # next entry for an empty row, so only nonempty rows are summed
            sums = np.zeros(self.n_bulk, dtype=np.longdouble)
            full = np.diff(k.indptr) > 0
            sums[full] = np.add.reduceat(k.data.astype(np.longdouble),
                                         k.indptr[:-1][full])
            sums = sums.astype(float)
            index = np.flatnonzero(sums)
            self._cache[key] = (tuple(edges), index, sums[index])
        return self._cache[key]

    def v1_products(self, x: Array, alpha: float, beta: float,
                    buf: Array | None = None) -> Array:
        """The one V1 kernel: energies ``x_j' K x_j`` of the rows of an (m,
        n_bulk) row-major block of trace-compatible fields (a state is a
        one-row block), in the edge form of ``edge_form``; a cross product
        follows by polarization. ``buf``, of at least m n_bulk values, is
        scratch space a walk reuses across its blocks, since a fresh
        block-sized temporary is mapped and faulted in anew each time;
        without it one is made.

        The differences at offset o are taken on the flattened block, one
        contiguous subtraction; entry j n + i is then x[j, i + o] - x[j, i]
        for i < n - o, and the o entries past each row's end, which pair
        nodes of two rows, are skipped by the (m, n - o) view of row stride
        n that the product reads."""
        edges, index, weight = self.edge_form(alpha, beta)
        xi = x[:, index]
        xi *= xi
        out = xi @ weight
        m, n = x.shape
        xf = x.reshape(-1)
        flat = (np.empty(m * n) if buf is None else buf)[:m * n]
        for o, c in edges:
            df = flat[:-o]
            np.subtract(xf[o:], xf[:-o], out=df)
            df *= df
            out += flat.reshape(m, n)[:, :-o] @ c
        return out

    def weigh_pair(self, rhs: StateField) -> Array:
        """Measure-weighted load vector of a (bulk, boundary) pair."""
        b = self.dx * rhs.bulk
        b[self.boundary_index] += self.dsigma * rhs.boundary
        return b


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


def _stencil_csr(offsets: tuple, band: Array) -> sp.csr_matrix:
    """The square CSR matrix whose row i holds ``band[i, j]`` in column
    ``i + offsets[j]``, for ascending offsets, so each row's columns come
    sorted. Zero entries are left out, as a sparse sum or product leaves
    them out; their columns, which may fall off the matrix, are clipped
    into it before the matrix is formed."""
    size, width = band.shape
    index = np.int32 if band.size < 2**31 else np.int64
    # one row per offset, so each sum runs over a contiguous row
    cols = np.arange(size, dtype=index) + np.array(offsets, dtype=index)[:, None]
    np.clip(cols, 0, size - 1, out=cols)
    m = sp.csr_matrix((band.ravel(), cols.T.ravel(),
                       np.arange(0, band.size + 1, width, dtype=index)),
                      shape=(size, size))
    m.eliminate_zeros()
    return m


def build_domain(kind: str, n_bulk: int) -> DiscreteDomain:
    """Assemble a discrete domain.

    One recipe serves both kinds, which differ in geometry only: the
    coordinates, the bulk weights and stiffness, the boundary chain with
    its weights and Dirichlet form, and the sides, each as its chain nodes
    and the flat stride that steps inward from it. The stiffness forms are
    written as their stencils, straight into CSR arrays (``_stencil_csr``):
    the tridiagonal 1-D form a1 = D'D / h, the square's five-point form,
    whose entries are those of kron(a1, H1) + kron(H1, a1) (H1 the 1-D
    weights), each off-diagonal entry the same product and each diagonal
    entry the same sum, and the periodic chain's form; the arrays equal
    those of the sparse products bit for bit. The outward normal
    derivative is assembled from the sides in one pass of COO triplets, a
    node on k sides taking weight 1/k from each (the CSR constructor sums a
    square corner's two entries). ``DiscreteDomain.bulk_operators`` derives
    every other operator.

    Parameters
    ----------
    kind : {"interval", "square"}
        Unit interval or unit square.
    n_bulk : int
        Nodes per axis including endpoints, at least 8.
    """
    if n_bulk < 8:
        raise ValueError(f"n_bulk must be >= 8, got {n_bulk}")
    if kind not in ("interval", "square"):
        raise ValueError(f"unknown domain kind {kind!r}")
    n = n_bulk
    h = 1.0 / (n - 1)
    t = np.linspace(0.0, 1.0, n)
    w1 = np.full(n, h)
    w1[[0, -1]] = h / 2.0
    # Dirichlet form a1 = D'D / h, D the cell differences: its diagonal is
    # 1/h at the ends and 2/h inside, its off-diagonal -1/h, each the
    # product D'D's integer entry times 1/h that the sparse forms give
    inv = 1.0 / h
    a1_diag = np.full(n, 2.0 * inv)
    a1_diag[[0, -1]] = inv

    if kind == "interval":
        coords, dx = t.reshape(-1, 1), w1
        band = np.zeros((n, 3))
        band[1:, 0] = band[:-1, 2] = -inv
        band[:, 1] = a1_diag
        stiff = _stencil_csr((-1, 0, 1), band)
        bidx = np.array([0, n - 1], dtype=np.int64)
        dsig = np.ones(2)
        stiff_gamma = sp.csr_matrix((2, 2))
        sides = [(bidx == 0, 1), (bidx == n - 1, -1)]
    else:
        xx, yy = np.meshgrid(t, t, indexing="ij")
        coords = np.column_stack([xx.ravel(), yy.ravel()])
        dx = np.multiply.outer(w1, w1).ravel()
        # the five-point stencil of kron(a1, H1) + kron(H1, a1), H1 the
        # weights w1, at node (i, k): a1[i, i -+ 1] w1[k] and w1[i] a1[k,
        # k -+ 1] off the diagonal, a1[i, i] w1[k] + w1[i] a1[k, k] on it
        off = -inv * w1
        band = np.zeros((n, n, 5))
        band[1:, :, 0] = band[:-1, :, 4] = off
        band[:, 1:, 1] = band[:, :-1, 3] = off[:, None]
        band[:, :, 2] = np.multiply.outer(a1_diag, w1) + np.multiply.outer(w1, a1_diag)
        stiff = _stencil_csr((-n, -1, 0, 1, n), band.reshape(-1, 5))
        bidx = _square_boundary_chain(n)
        dsig = np.full(bidx.size, h)
        # periodic chain Dirichlet form: 2/h on the diagonal, -1/h to each
        # neighbour along the chain, the last node's next being the first
        nb = bidx.size
        band = np.zeros((nb, 5))
        band[-1, 0] = band[1:, 1] = band[:-1, 3] = band[0, 4] = -inv
        band[:, 2] = 2.0 * inv
        stiff_gamma = _stencil_csr((1 - nb, -1, 0, 1, nb - 1), band)
        # each side's stencil steps inward by a flat stride: +n from x = 0,
        # -n from x = 1, +1 from y = 0, -1 from y = 1
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
        shape=(bidx.size, dx.size))

    return DiscreteDomain(
        kind=kind, n=n, h=h, n_bulk=dx.size, n_boundary=bidx.size,
        x_bulk=coords, boundary_index=bidx, dx=dx, dsigma=dsig,
        stiff_bulk=stiff, stiff_gamma=stiff_gamma, normal_deriv=nd)


# -- inner products and norms ------------------------------------------------


def inner_x2(u: StateField, v: StateField, d: DiscreteDomain) -> float:
    """Flat product: bulk quadrature plus boundary quadrature."""
    return float(d.dx @ (u.bulk * v.bulk) + d.dsigma @ (u.boundary * v.boundary))


def norm_x2_sq(u: StateField, d: DiscreteDomain) -> float:
    return inner_x2(u, u, d)


def norm_v1_sq(u: StateField, d: DiscreteDomain, alpha: float, beta: float) -> float:
    """First-order energy ``u' K u`` of a trace-compatible state: Dirichlet
    energies plus weighted zero-order terms, measured as a one-row block by
    ``DiscreteDomain.v1_products``, the kernel of the history rows. With
    alpha > 0 or beta > 0 it vanishes only on zero; with alpha = beta = 0
    it is the seminorm killing constants."""
    return float(d.v1_products(u.bulk[None], alpha, beta)[0])


def apply_wentzell(u: StateField, d: DiscreteDomain,
                   alpha: float, beta: float) -> StateField:
    """Apply the coupled second-order operator to a trace-compatible state,
    returning the equation pair.

    Returns
    -------
    StateField
        ``bulk = -Lap_h u + alpha u`` on the closed grid and
        ``boundary = d_n u - LB u + beta u`` on the chain: the pair P of
        ``DiscreteDomain.bulk_operators`` applied to the bulk values, whose
        trace the boundary values are. The pair is not trace compatible for
        generic input; it is the residual pair of the two coupled equations.
    """
    pair = d.bulk_operators(alpha, beta)[1] @ u.bulk
    return StateField(pair[:d.n_bulk], pair[d.n_bulk:])


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
