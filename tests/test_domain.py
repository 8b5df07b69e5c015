"""Discrete domain assembly, quadrature, and the coupled operator."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat.domain import (
    StateField,
    apply_wentzell,
    build_domain,
    inner_x2,
    norm_v1_sq,
    norm_v2_sq,
    norm_x2_sq,
    solve_wentzell_shifted,
)


def test_build_domain_rejects_bad_input():
    with pytest.raises(ValueError):
        build_domain("interval", 7)
    with pytest.raises(ValueError):
        build_domain("hexagon", 65)


def test_constructors_are_trace_compatible(interval, square):
    for d in (interval, square):
        assert d.is_trace_compatible(d.constant_field(2.5))
        assert d.is_trace_compatible(
            d.field_from_function(lambda p: np.sin(p[..., 0])))
        assert d.is_trace_compatible(d.zero_field())


def test_field_from_bulk_shape_check(interval):
    with pytest.raises(ValueError):
        interval.field_from_bulk(np.zeros(interval.n_bulk + 1))


def test_quadrature_masses(interval, square):
    # unit interval: bulk measure 1, two endpoint weights of 1 each
    one = interval.constant_field(1.0)
    assert interval.dx.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(interval.dsigma, [1.0, 1.0])
    assert norm_x2_sq(one, interval) == pytest.approx(3.0, abs=1e-13)
    # unit square: bulk area 1, perimeter 4
    ones = square.constant_field(1.0)
    assert square.dx.sum() == pytest.approx(1.0, abs=1e-13)
    assert square.dsigma.sum() == pytest.approx(4.0, abs=1e-13)
    assert norm_x2_sq(ones, square) == pytest.approx(5.0, abs=1e-12)


def _stencils(d):
    """The trace, the closed-grid Laplacian -H^{-1} (A - Tr' W_sigma d_n)
    and the Laplace-Beltrami stencil -W_sigma^{-1} A_Gamma, rebuilt from
    the domain's primitives."""
    nb = d.n_boundary
    tr = sp.csr_matrix((np.ones(nb), (np.arange(nb), d.boundary_index)),
                       shape=(nb, d.n_bulk))
    lap = -sp.diags(1.0 / d.dx) @ (d.stiff_bulk
                                   - tr.T @ sp.diags(d.dsigma) @ d.normal_deriv)
    return tr, lap, -sp.diags(1.0 / d.dsigma) @ d.stiff_gamma


def test_laplacian_exact_on_affine_fields(interval, square):
    # the closed-grid stencil annihilates affine fields at every node,
    # boundary rows included, and is the bulk equation of the pair at
    # alpha = 0
    u = interval.field_from_function(lambda p: 2.0 - 3.0 * p[..., 0])
    v = square.field_from_function(
        lambda p: 1.0 + 2.0 * p[..., 0] - 0.5 * p[..., 1])
    for d, w, tol in ((interval, u, 1e-10), (square, v, 1e-9)):
        assert np.max(np.abs(_stencils(d)[1] @ w.bulk)) < tol
        assert np.max(np.abs(apply_wentzell(w, d, 0.0, 1.0).bulk)) < tol


def test_normal_derivative_exact_on_quadratics(interval):
    u = interval.field_from_function(lambda p: p[..., 0] ** 2)
    dn = interval.normal_deriv @ u.bulk
    # outward derivative of x^2: 0 at x=0, +2 at x=1
    assert dn == pytest.approx([0.0, 2.0], abs=1e-10)


def test_operator_symmetry_and_form_identity(interval, square):
    rng = np.random.default_rng(7)
    for d in (interval, square):
        for _ in range(20):
            u = d.field_from_bulk(rng.normal(size=d.n_bulk))
            w = d.field_from_bulk(rng.normal(size=d.n_bulk))
            au = apply_wentzell(u, d, 0.7, 1.3)
            aw = apply_wentzell(w, d, 0.7, 1.3)
            s1 = inner_x2(au, w, d)
            s2 = inner_x2(u, aw, d)
            scale = max(abs(s1), abs(s2), 1e-30)
            assert abs(s1 - s2) / scale < 1e-10
            quad = inner_x2(au, u, d)
            assert quad >= -1e-12 * norm_x2_sq(u, d)
            v1 = norm_v1_sq(u, d, 0.7, 1.3)
            assert abs(quad - v1) / max(v1, 1e-30) < 1e-8


def test_first_order_form_kills_constants_only_at_zero_order_zero(interval):
    c = interval.constant_field(3.0)
    assert norm_v1_sq(c, interval, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert norm_v1_sq(c, interval, 1.0, 0.0) > 0.0
    wavy = interval.field_from_function(lambda p: np.sin(np.pi * p[..., 0]))
    assert norm_v1_sq(wavy, interval, 0.0, 0.0) > 1.0


def test_second_order_norm_needs_positive_zero_order(interval):
    u = interval.constant_field(1.0)
    with pytest.raises(ValueError):
        norm_v2_sq(u, interval, 0.0, 0.0)
    assert norm_v2_sq(u, interval, 1.0, 2.0) > 0.0


@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.7, 1.3), (2.0, 0.0)])
def test_second_order_norm_is_the_flat_norm_of_the_equation_pair(
        interval, square, alpha, beta):
    # measured as a one-row block of the pair kernel, the norm agrees with
    # the flat norm of the pair image that apply_wentzell returns
    rng = np.random.default_rng(5)
    for d in (interval, square):
        smooth = d.field_from_function(
            lambda p: np.cos(3.0 * p[..., 0]) + p[..., -1] ** 2)
        rough = d.field_from_bulk(rng.normal(size=d.n_bulk))
        for u in (smooth, rough):
            assert norm_v2_sq(u, d, alpha, beta) == pytest.approx(
                norm_x2_sq(apply_wentzell(u, d, alpha, beta), d),
                rel=1e-13, abs=0.0)


def test_solve_roundtrips_the_operator(interval, square):
    rng = np.random.default_rng(11)
    for d in (interval, square):
        u = d.field_from_bulk(rng.normal(size=d.n_bulk))
        au = apply_wentzell(u, d, 0.7, 1.3)
        rhs = StateField(2.0 * u.bulk + 0.5 * au.bulk,
                         2.0 * u.boundary + 0.5 * au.boundary)
        sol = solve_wentzell_shifted(2.0, 0.5, rhs, d, 0.7, 1.3)
        err = max(np.max(np.abs(sol.bulk - u.bulk)),
                  np.max(np.abs(sol.boundary - u.boundary)))
        assert err < 1e-9
        assert d.is_trace_compatible(sol)


def test_solve_rejects_bad_coefficients(interval):
    rhs = interval.constant_field(1.0)
    with pytest.raises(ValueError):
        solve_wentzell_shifted(0.0, 1.0, rhs, interval, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_wentzell_shifted(1.0, -0.5, rhs, interval, 1.0, 1.0)


def test_cached_step_matrix_is_symmetric_and_ordered_for_it(interval, square):
    # the symmetric minimum-degree ordering of the cached factor rests on
    # the system being exactly symmetric, and pays by filling less than COLAMD
    key = ("solve", 400.0, 0.5, 0.0, 1.0)
    for d in (interval, square):
        solve_wentzell_shifted(400.0, 0.5, d.constant_field(1.0), d, 0.0, 1.0)
        sys = d._cache[key][1]
        assert abs(sys - sys.T).max() == 0.0
    d = build_domain("square", 65)
    solve_wentzell_shifted(400.0, 0.5, d.constant_field(1.0), d, 0.0, 1.0)
    lu, sys, _ = d._cache[key]
    colamd = spla.splu(sys, permc_spec="COLAMD")
    assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_manufactured_solution_second_order(interval):
    # operator (1 + A) with a smooth target; two mesh doublings
    def err(n):
        d = build_domain("interval", n)
        x = d.x_bulk[:, 0]
        ub = np.sin(np.pi * x / 2) + x**3
        du = (np.pi / 2) * np.cos(np.pi * x / 2) + 3 * x**2
        neg_lap = (np.pi / 2) ** 2 * np.sin(np.pi * x / 2) - 6 * x
        rhs_b = ub + (neg_lap + 0.7 * ub)
        rhs_g = ub[[0, -1]] + (np.array([-du[0], du[-1]]) + 1.3 * ub[[0, -1]])
        sol = solve_wentzell_shifted(1.0, 1.0, StateField(rhs_b, rhs_g),
                                     d, 0.7, 1.3)
        return float(np.max(np.abs(sol.bulk - ub)))

    e1, e2 = err(33), err(129)
    order = np.log(e1 / e2) / np.log(4.0)
    assert 1.8 < order < 2.2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_flat_inner_product_is_symmetric_bilinear(seed, c):
    d = build_domain("interval", 17)
    rng = np.random.default_rng(seed)
    u = d.field_from_bulk(rng.normal(size=d.n_bulk))
    v = d.field_from_bulk(rng.normal(size=d.n_bulk))
    w = d.field_from_bulk(rng.normal(size=d.n_bulk))
    assert inner_x2(u, v, d) == pytest.approx(inner_x2(v, u, d), rel=1e-12,
                                              abs=1e-12)
    lhs = inner_x2(u + c * v, w, d)
    rhs = inner_x2(u, w, d) + c * inner_x2(v, w, d)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def _reference_normal_deriv(d):
    """The per-node assembly of the outward normal derivative: each boundary
    node adds the one-sided stencil of every side it lies on, weighted by
    one over their number."""
    n, h = d.n, d.h
    c = 1.0 / (2 * h)
    nd = sp.lil_matrix((d.n_boundary, d.n_bulk))
    if d.kind == "interval":
        nd[0, [0, 1, 2]] = np.array([3.0, -4.0, 1.0]) / (2 * h)
        nd[1, [n - 1, n - 2, n - 3]] = np.array([3.0, -4.0, 1.0]) / (2 * h)
        return nd.tocsr()
    flat = lambda ix, iy: ix * n + iy
    for k, p in enumerate(d.boundary_index):
        ix, iy = divmod(int(p), n)
        stencils = []
        if ix == 0:
            stencils.append([flat(0, iy), flat(1, iy), flat(2, iy)])
        if ix == n - 1:
            stencils.append([flat(n - 1, iy), flat(n - 2, iy), flat(n - 3, iy)])
        if iy == 0:
            stencils.append([flat(ix, 0), flat(ix, 1), flat(ix, 2)])
        if iy == n - 1:
            stencils.append([flat(ix, n - 1), flat(ix, n - 2), flat(ix, n - 3)])
        w = 1.0 / len(stencils)
        for cols in stencils:
            for col, val in zip(cols, [3 * c, -4 * c, c]):
                nd[k, col] += w * val
    return nd.tocsr()


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    assert (a != b).nnz == 0
    a, b = a.tocsr(), b.tocsr()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


@pytest.mark.parametrize("kind, n", [("square", 8), ("square", 9),
                                     ("square", 17), ("square", 65),
                                     ("interval", 8), ("interval", 65)])
def test_normal_derivative_matches_the_per_node_assembly(kind, n):
    d = build_domain(kind, n)
    nd = _reference_normal_deriv(d)
    _assert_same_csr(d.normal_deriv, nd)
    # the pair assembled from it with the stencils rebuilt from the
    # primitives is unchanged too
    tr, lap, lb = _stencils(d)
    pair = sp.vstack([0.0 * sp.identity(d.n_bulk) - lap,
                      nd + (1.0 * sp.identity(d.n_boundary) - lb) @ tr],
                     format="csr")
    _assert_same_csr(d.bulk_operators(0.0, 1.0)[1], pair)


def _product_stiffness(kind, n):
    # the stiffness forms as sparse products and Kronecker sums: a1 = D'D /
    # h from the cell differences D, kron(a1, H1) + kron(H1, a1) on the
    # square, and the periodic chain's D_c'D_c / h
    h = 1.0 / (n - 1)
    w1 = np.full(n, h)
    w1[[0, -1]] = h / 2.0
    d1 = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    a1 = ((d1.T @ d1) / h).tocsr()
    if kind == "interval":
        return a1, None
    h1 = sp.diags(w1)
    nb = 4 * (n - 1)
    rows = np.arange(nb)
    dchain = sp.csr_matrix((np.repeat([-1.0, 1.0], nb),
                            (np.tile(rows, 2),
                             np.concatenate([rows, (rows + 1) % nb]))),
                           shape=(nb, nb))
    return ((sp.kron(a1, h1) + sp.kron(h1, a1)).tocsr(),
            ((dchain.T @ dchain) / h).tocsr())


@pytest.mark.parametrize("kind, n", [("interval", 8), ("interval", 17),
                                     ("interval", 1025), ("square", 8),
                                     ("square", 9), ("square", 17),
                                     ("square", 65), ("square", 129)])
def test_stiffness_stencils_are_the_product_forms_bit_for_bit(kind, n):
    # the stencils written directly hold the same CSR arrays as the sparse
    # products they replace: every entry the same product, every diagonal
    # entry the same sum, every row's columns sorted
    d = build_domain(kind, n)
    bulk, gamma = _product_stiffness(kind, n)
    pairs = [(d.stiff_bulk, bulk)]
    if gamma is not None:
        pairs.append((d.stiff_gamma, gamma))
    for built, ref in pairs:
        assert isinstance(built, sp.csr_matrix)
        assert built.shape == ref.shape
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(built, attr), getattr(ref, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
