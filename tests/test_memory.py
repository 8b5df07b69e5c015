"""Kernels, history grids, weighted norms, and the transport step."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from memheat.domain import StateField, apply_wentzell, build_domain, norm_v1_sq
from memheat.memory import (
    HistoryField,
    advance_history,
    build_history_grid,
    convolve_wentzell,
    exponential_kernel,
    history_from_profile,
    history_norms,
    history_oracle,
    KernelSpec,
    memory_norm_sq,
    tail_function,
    zero_history,
)
from memheat import memory
from memheat.memory import _interp_rows
from memheat.experiments import smooth_profile
from memheat.physics import make_nonlinearity
from memheat.solver import ProblemConfig, evolve, lift, step_peps


# -- kernels -----------------------------------------------------------------


def test_exponential_kernel_moments_are_exact():
    k = exponential_kernel(0.5, rate=2.0)
    assert k.mu(0.0) == pytest.approx(2.0, abs=1e-15)
    assert k.mass() == pytest.approx(1.0, abs=1e-15)
    # additivity of the exact integral
    total = k.integral(0.0, 1.0) + k.integral(1.0, math.inf)
    assert total == pytest.approx(k.mass(), abs=1e-15)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        exponential_kernel(0.0, rate=1.0)
    with pytest.raises(ValueError):
        exponential_kernel(1.0, rate=1.0)
    with pytest.raises(ValueError):
        exponential_kernel(0.5, rate=-1.0)


def test_validate_kernel_passes_exponential():
    # mu' + delta mu = (delta - rate) mu exactly, so delta is derived as the
    # rate, not set; the exponential kernel has unit mass
    assert [f.name for f in dataclasses.fields(KernelSpec)] == ["omega", "rate"]
    for rate in (1e-3, 1.0, 2.0, 3.0):
        assert exponential_kernel(0.5, rate=rate).delta == rate
    k = exponential_kernel(0.5, rate=2.0)
    assert k.mass() == pytest.approx(1.0, abs=1e-12)


def test_rescaled_kernel_scaling_identities():
    k = exponential_kernel(0.4, rate=1.5)
    assert k.mass(0.25) == pytest.approx(k.mass() / 0.25, rel=1e-14)
    assert k.integral(0.1, 0.5, 0.25) == pytest.approx(
        k.integral(0.4, 2.0) / 0.25, rel=1e-13)
    with pytest.raises(ValueError):
        k.integral(0.5, 0.1, 0.25)
    with pytest.raises(ValueError):
        build_history_grid(k, 0.0)
    with pytest.raises(ValueError):
        build_history_grid(k, 1.5)


# -- history grid -------------------------------------------------------------


def test_history_grid_masses_cover_the_kernel():
    k = exponential_kernel(0.5, rate=1.0)
    for spacing in ("geometric", "uniform"):
        g = build_history_grid(k, 0.5, n_s=128, spacing=spacing)
        assert g.edges[0] == 0.0
        assert np.all(np.diff(g.s_nodes) > 0.0)
        assert np.all((g.s_nodes >= g.edges[:-1]) & (g.s_nodes <= g.edges[1:]))
        covered = g.weights.sum() / k.mass(0.5)
        assert covered >= 1.0 - 1e-6
        assert g.window_weights(0.0, g.s_max).sum() == pytest.approx(
            g.weights.sum(), rel=1e-12)


def test_history_grid_refuses_truncation():
    k = exponential_kernel(0.5, rate=1.0)
    with pytest.raises(ValueError, match="truncates"):
        build_history_grid(k, 0.5, n_s=64, s_max=0.5)
    with pytest.raises(ValueError):
        build_history_grid(k, 0.5, n_s=8)
    with pytest.raises(ValueError):
        build_history_grid(k, 0.5, n_s=64, spacing="chebyshev")


def test_uniform_grids_share_nodes_across_eps():
    k = exponential_kernel(0.5, rate=1.0)
    g1 = build_history_grid(k, 0.4, n_s=64, spacing="uniform", s_max=8.0)
    g2 = build_history_grid(k, 0.1, n_s=64, spacing="uniform", s_max=8.0)
    assert g1.same_nodes(g2)
    g3 = build_history_grid(k, 0.4, n_s=64, spacing="geometric")
    assert not g1.same_nodes(g3)


# -- history fields and norms --------------------------------------------------


def test_zero_history_has_zero_norms(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5)
    phi = zero_history(g, interval)
    for level in (1, 2):
        assert memory_norm_sq(phi, level, interval, 1.0, 1.0) == 0.0
    assert history_norms(phi, interval, 1.0, 1.0) == (0.0, 0.0, 0.0, 0.0)
    # the limit problem carries no history at all
    assert memory_norm_sq(None, 1, interval, 1.0, 1.0) == 0.0
    assert history_norms(None, interval, 1.0, 1.0) == (0.0, 0.0, 0.0, 0.0)
    assert tail_function(None, 2.0, interval, 1.0, 1.0) == 0.0


def test_separable_history_norm_factorizes(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5)
    shape = smooth_profile(interval)
    phi = history_from_profile(g, interval, lambda s: np.ones_like(s), shape)
    mass = g.weights.sum()
    assert memory_norm_sq(phi, 1, interval, 0.7, 1.3) == pytest.approx(
        mass * norm_v1_sq(shape, interval, 0.7, 1.3), rel=1e-12)
    for level in (0, 3):
        with pytest.raises(ValueError, match="level must be 1 or 2"):
            memory_norm_sq(phi, level, interval, 0.7, 1.3)


def test_memory_norm_scales_quadratically(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5)
    phi = history_from_profile(g, interval, lambda s: np.exp(-s),
                               smooth_profile(interval))
    base = memory_norm_sq(phi, 1, interval, 0.5, 1.0)
    scaled = HistoryField(g, 2.5 * phi.bulk, phi.boundary_index)
    assert memory_norm_sq(scaled, 1, interval, 0.5, 1.0) == pytest.approx(
        6.25 * base, rel=1e-12)


def test_history_from_profile_refuses_a_shape_off_the_trace(interval):
    # the history stores its bulk only, so it cannot hold a boundary half
    # that differs from the bulk trace
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=64)
    image = apply_wentzell(smooth_profile(interval), interval, 0.7, 1.3)
    assert not interval.is_trace_compatible(image)
    with pytest.raises(ValueError, match="trace compatible"):
        history_from_profile(g, interval, np.exp, image)


def test_history_fields_on_different_grids_do_not_mix(interval):
    k = exponential_kernel(0.5, rate=1.0)
    g1 = build_history_grid(k, 0.5, n_s=64)
    g2 = build_history_grid(k, 0.5, n_s=32)
    a = zero_history(g1, interval)
    b = zero_history(g2, interval)
    with pytest.raises(ValueError):
        _ = a - b


@pytest.mark.parametrize("kind", ["interval", "square"])
def test_convolution_matches_weighted_slice_sum(kind, request):
    d = request.getfixturevalue(kind)
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=64)
    shape = smooth_profile(d)
    phi = history_from_profile(g, d, lambda s: np.exp(-s), shape)
    load = convolve_wentzell(phi, d, 0.7, 1.3)
    # linearity: the load is A_W applied to the weighted profile sum
    from memheat.domain import apply_wentzell
    coeff = float(g.weights @ np.exp(-g.s_nodes))
    ref = apply_wentzell(coeff * shape, d, 0.7, 1.3)
    assert np.allclose(load.bulk, ref.bulk, rtol=1e-10, atol=1e-11)
    assert np.allclose(load.boundary, ref.boundary, rtol=1e-10, atol=1e-11)


# -- transport ------------------------------------------------------------------


def test_one_step_from_empty_history_fills_the_ramp(interval):
    # constant inflow c over one step: Phi(s) = c * min(s, dt) at every node
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=64)
    c = 1.7
    u = interval.constant_field(c)
    phi = advance_history(zero_history(g, interval), u, 0.05, u_prev=u)
    expect = c * np.minimum(g.s_nodes, 0.05)
    assert np.max(np.abs(phi.bulk - expect[:, None])) < 1e-14
    assert np.max(np.abs(phi.boundary - expect[:, None])) < 1e-14


def test_many_steps_constant_inflow_exact_on_step_aligned_grid(interval):
    k = exponential_kernel(0.5, rate=1.0)
    g = build_history_grid(k, 0.5, n_s=64, spacing="uniform", s_max=8.0)
    dt = float(g.s_nodes[1] - g.s_nodes[0])
    c = -0.8
    u = interval.constant_field(c)
    phi = zero_history(g, interval)
    for m in range(1, 8):
        phi = advance_history(phi, u, dt, u_prev=u)
        expect = c * np.minimum(g.s_nodes, m * dt)
        assert np.max(np.abs(phi.bulk - expect[:, None])) < 1e-13


def test_transport_without_inflow_cannot_grow(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=96)
    phi = history_from_profile(g, interval, lambda s: np.minimum(s, 1.0),
                               smooth_profile(interval))
    zero = interval.zero_field()
    prev = memory_norm_sq(phi, 1, interval, 0.5, 1.0)
    for _ in range(20):
        phi = advance_history(phi, zero, 0.05, u_prev=zero)
        cur = memory_norm_sq(phi, 1, interval, 0.5, 1.0)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


def test_advance_history_rejects_nonpositive_step(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=64)
    u = interval.constant_field(1.0)
    with pytest.raises(ValueError):
        advance_history(zero_history(g, interval), u, 0.0, u_prev=u)


def _assert_transport_matches(out, phi, u_new, dt, u_prev):
    # (a) the cached blocks, scattered into one matrix, are bitwise the
    # linear interpolation at s - dt on the rows past dt; (b) BLAS sums each
    # block product in its own order, so every row of the step is checked
    # against the step in extended precision to 4 ulp of the row's largest
    # entry (the pull-back rows plus trapezoid increment, the inflow rows)
    g = phi.grid
    s = g.s_nodes
    blocks, k, _, _ = memory._pullback(g, dt, phi.bulk.shape[1])
    P = np.zeros((g.n_s, g.n_s))
    for rows, src, D in blocks:
        P[rows, src] = D
    assert np.array_equal(P[k:], _interp_rows(s, np.eye(g.n_s), s[k:] - dt))
    assert not P[:k].any()
    new, prev = (u.bulk.astype(np.longdouble) for u in (u_new, u_prev))
    sl = s[:k, None].astype(np.longdouble)
    exact = np.vstack([
        sl * new + sl**2 / (2 * np.longdouble(dt)) * (prev - new),
        _interp_rows(s, phi.bulk.astype(np.longdouble), s[k:] - dt)
        + dt / np.longdouble(2) * (prev + new)])
    ulp = np.spacing(np.abs(exact).max(axis=1).astype(float))[:, None]
    assert np.all(np.abs(out.bulk - exact) <= 4 * ulp)


@pytest.mark.parametrize("spacing, n_below", [("geometric", "several"),
                                              ("uniform", "none")])
def test_cached_transport_equals_the_per_call_interpolation(square, spacing,
                                                            n_below):
    k = exponential_kernel(0.5, rate=3.0)
    dt = 0.0025
    if spacing == "geometric":
        g = build_history_grid(k, 0.2, n_s=128)
    else:  # the Hoelder pair's grid: the first node lies past dt
        g = build_history_grid(k, 0.2, n_s=192, spacing="uniform", s_max=2.0)
    below = int(np.sum(g.s_nodes <= dt))
    assert (below > 1) if n_below == "several" else (below == 0)
    rng = np.random.default_rng(7)
    phi = HistoryField(g, rng.normal(size=(g.n_s, square.n_bulk)),
                       square.boundary_index)
    u_prev, u_new = (square.field_from_bulk(rng.normal(size=square.n_bulk))
                     for _ in range(2))
    out = advance_history(phi.copy(), u_new, dt, u_prev=u_prev)
    _assert_transport_matches(out, phi, u_new, dt, u_prev)
    cached = g._cache["transport"]
    assert cached[0] == (dt, square.n_bulk) and cached[2] == below
    advance_history(phi.copy(), u_new, dt, u_prev=u_prev)
    assert g._cache["transport"] is cached
    out = advance_history(phi.copy(), u_new, 2.0 * dt, u_prev=u_prev)
    assert g._cache["transport"][0] == (2.0 * dt, square.n_bulk)
    assert g._cache["transport"][1] is not cached[1]
    _assert_transport_matches(out, phi, u_new, 2.0 * dt, u_prev)


@pytest.mark.parametrize("grid, dt", [
    (dict(eps=0.2), 0.0025),
    (dict(eps=0.025), 0.0025),
    # the Hoelder pair's grid: the first node lies past dt, so k = 0
    (dict(eps=0.2, n_s=192, spacing="uniform", s_max=2.0), 0.0025),
    # every node lies within one step: all rows are inflow, no blocks
    (dict(eps=0.2), 2.5),
])
def test_pullback_blocks_partition_the_transported_rows(square, grid, dt):
    g = build_history_grid(exponential_kernel(0.5, rate=3.0),
                           **{"n_s": 128, **grid})
    s = g.s_nodes
    blocks, k, C, _ = memory._pullback(g, dt, square.n_bulk)
    assert k == int(np.sum(s <= dt)) and C.shape == (k, 2)
    covered = np.concatenate([np.arange(g.n_s)[rows] for rows, _, _ in blocks]
                             + [np.arange(0)])
    assert np.array_equal(np.sort(covered), np.arange(k, g.n_s))
    # the old rows around s_i - dt: the last node at or below it (none
    # below the first node, where the zero inflow anchor takes its place)
    # and the next one
    above = np.searchsorted(s, s - dt, side="right")
    nnz = 0
    for rows, src, D in blocks:
        assert D.shape == (rows.stop - rows.start, src.stop - src.start)
        # a block of more than one row reads a slab within the block budget
        assert D.shape[0] == 1 or \
            8 * square.n_bulk * D.shape[1] <= memory._BLOCK_BYTES
        block_nnz = 0
        for i in range(rows.start, rows.stop):
            cols = [above[i]] if above[i] == 0 else [above[i] - 1, above[i]]
            assert src.start <= cols[0] and cols[-1] < src.stop
            block_nnz += len(cols)
        assert D.size <= memory._PULLBACK_FILL * block_nnz
        nnz += block_nnz
    assert sum(D.size for _, _, D in blocks) <= memory._PULLBACK_FILL * nnz
    if dt >= g.s_max:
        assert k == g.n_s and blocks == ()
    rng = np.random.default_rng(5)
    phi = HistoryField(g, rng.normal(size=(g.n_s, square.n_bulk)),
                       square.boundary_index)
    u_prev, u_new = (square.field_from_bulk(rng.normal(size=square.n_bulk))
                     for _ in range(2))
    out = advance_history(phi.copy(), u_new, dt, u_prev=u_prev)
    _assert_transport_matches(out, phi, u_new, dt, u_prev)


def test_pullback_blocks_of_wide_rows_stay_within_the_block_budget():
    # rows of 40,000 nodes: even a 2-row slab exceeds the block budget, so
    # every block is one row, over budget only by the two old rows it needs
    d = build_domain("interval", 40_000)
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=64)
    dt = 0.0025
    assert 3 * 8 * d.n_bulk > memory._BLOCK_BYTES
    blocks, k, _, _ = memory._pullback(g, dt, d.n_bulk)
    covered = np.concatenate([np.arange(g.n_s)[rows] for rows, _, _ in blocks])
    assert k > 0 and np.array_equal(covered, np.arange(k, g.n_s))
    for rows, src, D in blocks:
        assert D.shape[0] == 1 or \
            8 * d.n_bulk * (src.stop - src.start) <= memory._BLOCK_BYTES
    assert any(8 * d.n_bulk * (src.stop - src.start) > memory._BLOCK_BYTES
               for _, src, _ in blocks)
    _assert_in_place_step(d, g, dt, seed=29)


def _per_block_transport(phi, u_new, dt, u_prev):
    # the transport that adds the step's increment to each pull-back block
    # right after its product, one pass per block
    blocks, k, C, _ = memory._pullback(phi.grid, dt, phi.bulk.shape[1])
    out = phi.bulk
    new, prev = u_new.bulk, u_prev.bulk
    inc = 0.5 * dt * (prev + new)
    for rows, src, D in reversed(blocks):
        block = out[rows]
        np.matmul(D, out[src], out=block)
        block += inc
    np.matmul(C, np.stack([new, prev]), out=out[:k])
    return phi


@pytest.mark.parametrize("width", [1, 17, 1025, 4225])
@pytest.mark.parametrize("run_rows", [None, 1, 3, 7])
@pytest.mark.parametrize("grid", [
    dict(eps=0.2),
    # the first node lies past dt, so no row is filled by the inflow
    dict(eps=0.2, n_s=192, spacing="uniform", s_max=2.0),
])
def test_increment_runs_match_the_per_block_increment(width, run_rows, grid,
                                                      monkeypatch):
    # the increment is added once per run of finished rows, a run holding
    # _BLOCK_BYTES // (8 width) rows (the default, or 1, 3 or 7 rows, so
    # that runs end inside blocks, and at 7 rows the last one is ragged);
    # each entry still gets the block product first and the increment
    # second, so the step is bit for bit the per-block one
    if run_rows is not None:
        monkeypatch.setattr(memory, "_BLOCK_BYTES", 8 * width * run_rows)
    g = build_history_grid(exponential_kernel(0.5, rate=3.0),
                           **{"n_s": 128, **grid})
    dt = 0.0025
    rng = np.random.default_rng(width)
    phi = HistoryField(g, rng.normal(size=(g.n_s, width)), np.array([0]))
    u_prev, u_new = (StateField(b, b[:1]) for b in rng.normal(size=(2, width)))
    ref = _per_block_transport(phi.copy(), u_new, dt, u_prev)
    out = advance_history(phi, u_new, dt, u_prev)
    assert out.bulk.tobytes() == ref.bulk.tobytes()
    if run_rows in (3, 7):
        blocks, k, _, _ = memory._pullback(g, dt, width)
        bounds = range(g.n_s - run_rows, k, -run_rows)
        assert any(rows.start < b < rows.stop for b in bounds
                   for rows, _, _ in blocks)
        assert run_rows == 3 or (g.n_s - k) % run_rows != 0


@pytest.mark.parametrize("kind, n", [("square", 65), ("interval", 1025)])
def test_pullback_blocks_of_narrow_rows_keep_their_count(kind, n):
    # rows of up to 8,192 nodes: the fill bound, not the slab budget, cuts
    # the blocks, as on the benchmark's square 65 and interval 1025 grids
    width = build_domain(kind, n).n_bulk
    assert 8 * 8 * width <= memory._BLOCK_BYTES
    counts = [len(memory._pullback(
        build_history_grid(exponential_kernel(0.5, rate=3.0), eps, n_s=128),
        0.0025, width)[0]) for eps in (0.2, 0.1, 0.05, 0.025)]
    assert counts == [17, 16, 16, 14]


def test_transport_matches_oracle_on_step_aligned_grid(interval):
    k = exponential_kernel(0.5, rate=1.0)
    g = build_history_grid(k, 0.5, n_s=64, spacing="uniform", s_max=8.0)
    dt = float(g.s_nodes[1] - g.s_nodes[0])
    rng = np.random.default_rng(3)
    n_steps = 20
    times = np.arange(n_steps + 1) * dt
    path = [interval.field_from_bulk(rng.normal(size=interval.n_bulk))
            for _ in range(n_steps + 1)]
    phi = zero_history(g, interval)
    for i in range(n_steps):
        phi = advance_history(phi, path[i + 1], dt, u_prev=path[i])
    ora = history_oracle(times, path, g, interval, times[-1])
    err = max(np.max(np.abs(phi.bulk - ora.bulk)),
              np.max(np.abs(phi.boundary - ora.boundary)))
    assert err < 1e-12


def test_the_pullback_front_strays_from_the_oracle_by_a_pinned_amount(
        interval):
    # the benchmark's grid from rest, constant data: the linear pull-back
    # spreads the front s = t, so the rows from the first node above it up
    # to the flat tail hold, not the flat value int_0^t u, a value
    # interpolated from the front. Measured, relative to the flat value:
    # 6.71e-3, 3.95e-2 and 5.30e-2 at steps 20, 40 and 67, on the first row
    # above the front, and below 4e-6 from eight rows above it; pinned at
    # twice that. The tail itself holds the flat value to rounding.
    cfg = _bench_cfg(interval, 0.2, 0.2)
    y = lift(interval.constant_field(0.5), cfg)
    times, path, seen = [0.0], [y.u], {}
    for step in range(1, 68):
        y = step_peps(y, cfg)
        times.append(step * cfg.dt)
        path.append(y.u)
        if step in (20, 40, 67):
            phi = y.phi
            ref = history_oracle(np.array(times), path, phi.grid, interval,
                                 step * cfg.dt)
            front = int(np.searchsorted(phi.grid.s_nodes, step * cfg.dt,
                                        side="right"))
            dev = (np.abs(phi.bulk - ref.bulk).max(axis=1)
                   / np.abs(ref.bulk[-1]).max())
            assert dev[phi.rest:].max() <= 1e-14
            seen[step] = (front, phi.rest, dev[front:phi.rest].max())
    assert [v[:2] for v in seen.values()] == [(77, 80), (86, 100), (93, 127)]
    for step, pin in ((20, 6.71e-3), (40, 3.95e-2), (67, 5.30e-2)):
        assert seen[step][2] <= 2.0 * pin


def test_oracle_carries_initial_history_beyond_elapsed_time(interval):
    k = exponential_kernel(0.5, rate=1.0)
    g = build_history_grid(k, 0.5, n_s=64, spacing="uniform", s_max=8.0)
    shape = interval.constant_field(1.0)
    phi0 = history_from_profile(g, interval, lambda s: s, shape)
    times = np.array([0.0, 0.125])
    c = 2.0
    path = [shape * c, shape * c]
    ora = history_oracle(times, path, g, interval, 0.125, phi0=phi0)
    # recent nodes hold the fresh integral, older ones the shifted ramp
    recent = g.s_nodes <= 0.125
    expect = np.where(recent, c * g.s_nodes, (g.s_nodes - 0.125) + c * 0.125)
    assert np.max(np.abs(ora.bulk - expect[:, None])) < 1e-12


def test_oracle_validates_the_sampled_path(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=64)
    u = interval.constant_field(1.0)
    with pytest.raises(ValueError):
        history_oracle(np.array([0.5, 1.0]), [u, u], g, interval, 0.7)
    with pytest.raises(ValueError):
        history_oracle(np.array([0.0, 1.0]), [u, u], g, interval, 2.0)


# -- tails, strong norm, transport pairing ------------------------------------


def test_tail_function_decreases_dyadically(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=128)
    phi = history_from_profile(g, interval, lambda s: np.minimum(s, 1.0),
                               smooth_profile(interval))
    taus = [1.0, 2.0, 4.0, 8.0]
    vals = [tail_function(phi, t, interval, 0.5, 1.0) for t in taus]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.0
    with pytest.raises(ValueError):
        tail_function(phi, 0.5, interval, 0.5, 1.0)


def test_strong_history_norm_dominates_its_parts(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5, n_s=128)
    phi = history_from_profile(g, interval, lambda s: np.minimum(s, 1.0),
                               smooth_profile(interval))
    _, m2, tail_sup, total = history_norms(phi, interval, 0.5, 1.0)
    # the s-derivative energy is the rest, and it is positive
    assert total > m2 + tail_sup
    assert m2 > 0.0 and tail_sup > 0.0


@pytest.mark.parametrize("kind, n", [("interval", 65), ("square", 9)])
def test_history_norms_equal_the_separate_norms(kind, n):
    d = build_domain(kind, n)
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=64)
    rng = np.random.default_rng(11)
    phi = HistoryField(g, rng.normal(size=(g.n_s, d.n_bulk)),
                       d.boundary_index)
    alpha, beta = 0.7, 1.3
    fused = history_norms(phi, d, alpha, beta)
    assert fused[:2] == (memory_norm_sq(phi, 1, d, alpha, beta),
                         memory_norm_sq(phi, 2, d, alpha, beta))
    # the cached dyadic windows give the per-tau tail_function sup
    sup_t, tau = 0.0, 1.0
    while tau <= 2.0 * max(1.0, g.s_max):
        sup_t = max(sup_t, tau * tail_function(phi, tau, d, alpha, beta))
        tau *= 2.0
    assert fused[2] == sup_t > 0.0
    assert history_norms(None, d, alpha, beta) == (0.0, 0.0, 0.0, 0.0)


# The unblocked row formulas of the norms before the block walk, kept as its
# reference.
def _unblocked_x2_rows(bulk, boundary, d):
    return (bulk**2) @ d.dx + (boundary**2) @ d.dsigma


def _unblocked_v1_rows(bulk, boundary, d, alpha, beta):
    sb = d.stiff_bulk @ bulk.T
    rows = np.einsum("jn,nj->j", bulk, sb)
    if alpha != 0.0:
        rows = rows + alpha * ((bulk**2) @ d.dx)
    sg = d.stiff_gamma @ boundary.T
    rows = rows + np.einsum("jn,nj->j", boundary, sg)
    rows = rows + beta * ((boundary**2) @ d.dsigma)
    return rows


def _unblocked_pair_rows(bulk, boundary, d, alpha, beta):
    # -Lap_h = H^{-1} (A - Tr' W_sigma d_n) and -LB = W_sigma^{-1} A_Gamma,
    # from the domain's primitives
    dn = (d.normal_deriv @ bulk.T).T
    flux = np.zeros_like(bulk)
    flux[:, d.boundary_index] = d.dsigma * dn
    pb = ((d.stiff_bulk @ bulk.T).T - flux) / d.dx + alpha * bulk
    pg = dn + (d.stiff_gamma @ boundary.T).T / d.dsigma + beta * boundary
    return pb, pg


def _unblocked_ds_rows(phi):
    s = phi.grid.s_nodes
    db = np.empty_like(phi.bulk)
    dg = np.empty_like(phi.boundary)
    db[0] = phi.bulk[0] / s[0]
    dg[0] = phi.boundary[0] / s[0]
    ds = np.diff(s)[:, None]
    db[1:] = np.diff(phi.bulk, axis=0) / ds
    dg[1:] = np.diff(phi.boundary, axis=0) / ds
    return db, dg


def _unblocked_norms(phi, d, alpha, beta):
    g = phi.grid
    v1 = _unblocked_v1_rows(phi.bulk, phi.boundary, d, alpha, beta)
    m2 = g.weights @ _unblocked_x2_rows(
        *_unblocked_pair_rows(phi.bulk, phi.boundary, d, alpha, beta), d)
    tail_sup, tau = 0.0, 1.0
    while tau <= 2.0 * max(1.0, g.s_max):
        window = g.window_weights(0.0, 1.0 / tau) + g.window_weights(tau, g.s_max)
        tail_sup = max(tail_sup, tau * g.eps * (window @ v1))
        tau *= 2.0
    db, dg = _unblocked_ds_rows(phi)
    k2 = m2 + g.eps * (g.weights @ _unblocked_x2_rows(db, dg, d)) + tail_sup
    return g.weights @ v1, m2, tail_sup, k2


def _unblocked_pairing(phi, d, alpha, beta):
    """<T Phi, Phi>_M1 with T = -d/ds: the one-sided s-derivative of the
    strong norm paired with each row in V1, summed against mu_eps."""
    db, dg = _unblocked_ds_rows(phi)
    sb = d.stiff_bulk @ phi.bulk.T
    rows = np.einsum("jn,nj->j", db, sb)
    if alpha != 0.0:
        rows = rows + alpha * ((db * phi.bulk) @ d.dx)
    sg = d.stiff_gamma @ phi.boundary.T
    rows = rows + np.einsum("jn,nj->j", dg, sg)
    rows = rows + beta * ((dg * phi.boundary) @ d.dsigma)
    return -(phi.grid.weights @ rows)


@pytest.mark.parametrize("kind, n", [("interval", 65), ("square", 9)])
def test_blocked_norms_match_the_unblocked_formulas(kind, n, monkeypatch):
    d = build_domain(kind, n)
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=64)
    rng = np.random.default_rng(13)
    phi = HistoryField(g, rng.normal(size=(g.n_s, d.n_bulk)),
                       d.boundary_index)
    alpha, beta = 0.7, 1.3
    monkeypatch.setattr(memory, "_BLOCK_BYTES", 3000)
    blocks = memory._blocks(phi)
    step = blocks[0].stop
    assert len(blocks) > 1 and g.n_s % step != 0
    assert blocks[-1].stop - blocks[-1].start == g.n_s % step
    assert history_norms(phi, d, alpha, beta) == pytest.approx(
        _unblocked_norms(phi, d, alpha, beta), rel=1e-12, abs=0.0)


def test_history_norms_of_a_history_at_rest_walk_no_rows(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=64)
    rng = np.random.default_rng(31)
    moved = HistoryField(g, rng.normal(size=(g.n_s, interval.n_bulk)),
                         interval.boundary_index)
    # the newest row is zero, the older rows are not: the full walk runs
    moved.bulk[0] = 0.0
    expect = _unblocked_norms(moved, interval, 0.7, 1.3)[:4]
    assert history_norms(moved, interval, 0.7, 1.3) == pytest.approx(
        expect, rel=1e-12, abs=0.0)
    # at rest the walk is the zero row 0 alone, and gives exact zeros
    rest = zero_history(g, interval)
    norms = history_norms(rest, interval, 0.7, 1.3)
    assert norms == (0.0, 0.0, 0.0, 0.0)
    assert all(type(v) is float for v in norms)


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, above what it started with."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_history_norms_allocate_no_history_sized_arrays():
    for kind, n, n_s in (("square", 65, 128), ("interval", 1025, 512)):
        d = build_domain(kind, n)
        g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2,
                               n_s=n_s)
        rng = np.random.default_rng(17)
        phi = HistoryField(g, rng.normal(size=(g.n_s, d.n_bulk)),
                           d.boundary_index)
        assert phi.bulk.nbytes > 4 * 2**20
        # domain-only, built once per run
        d.bulk_operators(0.7, 1.3)
        d.edge_form(0.7, 1.3)
        assert _peak_bytes(lambda: memory_norm_sq(phi, 1, d, 0.7, 1.3)) \
            < 2 * 2**20
        if kind == "square":
            assert _peak_bytes(lambda: history_norms(phi, d, 0.7, 1.3)) \
                < 2 * 2**20
        # with the inflow claim of a step, the closed-form rows too
        u_prev, u_new = (d.field_from_bulk(rng.normal(size=d.n_bulk))
                         for _ in range(2))
        advance_history(phi, u_new, 0.0025, u_prev)
        assert phi.inflow is not None
        assert _peak_bytes(lambda: memory_norm_sq(phi, 1, d, 0.7, 1.3)) \
            < 2 * 2**20
        assert _peak_bytes(lambda: history_norms(phi, d, 0.7, 1.3)) \
            < 2 * 2**20


def test_transport_allocates_only_its_output():
    # the transport writes in place: beyond the increment row and the two
    # stacked inflow rows it may allocate one block's source slab, the
    # buffer a block whose slab overlaps its own rows is computed through
    d = build_domain("square", 65)
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=128)
    dt = 0.0025
    rng = np.random.default_rng(19)
    phi = HistoryField(g, rng.normal(size=(g.n_s, d.n_bulk)),
                       d.boundary_index)
    u_prev, u_new = (d.field_from_bulk(rng.normal(size=d.n_bulk))
                     for _ in range(2))
    advance_history(phi, u_new, dt, u_prev)  # builds the cached operator
    blocks, k, _, _ = memory._pullback(g, dt, d.n_bulk)
    assert k == 35
    slab = max(src.stop - src.start for _, src, _ in blocks)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        advance_history(phi, u_new, dt, u_prev)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= (slab + 3) * phi.bulk[0].nbytes


def test_advance_history_returns_the_history_it_was_given(square):
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=128)
    _assert_in_place_step(square, g, 0.0025, seed=23)


def _assert_in_place_step(d, g, dt, seed):
    # in place, from the last block to the first: the result is still the
    # step of the old values, rows whose slab overlaps their own included
    rng = np.random.default_rng(seed)
    phi = HistoryField(g, rng.normal(size=(g.n_s, d.n_bulk)),
                       d.boundary_index)
    u_prev, u_new = (d.field_from_bulk(rng.normal(size=d.n_bulk))
                     for _ in range(2))
    old, bulk = phi.copy(), phi.bulk
    blocks, k, C, _ = memory._pullback(g, dt, d.n_bulk)
    assert any(src.stop > rows.start for rows, src, _ in blocks)
    out = advance_history(phi, u_new, dt, u_prev=u_prev)
    assert out is phi and out.bulk is bulk
    _assert_transport_matches(out, old, u_new, dt, u_prev)
    # bitwise the same products taken into a fresh array
    new, prev = u_new.bulk, u_prev.bulk
    ref = np.empty_like(old.bulk)
    for rows, src, D in blocks:
        ref[rows] = D @ old.bulk[src] + 0.5 * dt * (prev + new)
    ref[:k] = C @ np.stack([new, prev])
    assert np.array_equal(out.bulk, ref)


@pytest.mark.parametrize("kind, n", [("interval", 17), ("interval", 100),
                                     ("square", 17), ("square", 100)])
@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.7, 1.3), (1.0, 0.0)])
def test_edge_form_weights_are_nonnegative(kind, n, alpha, beta):
    # nonnegative weights make the V1 energy a sum of nonnegative terms,
    # free of cancellation; at n = 100 the mesh width is no power of 2, and
    # the interior rows of K cancel to zero only in extended precision
    d = build_domain(kind, n)
    edges, index, weight = d.edge_form(alpha, beta)
    for o, c in edges:
        assert np.all(c >= 0.0), f"edge offset {o} has a negative weight"
    assert np.all(weight > 0.0), "a node weight is negative"
    # and they rebuild K: off-diagonals exactly, the diagonal to rounding
    k = d.bulk_operators(alpha, beta)[0]
    diag = np.zeros(d.n_bulk)
    diag[index] = weight
    gap = k - sp.diags(k.diagonal())
    for o, c in edges:
        gap = gap + sp.diags([c, c], [o, -o], shape=k.shape)
        diag[o:] += c
        diag[:-o] += c
    gap = gap.tocsr()
    gap.eliminate_zeros()
    assert gap.nnz == 0
    np.testing.assert_allclose(diag, k.diagonal(), rtol=1e-14, atol=0.0)


def _scattered_row_sums(k):
    """K's row sums in extended precision by a scatter-add over its COO
    entries, kept as the reference of ``edge_form``'s segment sums."""
    full = k.tocoo()
    sums = np.zeros(k.shape[0], dtype=np.longdouble)
    np.add.at(sums, full.row, full.data.astype(np.longdouble))
    return sums.astype(float)


@pytest.mark.parametrize("kind, n", [("interval", 17), ("interval", 100),
                                     ("square", 17), ("square", 100)])
@pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.7, 1.3), (1.0, 0.0)])
def test_edge_form_node_weights_equal_the_scattered_row_sums(kind, n, alpha,
                                                              beta):
    d = build_domain(kind, n)
    _, index, weight = d.edge_form(alpha, beta)
    sums = _scattered_row_sums(d.bulk_operators(alpha, beta)[0])
    assert np.array_equal(index, np.flatnonzero(sums))
    assert np.array_equal(weight, sums[index])


def test_edge_form_row_sums_skip_empty_rows():
    # a stiffness whose first, an inner and the last row are empty: a
    # segment sum would hand each of them the entry that follows it
    d = build_domain("interval", 17)
    k, pair = d.bulk_operators(0.7, 1.3)
    keep = sp.diags(np.isin(np.arange(d.n_bulk), (0, 8, 16), invert=True)
                    .astype(float))
    k = (keep @ k @ keep).tocsr()
    k.eliminate_zeros()
    assert np.all(np.diff(k.indptr)[[0, 8, 16]] == 0)
    d._cache[("bulk", 0.7, 1.3)] = (k, pair)
    _, index, weight = d.edge_form(0.7, 1.3)
    sums = _scattered_row_sums(k)
    assert not np.isin((0, 8, 16), index).any()
    assert np.array_equal(index, np.flatnonzero(sums))
    assert np.array_equal(weight, sums[index])


@pytest.mark.parametrize("kind, n", [("interval", 1025), ("square", 33)])
def test_v1_rows_of_a_smooth_history_keep_full_precision(kind, n):
    # the history of a real run from smooth data, after 100 steps
    d = build_domain(kind, n)
    cfg = ProblemConfig(d, exponential_kernel(0.5, rate=3.0),
                        make_nonlinearity([-0.125, 0.0, 0.0, 1.0],
                                          [-0.375, 0.0, 0.0, 1.0]),
                        alpha=0.0, beta=1.0, eps=0.2, dt=0.0025, t_final=0.25)
    y = lift(smooth_profile(d), cfg)
    for _ in range(100):
        y = step_peps(y, cfg)
    phi = y.phi
    x = phi.bulk.astype(np.longdouble)
    for alpha, beta in ((0.0, 1.0), (0.7, 1.3)):
        k = d.bulk_operators(alpha, beta)[0].tocoo()
        ref = (x[:, k.row] * x[:, k.col]) @ k.data.astype(np.longdouble)
        rows = memory._v1_rows(phi, d, alpha, beta)
        err = np.max(np.abs(rows - ref) / ref)
        # the edge form sums nonnegative terms; x'Kx by a sparse product
        # cancels, losing 2e-14 to 6e-13 on these histories
        assert err <= 1e-14
        # the state is measured by the same kernel, as a one-row block;
        # its Dirichlet sums by sparse products lost up to 1e-11 here
        u = y.u.bulk.astype(np.longdouble)
        ref = (u[k.row] * u[k.col]) @ k.data.astype(np.longdouble)
        assert abs(norm_v1_sq(y.u, d, alpha, beta) - ref) / ref <= 1e-14


def _dissipation_gap(phi, d, alpha, beta):
    """The relative gap of the transport pairing to its exact value: for the
    exponential kernel and Phi(0) = 0, <T Phi, Phi>_M1 = -(rate / 2 eps) M1,
    so all of the gap is the s-grid's quadrature error."""
    g = phi.grid
    exact = -(g.kernel.rate / (2.0 * g.eps)) * _unblocked_norms(
        phi, d, alpha, beta)[0]
    return (exact - _unblocked_pairing(phi, d, alpha, beta)) / abs(exact)


def test_the_dissipation_identity_holds_on_a_run_to_grid_error(interval):
    # a run's final history on the benchmark's physics: the gap is first
    # order in 1 / n_s and inside 5% from n_s 64 on
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    u0 = interval.field_from_function(lambda p: 0.5 * np.cos(np.pi * p[..., 0]))
    gaps = []
    for n_s in (64, 128, 512):
        cfg = ProblemConfig(interval, exponential_kernel(0.5, rate=3.0), nl,
                            alpha=0.0, beta=1.0, eps=0.2, dt=0.005,
                            t_final=0.5, record_stride=100,
                            history={"n_s": n_s})
        phi = evolve(lift(u0, cfg), cfg).final_state.phi
        gaps.append(_dissipation_gap(phi, interval, 0.0, 1.0))
    # measured: -1.79e-2, -8.92e-3, -2.19e-3
    assert all(abs(x) <= 0.05 for x in gaps), gaps
    assert 1.5 <= gaps[0] / gaps[1] <= 2.5 and 3.0 <= gaps[1] / gaps[2] <= 5.0


def test_the_dissipation_identity_holds_on_a_ramp_profile_to_grid_error(
        interval):
    shape = smooth_profile(interval)
    gaps = []
    for n_s in (64, 128, 512, 2048):
        g = build_history_grid(exponential_kernel(0.5, rate=1.0), 0.5,
                               n_s=n_s)
        phi = history_from_profile(g, interval, lambda s: np.minimum(s, 1.0),
                                   shape)
        gaps.append(_dissipation_gap(phi, interval, 0.0, 1.0))
    # measured: 6.63e-2, 3.50e-2, 9.08e-3, 2.29e-3
    assert 1.5 <= gaps[0] / gaps[1] <= 2.5
    assert all(3.0 <= a / b <= 5.0 for a, b in zip(gaps[1:], gaps[2:])), gaps
    assert abs(gaps[-1]) <= 3e-3


# -- the flat tail ----------------------------------------------------------


def _without_tail(phi):
    """The same history, claiming no flat tail (``rest`` n_s - 1)."""
    return HistoryField(phi.grid, phi.bulk.copy(), phi.boundary_index)


def _rel_gap(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("kind, n", [("interval", 65), ("square", 17)])
def test_a_run_from_rest_keeps_a_flat_tail_that_changes_only_rounding(kind,
                                                                     n):
    # 200 steps from a history at rest, on the benchmark's physics: after
    # every step the rows from rest on are bitwise equal, and the history,
    # its load and its norms agree to 1e-12 with the same step taken, and
    # the same quantities read, without the tail rule
    d = build_domain(kind, n)
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    cfg = ProblemConfig(d, exponential_kernel(0.5, rate=3.0), nl, alpha=0.0,
                        beta=1.0, eps=0.2, dt=0.0025, t_final=0.5,
                        record_stride=1, history={"n_s": 128})
    u0 = d.field_from_function(lambda p: 0.5 * np.cos(np.pi * p[..., 0]))
    state = lift(u0, cfg)
    assert state.phi.rest == 0
    plain = _without_tail(state.phi)
    g, (_, pair) = state.phi.grid, d.bulk_operators(0.0, 1.0)
    rests = []
    for _ in range(200):
        u_prev = state.u
        state = step_peps(state, cfg)
        phi = state.phi
        advance_history(plain, state.u, cfg.dt, u_prev=u_prev)
        assert plain.rest == g.n_s - 1
        bits = phi.bulk.view(np.uint64)
        assert np.all(bits[phi.rest:] == bits[phi.rest])
        assert _rel_gap(phi.bulk, plain.bulk) <= 1e-12
        flat = _without_tail(phi)
        # the load is a difference operator, scale 1/h^2, applied to the
        # weighted row sum, so it is compared against the size of the terms
        # of that product, the scale of its rounding
        a, b = (convolve_wentzell(x, d, 0.0, 1.0) for x in (phi, flat))
        terms = abs(pair) @ np.abs(g.weights @ flat.bulk)
        gap = np.abs(np.concatenate([a.bulk - b.bulk,
                                     a.boundary - b.boundary]))
        assert np.all(gap <= 1e-12 * terms.max())
        assert _rel_gap(history_norms(phi, d, 0.0, 1.0),
                        history_norms(flat, d, 0.0, 1.0)) <= 1e-12
        rests.append(phi.rest)
    # the tail shrinks as the inflow fills the history, and is gone when
    # the front reaches the last row
    assert rests[0] == 36 and rests[19] == 80 and rests[-1] == 127
    assert rests == sorted(rests)


def test_a_history_without_a_tail_moves_loads_and_records_as_before(square):
    # rest n_s - 1 claims nothing: the transport runs every block, the load
    # takes the plain weights and the walks cover every row, bitwise
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=128)
    dt, d = 0.0025, square
    rng = np.random.default_rng(37)
    phi = HistoryField(g, rng.normal(size=(g.n_s, d.n_bulk)),
                       d.boundary_index)
    assert phi.rest == g.n_s - 1
    _, pair = d.bulk_operators(0.7, 1.3)
    load = convolve_wentzell(phi, d, 0.7, 1.3)
    assert np.array_equal(np.concatenate([load.bulk, load.boundary]),
                          pair @ (g.weights @ phi.bulk))
    v1 = np.concatenate([d.v1_products(phi.bulk[r], 0.7, 1.3)
                         for r in memory._blocks(phi)])
    assert memory._blocks(phi)[-1].stop == g.n_s
    assert np.array_equal(memory._v1_rows(phi, d, 0.7, 1.3), v1)
    _assert_in_place_step(d, g, dt, seed=41)


def test_a_tail_start_survives_copy_and_difference(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=64)
    rng = np.random.default_rng(43)
    bulk = np.repeat(rng.normal(size=(1, interval.n_bulk)), g.n_s, axis=0)
    bulk[:10] = rng.normal(size=(10, interval.n_bulk))
    a = HistoryField(g, bulk, interval.boundary_index, 10)
    b = HistoryField(g, bulk[::-1].copy(), interval.boundary_index, 53)
    b.bulk[54:] = b.bulk[53]
    assert a.copy().rest == 10 and (a - b).rest == (b - a).rest == 53
    assert zero_history(g, interval).rest == 0
    # the difference's rows from its rest on are still equal
    diff = (a - b).bulk
    assert np.all(diff[53:] == diff[53])


def test_the_tail_rule_is_cut_per_row_and_read_before_written(square):
    # the blocks above the tail are skipped, the straddling one runs whole,
    # and the tail gets bulk[rest] + inc of the old history, against the
    # rows the plain pull-back computes from the same history, to rounding
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=128)
    dt, d = 0.0025, square
    blocks, k, _, lo = memory._pullback(g, dt, d.n_bulk)
    starts = [rows.start for rows, _, _ in blocks]
    rng = np.random.default_rng(47)
    for rest in (0, 1, 40, 80, 126):
        bulk = rng.normal(size=(g.n_s, d.n_bulk))
        bulk[rest + 1:] = bulk[rest]
        phi = HistoryField(g, bulk, d.boundary_index, rest)
        plain = _without_tail(phi)
        u_prev, u_new = (d.field_from_bulk(rng.normal(size=d.n_bulk))
                         for _ in range(2))
        advance_history(phi, u_new, dt, u_prev=u_prev)
        advance_history(plain, u_new, dt, u_prev=u_prev)
        tail = k + int(np.searchsorted(lo, max(rest, 1)))
        assert phi.rest == min(tail, g.n_s - 1)
        assert np.all(lo[phi.rest - k:] >= max(rest, 1))
        assert _rel_gap(phi.bulk, plain.bulk) <= 1e-12
        if tail < g.n_s:
            assert np.array_equal(phi.bulk[tail:],
                                  np.broadcast_to(phi.bulk[tail],
                                                  phi.bulk[tail:].shape))
        # rows below the tail are the plain step's, bitwise, when the
        # tail starts on a block's first row
        if tail in starts:
            assert np.array_equal(phi.bulk[:tail], plain.bulk[:tail])


def test_folded_weights_carry_the_tail_mass(interval):
    g = build_history_grid(exponential_kernel(0.5, rate=3.0), 0.2, n_s=64)
    for rest in (0, 17, 40):
        w = memory._folded_weights(g, rest)
        assert w.size == rest + 1
        assert np.array_equal(w[:rest], g.weights[:rest])
        assert w[rest] == pytest.approx(g.weights[rest:].sum(), rel=1e-15)
    assert np.array_equal(memory._folded_weights(g, 63), g.weights)


# -- the inflow rows ----------------------------------------------------------


def _without_inflow(phi):
    """The same rows and tail, claiming no inflow rows."""
    return HistoryField(phi.grid, phi.bulk, phi.boundary_index, phi.rest)


def _with_ends(phi, ends):
    """A copy of ``phi`` whose inflow rows are those of the end values
    ``ends``, with the claim."""
    C = phi.inflow[0]
    out = phi.copy()
    np.matmul(C, ends, out=out.bulk[:C.shape[0]])
    out.inflow = (C, ends)
    return out


def _bench_cfg(d, eps, t_final):
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    return ProblemConfig(d, exponential_kernel(0.5, rate=3.0), nl, alpha=0.0,
                         beta=1.0, eps=eps, dt=0.0025, t_final=t_final,
                         record_stride=1, history={"n_s": 128})


@pytest.mark.parametrize("kind, n", [("interval", 1025), ("square", 33),
                                     ("square", 65)])
@pytest.mark.parametrize("eps", [0.2, 0.025])
def test_inflow_rows_in_closed_form_match_the_walked_rows(kind, n, eps):
    # 120 steps from smooth data: the rows with s <= dt are C @ ends
    # bitwise, the walks start above them, and their V1, pair and d/ds
    # energies from the Gram forms of the two end values agree with the
    # walked ones; so do those of degenerate end values put in the last
    # history's inflow rows, equal ends (a step of a steady state) and
    # e1 = 0 (the first step from rest), whose difference is 0 or e0
    d = build_domain(kind, n)
    cfg = _bench_cfg(d, eps, 0.3)
    y = lift(smooth_profile(d) * 0.5 + d.constant_field(0.3), cfg)
    w = np.concatenate([d.dx, d.dsigma])
    for step in range(1, 121):
        y = step_peps(y, cfg)
        if step % 20:
            continue
        C, ends = y.phi.inflow
        k = C.shape[0]
        assert np.array_equal(y.phi.bulk[:k], C @ ends)
        assert y.phi.rest >= k and memory._blocks(y.phi)[0].start == k
        histories = [y.phi]
        if step == 120:
            e0 = ends[0]
            histories += [_with_ends(y.phi, np.stack(pair)) for pair in
                          ((e0, e0), (e0, np.zeros_like(e0)))]
        for phi in histories:
            walked = _without_inflow(phi)
            for alpha, beta in ((0.0, 1.0), (0.7, 1.3)):
                # the rows above k are walked in both, in other blocks
                for a, b in ((memory._v1_rows(phi, d, alpha, beta),
                              memory._v1_rows(walked, d, alpha, beta)),
                             (memory._ds_rows(phi, d),
                              memory._ds_rows(walked, d))):
                    # measured: at most 6e-15, and 1.5e-14 for e1 = 0,
                    # whose walked d/ds row k - 1 differences two rows
                    # that agree to 2 digits
                    assert np.all(np.abs(a - b) <= 2e-14 * b)
                a = memory._pair_rows(phi, d, alpha, beta)
                b = memory._pair_rows(walked, d, alpha, beta)
                # the pair image cancels: each form rounds on the scale of the
                # image's terms |P| |x|, about 1e-6 of the image on interval
                # 1025, where the walked rows themselves stray up to 4.4e-12
                # from extended precision (measured: at most 0.15 ulp of
                # sqrt(row * terms), and 3e-13 relative on the squares)
                t = abs(d.bulk_operators(alpha, beta)[1]) @ np.abs(phi.bulk).T
                terms = w @ (t * t)
                assert np.all(np.abs(a - b) <= 1e-15 * np.sqrt(b * terms))
                if kind == "square":
                    assert np.all(np.abs(a - b) <= 1e-12 * b)


def test_the_inflow_claim_is_set_by_the_step_and_kept_by_copy_only(interval):
    cfg = _bench_cfg(interval, 0.2, 0.01)
    y = lift(smooth_profile(interval), cfg)
    assert y.phi.inflow is None
    for _ in range(2):
        u_prev = y.u
        y = step_peps(y, cfg)
        C, ends = y.phi.inflow
        # each step claims its own end values
        assert np.array_equal(ends, np.stack([y.u.bulk, u_prev.bulk]))
        assert C is memory._pullback(y.phi.grid, cfg.dt,
                                     interval.n_bulk)[2]
    phi = y.phi
    assert phi.copy().inflow is phi.inflow
    assert (phi - phi.copy()).inflow is None
    g = phi.grid
    assert zero_history(g, interval).inflow is None
    assert history_from_profile(g, interval, lambda s: s,
                                smooth_profile(interval)).inflow is None


def _parent_walks(phi, d, alpha, beta):
    """The V1, pair and d/ds rows walked over every row up to ``rest``, in
    the blocks and by the products of the walks without the inflow rule,
    kept as their reference."""
    n_s, n_bulk = phi.bulk.shape
    stop = phi.rest + 1
    step = max(1, memory._BLOCK_BYTES
               // (8 * (n_bulk + phi.boundary_index.size)))
    blocks = [slice(a, min(a + step, stop)) for a in range(0, stop, step)]
    _, pair = d.bulk_operators(alpha, beta)
    w = np.concatenate([d.dx, d.dsigma])
    h2 = np.diff(phi.grid.s_nodes, prepend=0.0) ** 2
    mass = d.mass_diag()
    v1, p2, ds = np.empty(n_s), np.empty(n_s), np.zeros(n_s)
    # the s-differences anchored at the zero inflow value
    below = np.concatenate([np.zeros((1, n_bulk)), phi.bulk[:-1]])
    for r in blocks:
        x = phi.bulk[r]
        v1[r] = d.v1_products(x, alpha, beta)
        p = pair @ x.T.copy()
        p *= p
        p2[r] = w @ p
        diff = x - below[r]
        diff *= diff
        ds[r] = (diff @ mass) / h2[r]
    v1[stop:] = v1[phi.rest]
    p2[stop:] = p2[phi.rest]
    return v1, p2, ds


def test_a_history_without_the_inflow_claim_walks_every_row_as_before(
        monkeypatch):
    # a run's history with the claim dropped, inside and after the flat
    # tail, and with blocks smaller than the inflow rows: bitwise the walks
    # over rows 0 to rest
    d = build_domain("square", 33)
    cfg = _bench_cfg(d, 0.2, 0.2)
    y = lift(smooth_profile(d), cfg)
    histories = []
    for step in range(1, 71):
        y = step_peps(y, cfg)
        if step in (1, 20, 70):
            histories.append(_without_inflow(y.phi.copy()))
    assert [phi.rest for phi in histories] == [36, 80, 127]
    for block_bytes in (memory._BLOCK_BYTES, 40_000):
        monkeypatch.setattr(memory, "_BLOCK_BYTES", block_bytes)
        for phi in histories:
            assert memory._blocks(phi)[0].start == 0
            walks = (memory._v1_rows(phi, d, 0.7, 1.3),
                     memory._pair_rows(phi, d, 0.7, 1.3),
                     memory._ds_rows(phi, d))
            for a, b in zip(walks, _parent_walks(phi, d, 0.7, 1.3)):
                assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.5, max_value=4.0))
def test_rescaled_mass_identity(eps, rate):
    k = exponential_kernel(0.5, rate=rate)
    assert k.mass(eps) * eps == pytest.approx(k.mass(), rel=1e-12)
