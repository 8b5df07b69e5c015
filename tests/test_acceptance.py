"""Acceptance suite: one test per verified estimate, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. Every configuration below is frozen; the asserted margins
were measured once and hold deterministically.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from memheat.cli import main
from memheat.domain import (StateField, apply_wentzell, build_domain,
                            inner_x2, norm_v1_sq, norm_x2_sq,
                            solve_wentzell_shifted)
from memheat.memory import (advance_history, build_history_grid,
                            exponential_kernel, history_oracle, zero_history)
from memheat.physics import make_nonlinearity
from memheat.solver import (ProblemConfig, evolve_compact_split,
                            evolve_contraction_pair, lift)
from memheat.experiments import (energy_decay_experiment,
                                 gronwall_random_suite, holder_pair_gap,
                                 holder_sweep, phi_decay_experiment,
                                 robustness_sweep, smooth_profile,
                                 transitivity_chain_check,
                                 transitivity_combine)

KERNEL_SLOW = exponential_kernel(0.5, rate=1.0)
KERNEL_FAST = exponential_kernel(0.5, rate=3.0)
NL_ODD = make_nonlinearity([0.0, -1.0, 0.0, 1.0], [0.0, -1.0, 0.0, 1.0])
NL_SHIFTED = make_nonlinearity([-0.125, 0.0, 0.0, 1.0],
                               [-0.375, 0.0, 0.0, 1.0])
NL_CUBIC = make_nonlinearity([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])


def _transport_end_error(d, grid, path, dt, n_steps):
    phi = zero_history(grid, d)
    for i in range(n_steps):
        phi = advance_history(phi, path[i + 1], dt, u_prev=path[i])
    times = np.arange(n_steps + 1) * dt
    ora = history_oracle(times, path, grid, d, times[-1])
    return max(float(np.max(np.abs(phi.bulk - ora.bulk))),
               float(np.max(np.abs(phi.boundary - ora.boundary))))


def test_criterion_01_memory_transport_matches_oracle():
    d = build_domain("interval", 65)
    eps = 0.5

    # step-aligned uniform grid: the pullback is an exact node shift, so
    # iterated transport reproduces the representation formula to roundoff
    gu = build_history_grid(KERNEL_SLOW, eps, n_s=128, spacing="uniform",
                            s_max=15.0)
    dt = float(gu.s_nodes[1] - gu.s_nodes[0])
    for seed in range(5):
        rng = np.random.default_rng(seed)
        path = [d.field_from_bulk(rng.normal(size=d.n_bulk))
                for _ in range(41)]
        err = _transport_end_error(d, gu, path, dt, 40)
        assert err <= 1e-12, f"uniform path {seed}: err={err:.3e}"

    # graded grid: first-order convergence when the age grid and the time
    # step are halved together, on paths that start from rest
    x = d.x_bulk[:, 0]
    shapes = [d.constant_field(1.0),
              smooth_profile(d),
              d.field_from_bulk(np.cos(np.pi * x)),
              d.field_from_bulk(x * (1 - x) + 0.3),
              d.field_from_bulk(np.sin(3 * np.pi * x) + 0.5)]
    profiles = [lambda t: t,
                lambda t: t * t,
                lambda t: math.sin(t),
                lambda t: t * math.exp(-t),
                lambda t: 1.0 - math.cos(t)]
    g_coarse = build_history_grid(KERNEL_SLOW, eps, n_s=128)
    g_fine = build_history_grid(KERNEL_SLOW, eps, n_s=256)
    for j, (shape, prof) in enumerate(zip(shapes, profiles)):
        path_c = [shape * prof(i * 0.01) for i in range(41)]
        path_f = [shape * prof(i * 0.005) for i in range(81)]
        e1 = _transport_end_error(d, g_coarse, path_c, 0.01, 40)
        e2 = _transport_end_error(d, g_fine, path_f, 0.005, 80)
        ratio = e1 / e2
        assert 1.7 <= ratio <= 2.3, f"graded path {j}: ratio={ratio:.3f}"


def test_criterion_02_coupled_operator_structure_and_convergence():
    d = build_domain("interval", 65)
    rng = np.random.default_rng(20260814)
    a, b = 0.7, 1.3
    for _ in range(100):
        u = d.field_from_bulk(rng.normal(size=d.n_bulk))
        w = d.field_from_bulk(rng.normal(size=d.n_bulk))
        au = apply_wentzell(u, d, a, b)
        aw = apply_wentzell(w, d, a, b)
        s1, s2 = inner_x2(au, w, d), inner_x2(u, aw, d)
        assert abs(s1 - s2) <= 1e-10 * max(abs(s1), abs(s2), 1e-30)
        quad = inner_x2(au, u, d)
        assert quad >= -1e-12 * norm_x2_sq(u, d)
        v1 = norm_v1_sq(u, d, a, b)
        assert abs(quad - v1) <= 1e-8 * max(v1, 1e-30)

    def mms_error(n):
        dd = build_domain("interval", n)
        xx = dd.x_bulk[:, 0]
        ub = np.sin(np.pi * xx / 2) + xx**3
        du = (np.pi / 2) * np.cos(np.pi * xx / 2) + 3 * xx**2
        neg_lap = (np.pi / 2) ** 2 * np.sin(np.pi * xx / 2) - 6 * xx
        rhs = StateField(ub + neg_lap + a * ub,
                         ub[[0, -1]] + np.array([-du[0], du[-1]])
                         + b * ub[[0, -1]])
        sol = solve_wentzell_shifted(1.0, 1.0, rhs, dd, a, b)
        return float(np.max(np.abs(sol.bulk - ub)))

    ns = (33, 65, 129, 257)
    errs = [mms_error(n) for n in ns]
    hs = [1.0 / (n - 1) for n in ns]
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert abs(order - 2.0) <= 0.2, f"manufactured-solution order {order:.3f}"


def test_criterion_03_energy_decays_into_the_absorbing_ball():
    d = build_domain("interval", 65)
    for eps in (1.0, 0.1):
        cfg = ProblemConfig(d, KERNEL_SLOW, NL_ODD, alpha=0.0, beta=0.1,
                            eps=eps, dt=0.0016, t_final=8.0,
                            record_stride=25)
        rep = energy_decay_experiment(cfg, radius=10.0)
        assert rep.violations == 0, (
            f"eps={eps}: {rep.violations} samples above the decay bound "
            f"(max excess {rep.max_excess:.3e})")
        assert rep.t_absorb <= rep.t0, (
            f"eps={eps}: entered the absorbing level at {rep.t_absorb:.3f}, "
            f"budget {rep.t0:.3f}")
        assert rep.passed


def test_criterion_04_history_norm_scales_and_decays_with_eps():
    d = build_domain("interval", 65)
    cfg = ProblemConfig(d, KERNEL_FAST, NL_SHIFTED, alpha=0.0, beta=1.0,
                        eps=0.4, dt=0.005, t_final=2.0, record_stride=8)
    rep = phi_decay_experiment(cfg, [0.4, 0.2, 0.1, 0.05])
    assert rep.spread <= 2.0, f"residual constants spread {rep.spread:.3f}"
    assert np.all(rep.early_rates >= rep.early_targets), (
        f"rates {rep.early_rates} vs targets {rep.early_targets}")
    assert rep.passed


def test_criterion_05_vanishing_memory_gap_obeys_sqrt_envelope():
    d = build_domain("interval", 65)
    cfg = ProblemConfig(d, KERNEL_FAST, NL_SHIFTED, alpha=0.0, beta=1.0,
                        eps=0.2, dt=0.0025, t_final=1.0, record_stride=4)
    sw = robustness_sweep(cfg, [0.2, 0.1, 0.05, 0.025],
                          d.constant_field(0.5))
    assert sw.slope >= 0.45, f"log-log slope {sw.slope:.4f}"
    assert sw.monotone, f"errors not monotone: {sw.errors}"
    # calibrate the envelope constant on the largest horizon alone
    c_top = sw.errors[0] / math.sqrt(sw.eps[0])
    assert np.all(sw.errors <= c_top * np.sqrt(sw.eps) * (1 + 1e-12)), (
        f"errors {sw.errors} break the {c_top:.4f} sqrt envelope")
    assert sw.bound_ok


def test_criterion_06_gap_between_nearby_horizons_is_hoelder():
    d = build_domain("interval", 65)
    cfg = ProblemConfig(d, KERNEL_FAST, NL_SHIFTED, alpha=0.0, beta=1.0,
                        eps=0.2, dt=0.0025, t_final=1.0, record_stride=4)
    prof = smooth_profile(d) + d.constant_field(0.25)
    amp = max(float(np.abs(prof.bulk).max()),
              float(np.abs(prof.boundary).max()))
    u0 = d.constant_field(0.5) + prof * (0.5 / amp)
    pairs = [(0.4, 0.1), (0.2, 0.1), (0.14, 0.1), (0.1125, 0.1)]
    rep = holder_sweep(cfg, pairs, u0, t_star=0.5)
    assert 0.4 <= rep.exponent <= 0.7, f"fit exponent {rep.exponent:.4f}"
    assert rep.monotone and rep.bound_ok
    same = holder_pair_gap(cfg, 0.1, 0.1, u0, t_star=0.5,
                           s_max=30.0 * 0.4 / KERNEL_FAST.delta)
    assert same <= 1e-8, f"identical-horizon gap {same:.3e}"


def test_criterion_07_difference_system_contracts_at_the_stated_rate():
    d = build_domain("interval", 65)
    cfg = ProblemConfig(d, KERNEL_SLOW, NL_CUBIC, alpha=1.0, beta=1.0,
                        eps=1.0, dt=0.02, t_final=6.0, record_stride=5)
    y0 = lift(smooth_profile(d) * 0.7 + d.constant_field(0.4), cfg)
    z0 = lift(d.constant_field(-0.2), cfg)
    rec = evolve_contraction_pair(y0, z0, cfg)
    m2 = min(2.0 * cfg.omega, KERNEL_SLOW.delta)
    target = 0.8 * m2 / 2.0
    assert rec.monotone, "difference energy is not monotone"
    assert rec.fitted_rate >= target, (
        f"fitted rate {rec.fitted_rate:.4f} below target {target:.4f}")
    twin = evolve_contraction_pair(y0, y0.copy(), cfg)
    assert twin.zero_gap and np.all(twin.gap_sq == 0.0)


def test_criterion_08_two_part_splitting_decays_and_stays_bounded():
    d = build_domain("interval", 65)
    cfg = ProblemConfig(d, KERNEL_SLOW, NL_CUBIC, alpha=1.0, beta=1.0,
                        eps=0.5, dt=0.0125, t_final=20.0, record_stride=20)
    sp = evolve_compact_split(lift(smooth_profile(d) * 0.8, cfg), cfg)
    assert sp.sum_mismatch <= 1e-8, (
        f"parts drift from the direct run by {sp.sum_mismatch:.3e}")
    assert sp.z_rate > 0.0, f"decaying part rate {sp.z_rate:.4f}"
    assert np.all(np.isfinite(sp.k_strong_sq))
    half = sp.times <= 10.0
    k_early = float(sp.k_strong_sq[half].max())
    k_late = float(sp.k_strong_sq[~half].max())
    assert k_late <= 1.1 * k_early, (
        f"strong norm grows: early {k_early:.4f}, late {k_late:.4f}")


def test_criterion_09_integral_inequality_suite_has_zero_violations():
    counts = gronwall_random_suite(200, seed=20260814)
    assert counts["fail"] == 0, counts
    assert counts["inconclusive"] == 0, counts
    assert counts["pass"] == 200


def test_criterion_10_attraction_rates_combine_exactly():
    assert transitivity_combine(1.0, 0.0, 1.0, 1.0, 1.0, 1.0) == (2.0, 0.5)
    rep = transitivity_chain_check(1.3, 0.8, 2.0, 1.1, 0.7, 2.3)
    assert rep.passed, (
        f"chained bound exceeds the envelope by {rep.max_violation:.3e}")
    assert rep.max_violation <= 1e-9 * (rep.c_combined + 1.0)


def test_criterion_11_runs_resume_and_repeat_bitwise(tmp_path):
    cfg = {
        "experiment": "trajectory",
        "domain": {"kind": "interval", "n": 65},
        "kernel": {"omega": 0.5, "rate": 3.0},
        "nonlinearity": {"f": [-0.125, 0.0, 0.0, 1.0],
                         "g": [-0.375, 0.0, 0.0, 1.0]},
        "alpha": 0.0, "beta": 1.0, "eps": 0.2,
        "dt": 0.0025, "t_final": 0.2, "record_stride": 4,
        "checkpoint_step": 40,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    direct, resumed, again = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["run", "--config", str(path), "--out", str(direct)]) == 0
    # the seam lies inside the tail phase: the history still holds a flat
    # tail, stored up to its start, which the resume must continue from
    header = json.loads((direct / "checkpoint.bin").read_bytes()
                        .split(b"\n", 1)[0])
    assert 1 < dict(header["arrays"])["phi_bulk"][0] < 128
    assert main(["resume", "--checkpoint", str(direct / "checkpoint.bin"),
                 "--out", str(resumed)]) == 0
    for name in ("trajectory.csv", "summary.json"):
        assert (direct / name).read_bytes() == (resumed / name).read_bytes(), (
            f"{name} differs between the direct and resumed run")

    assert main(["run", "--config", str(path), "--out", str(again)]) == 0
    for name in ("trajectory.csv", "summary.json", "checkpoint.bin"):
        assert (direct / name).read_bytes() == (again / name).read_bytes(), (
            f"{name} differs between repeated runs")
