"""Time stepping: validation, determinism, steady states, and the splittings."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from memheat import memory, solver
from memheat.domain import build_domain, norm_x2_sq
from memheat.memory import exponential_kernel, history_from_profile
from memheat.physics import make_nonlinearity
from memheat.solver import (
    ProblemConfig,
    SystemState,
    _trajectory_row,
    evolve,
    evolve_compact_split,
    evolve_contraction_pair,
    lift,
    march,
    step_p0,
    step_peps,
)
from memheat.experiments import smooth_profile

KERNEL = exponential_kernel(0.5, rate=1.0)
CUBIC = make_nonlinearity([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])


def _memory_cfg(d, **kw):
    args = dict(alpha=0.0, beta=1.0, eps=0.5, dt=0.02, t_final=0.2,
                record_stride=1)
    args.update(kw)
    return ProblemConfig(d, KERNEL, CUBIC, **args)


def test_config_validation(interval):
    with pytest.raises(ValueError, match="resolution budget"):
        ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0, eps=0.1,
                      dt=0.02, t_final=1.0)
    with pytest.raises(ValueError):
        ProblemConfig(interval, KERNEL, CUBIC, alpha=-1.0, beta=1.0, eps=0.0,
                      dt=0.01, t_final=1.0)
    with pytest.raises(ValueError):
        ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0, eps=1.5,
                      dt=0.01, t_final=1.0)
    with pytest.raises(ValueError):
        ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0, eps=0.0,
                      dt=0.01, t_final=1.0, record_stride=0)


def test_problem_builds_its_grid_from_its_history(interval):
    cfg = _memory_cfg(interval)
    assert cfg.grid is not None
    assert cfg.grid.eps == 0.5 and cfg.grid.n_s == 128
    assert cfg.grid is cfg.grid
    assert cfg.omega == KERNEL.omega
    limit = ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=0.2)
    assert limit.grid is None


def test_a_replaced_problem_builds_no_grid_until_asked(interval, monkeypatch):
    build, built = solver.build_history_grid, []

    def counting(kernel, eps, **history):
        built.append(eps)
        return build(kernel, eps, **history)

    monkeypatch.setattr(solver, "build_history_grid", counting)
    cfg = _memory_cfg(interval, t_final=0.2)
    head = dataclasses.replace(cfg, t_final=0.1)
    assert built == []
    assert cfg.grid is cfg.grid and built == [0.5]
    # the copy's run steps on the history it is given and builds none
    rec = evolve(lift(smooth_profile(interval) * 0.2, cfg), head)
    assert rec.final_state.phi.grid is cfg.grid and built == [0.5]
    assert head.grid is not cfg.grid and built == [0.5, 0.5]


def test_a_limit_problem_keeps_its_history_recipe_at_any_eps(interval):
    limit = ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=0.2, history={"n_s": 64})
    assert limit.grid is None
    run = dataclasses.replace(limit, eps=0.5)
    assert run.grid.n_s == 64 and run.grid.eps == 0.5
    y = step_peps(lift(smooth_profile(interval) * 0.2, run), run)
    assert y.phi.bulk.shape == (64, interval.n_bulk)


def test_lift_and_project_roundtrip(interval):
    cfg = _memory_cfg(interval)
    u0 = smooth_profile(interval)
    y = lift(u0, cfg)
    assert y.step == 0
    assert y.phi is not None
    assert np.all(y.phi.bulk == 0.0)
    back = y.u.copy()
    assert np.array_equal(back.bulk, u0.bulk)
    back.bulk[:] = 99.0
    assert not np.array_equal(y.u.bulk, back.bulk)
    limit = ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=0.2)
    assert lift(u0, limit).phi is None


def test_steppers_enforce_their_regime(interval):
    cfg = _memory_cfg(interval)
    limit = ProblemConfig(interval, KERNEL, CUBIC, alpha=0.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=0.2)
    with pytest.raises(ValueError):
        step_peps(lift(interval.zero_field(), limit), limit)
    y = lift(interval.zero_field(), cfg)
    out = step_peps(y, cfg)
    assert out.step == 1


def test_evolve_time_grid_contract(interval):
    cfg = _memory_cfg(interval, dt=0.02, t_final=0.2, record_stride=4)
    rec = evolve(lift(smooth_profile(interval) * 0.2, cfg), cfg)
    # 10 steps, stride 4: records at steps 0, 4, 8 and the final step 10
    assert rec.times.tolist() == [k * cfg.dt for k in (0, 4, 8, 10)]
    assert rec.final_state.step == 10
    late = SystemState(rec.final_state.u, rec.final_state.phi, 11)
    with pytest.raises(ValueError, match="already past t_final"):
        evolve(late, cfg)
    bad = _memory_cfg(interval, dt=0.02, t_final=0.21)
    with pytest.raises(ValueError, match="integer multiple"):
        evolve(lift(interval.zero_field(), bad), bad)


def test_evolve_rejects_oversized_step_for_large_data(interval):
    cfg = _memory_cfg(interval, dt=0.05, eps=1.0, t_final=0.5)
    with pytest.raises(ValueError, match="stability budget"):
        evolve(lift(interval.constant_field(20.0), cfg), cfg)


def test_evolve_is_bitwise_deterministic(interval):
    cfg = _memory_cfg(interval, t_final=0.1)
    u0 = smooth_profile(interval) * 0.3
    r1 = evolve(lift(u0, cfg), cfg)
    r2 = evolve(lift(u0, cfg), cfg)
    assert r1.energy_h0.tobytes() == r2.energy_h0.tobytes()
    assert r1.final_state.u.bulk.tobytes() == r2.final_state.u.bulk.tobytes()
    assert r1.final_state.phi.bulk.tobytes() == r2.final_state.phi.bulk.tobytes()


def test_evolve_leaves_its_start_state_untouched(interval):
    # a step consumes its state's history; evolve steps a copy
    cfg = _memory_cfg(interval, t_final=0.1)
    y0 = SystemState(smooth_profile(interval) * 0.3,
                     history_from_profile(cfg.grid, interval,
                                          lambda s: np.minimum(s, 0.2),
                                          smooth_profile(interval)), 0)
    before = y0.copy()
    rec = evolve(y0, cfg)
    assert rec.final_state.phi is not y0.phi
    assert y0.step == before.step
    for a, b in ((y0.u.bulk, before.u.bulk), (y0.u.boundary, before.u.boundary),
                 (y0.phi.bulk, before.phi.bulk)):
        assert a.tobytes() == b.tobytes()


def test_step_peps_consumes_its_states_history(interval):
    cfg = _memory_cfg(interval)
    y = lift(smooth_profile(interval) * 0.3, cfg)
    phi = y.phi
    assert step_peps(y, cfg).phi is phi


def test_split_run_matches_direct_run_bitwise(interval):
    # integrate 4 steps, stop, continue 6 more: all arrays bitwise equal to
    # the uninterrupted run (this is what checkpoint resume relies on)
    import dataclasses
    cfg = _memory_cfg(interval, dt=0.02, t_final=0.2)
    u0 = smooth_profile(interval) * 0.3
    direct = evolve(lift(u0, cfg), cfg)
    part = dataclasses.replace(cfg, t_final=4 * cfg.dt)
    r1 = evolve(lift(u0, cfg), part)
    r2 = evolve(r1.final_state, cfg)
    assert r2.final_state.u.bulk.tobytes() == direct.final_state.u.bulk.tobytes()
    assert r2.final_state.phi.bulk.tobytes() == direct.final_state.phi.bulk.tobytes()
    # the continuation re-records its start state; past that the rows agree
    assert np.array_equal(np.concatenate([r1.times, r2.times[1:]]),
                          direct.times)
    assert np.concatenate([r1.energy_h0, r2.energy_h0[1:]]).tobytes() == \
        direct.energy_h0.tobytes()


def test_constant_equilibrium_is_steady_for_the_limit_problem(interval):
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    cfg = ProblemConfig(interval, KERNEL, nl, alpha=0.0, beta=1.0, eps=0.0,
                        dt=0.01, t_final=1.0)
    y = lift(interval.constant_field(0.5), cfg)
    for _ in range(100):
        y = step_p0(y, cfg)
    drift = max(np.max(np.abs(y.u.bulk - 0.5)),
                np.max(np.abs(y.u.boundary - 0.5)))
    assert drift < 1e-12


def test_constant_equilibrium_is_steady_for_the_memory_problem(interval):
    # the matching history of a constant past is the linear ramp m * s;
    # the residual drift is set by the 1e-6 grid truncation, not the scheme
    nl = make_nonlinearity([-0.125, 0.0, 0.0, 1.0], [-0.375, 0.0, 0.0, 1.0])
    cfg = ProblemConfig(interval, KERNEL, nl, alpha=0.0, beta=1.0, eps=0.5,
                        dt=0.01, t_final=1.0)
    phi0 = history_from_profile(cfg.grid, interval, lambda s: s,
                                interval.constant_field(0.5))
    y = SystemState(interval.constant_field(0.5), phi0, 0)
    for _ in range(100):
        y = step_peps(y, cfg)
    drift = max(np.max(np.abs(y.u.bulk - 0.5)),
                np.max(np.abs(y.u.boundary - 0.5)))
    assert drift < 1e-4


def test_contraction_pair_identical_states_stay_identical(interval):
    cfg = _memory_cfg(interval, dt=0.02, t_final=0.2, record_stride=2)
    y0 = lift(smooth_profile(interval) * 0.5, cfg)
    rec = evolve_contraction_pair(y0, y0.copy(), cfg)
    assert rec.zero_gap
    assert rec.fitted_rate == 0.0
    assert np.all(rec.gap_sq == 0.0)


def test_contraction_pair_gap_decays_monotonically(interval):
    cfg = _memory_cfg(interval, alpha=1.0, dt=0.02, t_final=1.0,
                      record_stride=5)
    y0 = lift(smooth_profile(interval) * 0.5, cfg)
    z0 = lift(interval.constant_field(0.2), cfg)
    rec = evolve_contraction_pair(y0, z0, cfg)
    assert rec.monotone
    assert rec.fitted_rate > 0.0
    assert rec.gap_sq[-1] < rec.gap_sq[0]
    # the limit problem contracts as well
    limit = ProblemConfig(interval, KERNEL, CUBIC, alpha=1.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=1.0, record_stride=5)
    rec0 = evolve_contraction_pair(lift(y0.u.copy(), limit),
                                   lift(z0.u.copy(), limit), limit)
    assert rec0.monotone and rec0.fitted_rate > 0.0


def test_compact_split_reconstructs_the_trajectory(interval):
    cfg = _memory_cfg(interval, alpha=1.0, dt=0.02, t_final=1.0,
                      record_stride=5)
    sp = evolve_compact_split(lift(smooth_profile(interval) * 0.5, cfg), cfg)
    assert sp.sum_mismatch < 1e-8
    assert sp.z_rate > 0.0
    assert np.all(np.isfinite(sp.k_strong_sq))
    limit = ProblemConfig(interval, KERNEL, CUBIC, alpha=1.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=1.0)
    with pytest.raises(ValueError):
        evolve_compact_split(lift(interval.zero_field(), limit), limit)


# -- the one time-stepping schedule -------------------------------------------


def _schedule(start, stop, stride):
    final, seen = march(start, lambda k: k + 1, start, stop, stride,
                        lambda state, k: (state, k))
    assert final == stop
    assert all(state == k for state, k in seen)
    return [k for _, k in seen]


def test_march_observes_start_stride_multiples_and_final():
    assert _schedule(0, 10, 3) == [0, 3, 6, 9, 10]
    assert _schedule(0, 9, 3) == [0, 3, 6, 9]
    assert _schedule(4, 4, 3) == [4]


def test_march_split_at_a_stride_multiple_adds_one_seam():
    direct = _schedule(0, 10, 3)
    head, tail = _schedule(0, 6, 3), _schedule(6, 10, 3)
    assert head[-1] == tail[0] == 6
    assert head + tail[1:] == direct


def test_limit_contraction_pair_is_the_difference_of_two_runs(interval):
    # f = g = 0 makes the limit problem linear, so the pair's gap is the
    # squared distance between two direct runs
    zero = make_nonlinearity([0.0], [0.0])
    limit = ProblemConfig(interval, KERNEL, zero, alpha=1.0, beta=1.0,
                          eps=0.0, dt=0.02, t_final=1.0, record_stride=5)
    y0 = lift(smooth_profile(interval) * 0.5, limit)
    z0 = lift(interval.constant_field(0.2), limit)
    rec = evolve_contraction_pair(y0, z0, limit)
    gap = (evolve(y0, limit).final_state.u
           - evolve(z0, limit).final_state.u)
    assert rec.gap_sq[-1] == pytest.approx(norm_x2_sq(gap, interval),
                                           rel=1e-12)


def test_one_recorded_sample_builds_each_history_row_set_once(interval,
                                                              monkeypatch):
    calls = Counter()
    for name in ("_v1_rows", "_pair_rows", "_ds_rows"):
        def counted(*args, _fn=getattr(memory, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(memory, name, counted)
    cfg = _memory_cfg(interval, alpha=0.5)
    y = lift(smooth_profile(interval), cfg)
    y = step_peps(y, cfg)
    _trajectory_row(cfg, y, y.step)
    assert calls == {"_v1_rows": 1, "_pair_rows": 1, "_ds_rows": 1}


def test_one_recorded_sample_on_a_multi_block_history_builds_each_row_set_once(
        monkeypatch):
    calls = Counter()
    for name in ("_v1_rows", "_pair_rows", "_ds_rows"):
        def counted(*args, _fn=getattr(memory, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(memory, name, counted)
    d = build_domain("square", 65)
    cfg = _memory_cfg(d, alpha=0.5)
    y = step_peps(lift(smooth_profile(d), cfg), cfg)
    assert len(memory._blocks(y.phi)) > 1
    _trajectory_row(cfg, y, y.step)
    _trajectory_row(cfg, y, y.step)
    assert calls == {"_v1_rows": 2, "_pair_rows": 2, "_ds_rows": 2}
