"""Tests of the benchmark itself, on tiny configs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import DT, WORKLOADS, Workload  # noqa: E402

memheat = bench.import_memheat()

TINY_RUN = Workload("tiny-run", "interval", 17, eps=0.2, steps=20,
                    record_stride=5, initial="constant", checkpoint_step=10)
TINY_SWEEP = Workload("tiny-sweep", "interval", 17, eps=0.2, steps=200,
                      record_stride=4, initial="constant",
                      sweep_eps=(0.2, 0.1))


def _run(wl, tmp_path, traced, seed=3):
    cfg = tmp_path / f"{wl.name}.json"
    cfg.write_text(json.dumps(wl.config(seed)))
    out = tmp_path / f"{wl.name}-{'traced' if traced else 'plain'}"
    tracer = Tracer()
    res = (bench.run_traced(memheat, wl, cfg, out, tracer) if traced
           else bench.run_once(memheat.cli, wl, cfg, out))
    return res, out, tracer.spans


@pytest.mark.parametrize("wl", [TINY_RUN, TINY_SWEEP], ids=lambda w: w.name)
def test_traced_counts_equal_what_the_config_implies(wl, tmp_path):
    res, _, spans = _run(wl, tmp_path, traced=True)
    assert res["code"] in (0, 1)
    m = bench.layer_metrics(spans)
    n_eps = len(wl.sweep_eps) if wl.is_sweep else 1
    assert m["solver.steps"] == wl.steps_per_run
    assert m["memory.transport_calls"] == n_eps * wl.steps
    assert m["domain.solve_calls"] == wl.steps_per_run
    assert m["solver.samples"] == wl.samples_per_run
    # memory problem and, for the sweep, the limit problem: one key each
    assert m["domain.factorizations"] == (2 if wl.is_sweep else 1)
    assert m["memory.grid_calls"] == 1 + (n_eps if wl.is_sweep else 0)
    assert (m["cli.checkpoint_bytes"] > 0) == (wl.checkpoint_step is not None)
    if wl.is_sweep:
        peps = Counter(s.info for s in spans if s.name == "solver.step_peps")
        assert peps == {eps: wl.steps for eps in wl.sweep_eps}
        transport = Counter(spans[s.parent].info for s in spans
                            if s.name == "memory.advance_history")
        assert transport == {eps: wl.steps for eps in wl.sweep_eps}
    assert sum(m[f"{layer}.self_share"] for layer in LAYERS) == \
        pytest.approx(1.0)


@pytest.mark.parametrize("wl", [TINY_RUN, TINY_SWEEP], ids=lambda w: w.name)
def test_tracing_leaves_outputs_byte_identical(wl, tmp_path):
    plain, out_plain, _ = _run(wl, tmp_path, traced=False)
    traced, out_traced, _ = _run(wl, tmp_path, traced=True)
    assert plain["code"] == traced["code"]
    for name in bench.output_files(wl):
        assert (out_plain / name).read_bytes() == (out_traced / name).read_bytes()


def test_tracer_rebinds_callers_only_and_restores_them():
    solver, memory, cli = memheat.solver, memheat.memory, memheat.cli
    original, step = memory.advance_history, solver.step_peps
    tracer = Tracer()
    tracer.install(memheat)
    try:
        assert solver.advance_history is not original
        assert cli.evolve.__wrapped__ is solver.evolve
        assert solver.step_peps is memheat.experiments.step_peps
        assert solver.step_peps.__wrapped__ is step
        assert memory.advance_history is original
        assert memory.memory_norm_sq.__module__ == "memheat.memory"
        assert not hasattr(memory.memory_norm_sq, "__wrapped__")
    finally:
        tracer.uninstall()
    assert solver.advance_history is original
    assert cli.evolve is solver.evolve
    assert solver.step_peps is step


def test_seed_moves_only_the_initial_data_inside_the_dt_budget():
    from memheat.physics import lipschitz_bound, make_nonlinearity
    for wl in WORKLOADS.values():
        base = wl.config(0)
        nl = make_nonlinearity(base["nonlinearity"]["f"],
                               base["nonlinearity"]["g"])
        inits = set()
        for seed in range(200):
            cfg = wl.config(seed)
            assert cfg == wl.config(seed)
            assert {k: v for k, v in cfg.items() if k != "initial"} == \
                {k: v for k, v in base.items() if k != "initial"}
            init = cfg["initial"]
            inits.add(json.dumps(init, sort_keys=True))
            # smooth_profile is bounded by 1.5 in absolute value
            amp = init.get("value") or abs(init["offset"]) + 1.5 * init["amplitude"]
            lip = lipschitz_bound(nl, base["kernel"]["omega"], base["beta"],
                                  1.5 * amp + 0.5)
            assert DT <= 0.5 / lip
        assert len(inits) > 150


def test_checks_flag_bad_outputs(tmp_path):
    res, out, _ = _run(TINY_RUN, tmp_path, traced=False)
    problems, digests = bench.check_outputs(TINY_RUN, out, res["code"], None)
    assert problems == [] and set(digests) == set(bench.output_files(TINY_RUN))
    assert bench.check_outputs(TINY_RUN, out, 2, None)[0]

    values = bench.read_csv(out / "trajectory.csv")
    ref = {"code": 0, "values": values}
    assert bench.check_outputs(TINY_RUN, out, 0, ref)[0] == []
    off = dict(values, energy_h0=[v * (1 + 1e-4) for v in values["energy_h0"]])
    assert bench.check_outputs(TINY_RUN, out, 0, {"code": 0, "values": off})[0]
    assert bench.check_outputs(TINY_RUN, out, 0, {"code": 1, "values": values})[0]

    path = out / "trajectory.csv"
    lines = path.read_text().splitlines()
    lines[-1] = ",".join(["nan"] * len(lines[-1].split(",")))
    path.write_text("\n".join(lines) + "\n")
    assert any("non-finite" in p
               for p in bench.check_outputs(TINY_RUN, out, 0, None)[0])


def test_run_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "square65-dense-record", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stored_references_cover_every_workload():
    refs = json.loads(bench.REFERENCE_FILE.read_text())
    assert set(refs) == set(WORKLOADS)
    for name, wl in WORKLOADS.items():
        for seed, ref in refs[name].items():
            assert ref["initial"] == wl.initial_data(int(seed))
            assert ref["code"] in ((0, 1) if wl.is_sweep else (0,))


def test_benchmark_json_lists_what_the_runs_print(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    _, _, spans = _run(TINY_RUN, tmp_path, traced=True)
    printed = list(bench.layer_metrics(spans)) + ["trace.overhead"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {n: bench.per_layer_units(n) for n in printed}


def test_end_to_end_times_scale_with_the_machine_speed_probe():
    from speed import REFERENCE_S
    wl = WORKLOADS["square65-dense-record"]
    rep = {"run_s": 2.0, "compute_s": 1.6, "setup_s": 0.4}
    plain = [dict(rep, probe_s=REFERENCE_S)]
    at_reference = bench.end_to_end_metrics(wl, plain, [REFERENCE_S], 100.0)
    assert at_reference["run_s"]["value"] == pytest.approx(2.0)
    assert at_reference["steps_per_s"]["value"] == pytest.approx(40 / 1.6)
    # one disturbed repeat among four does not move the lower quartile
    disturbed = plain * 3 + [dict(rep, run_s=3.0, compute_s=2.6,
                                  probe_s=REFERENCE_S)]
    assert bench.end_to_end_metrics(wl, disturbed, [REFERENCE_S], 100.0) \
        == at_reference
    # the same wall times on a machine running at half speed
    plain = [dict(rep, probe_s=2 * REFERENCE_S)]
    slow = bench.end_to_end_metrics(wl, plain, [2 * REFERENCE_S] * 3, 100.0)
    assert slow["run_s"]["value"] == pytest.approx(1.0)
    assert slow["setup_s"]["value"] == pytest.approx(0.2)
    assert slow["steps_per_s"]["value"] == pytest.approx(2 * 40 / 1.6)
    assert slow["peak_rss_mb"]["value"] == 100.0
