"""Command-line front end: config validation, artifacts, checkpoint safety."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memheat
from memheat import cli, solver
from memheat.cli import (
    _SCHEMA,
    checkpoint_load,
    checkpoint_save,
    config_hash,
    load_config,
    _sweep_eps,
    main,
)
from memheat.domain import build_domain
from memheat.experiments import smooth_profile
from memheat.memory import HistoryField, build_history_grid, exponential_kernel
from memheat.solver import SystemState, TrajectoryRecord


BASE = {
    "experiment": "trajectory",
    "domain": {"kind": "interval", "n": 65},
    "kernel": {"omega": 0.5, "rate": 3.0},
    "nonlinearity": {"f": [-0.125, 0.0, 0.0, 1.0],
                     "g": [-0.375, 0.0, 0.0, 1.0]},
    "alpha": 0.0, "beta": 1.0, "eps": 0.2,
    "dt": 0.005, "t_final": 0.1, "record_stride": 2,
    "checkpoint_step": 10,
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = dict(BASE)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_reports_config_and_gate(tmp_path, capsys):
    path = write_cfg(tmp_path)
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "config ok: sha256" in out
    assert "gate:" in out


def test_unknown_keys_are_refused(tmp_path, capsys):
    path = write_cfg(tmp_path, epsilonn=0.1)
    assert main(["validate", "--config", str(path)]) == 2
    assert "epsilonn" in capsys.readouterr().err
    path2 = write_cfg(tmp_path, name="c2.json",
                      kernel={"omega": 0.5, "ratee": 3.0})
    assert main(["validate", "--config", str(path2)]) == 2
    assert "kernel.ratee" in capsys.readouterr().err


def test_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "experiment": "trajectory",\n  oops\n}')
    assert main(["validate", "--config", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["validate", "--config", str(path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_type_errors_are_refused(tmp_path, capsys):
    path = write_cfg(tmp_path, record_stride=True)
    assert main(["validate", "--config", str(path)]) == 2
    assert "record_stride" in capsys.readouterr().err
    path2 = write_cfg(tmp_path, name="c2.json", experiment=42)
    assert main(["validate", "--config", str(path2)]) == 2


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_overclaimed_kernel_decay_is_refused(tmp_path, capsys):
    # delta is derived as the rate, so a config that claims one, even one
    # the old check let pass (19% over a slow kernel's rate), is refused
    for rate, delta in [(3.0, 4.0), (0.001, 0.00119)]:
        path = write_cfg(tmp_path, kernel={"omega": 0.5, "rate": rate,
                                           "delta": delta})
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config key 'kernel.delta'\n")


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("path, value", [
    # delta is the kernel's rate, and the history horizon one constant of
    # the history grid
    ("kernel.delta", 1e-300), ("history.s_max_factor", -1)])
def test_a_config_that_sets_a_derived_value_is_refused(tmp_path, capsys,
                                                       command, path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with_leaf(BASE, path, value)))
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(cfg), *args]) == 2
    assert capsys.readouterr().err == f"error: unknown config key {path!r}\n"
    assert not out.exists()


def test_unknown_experiment_is_refused(tmp_path, capsys):
    path = write_cfg(tmp_path, experiment="levitation")
    assert main(["validate", "--config", str(path)]) == 2
    assert "levitation" in capsys.readouterr().err


def test_checkpoint_step_constraints(tmp_path, capsys):
    path = write_cfg(tmp_path, checkpoint_step=7)  # not a stride multiple
    assert main(["validate", "--config", str(path)]) == 2
    assert "multiple of" in capsys.readouterr().err
    path2 = write_cfg(tmp_path, name="c2.json", checkpoint_step=50)
    assert main(["validate", "--config", str(path2)]) == 2
    capsys.readouterr()
    # the config of test_energy_decay_run_passes_its_assertions, which
    # validates without a checkpoint_step
    path3 = write_cfg(tmp_path, name="c3.json", experiment="energy_decay",
                      beta=0.1, nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                              "g": [0.0, -1.0, 0.0, 1.0]},
                      kernel={"omega": 0.5, "rate": 1.0}, eps=0.1,
                      dt=0.0016, t_final=0.4, record_stride=10,
                      checkpoint_step=100)
    assert main(["validate", "--config", str(path3)]) == 2
    assert capsys.readouterr().err == (
        "error: checkpoint_step only applies to the trajectory experiment\n")


def test_run_writes_deterministic_artifacts(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    for name in ("trajectory.csv", "summary.json", "manifest.json",
                 "checkpoint.bin"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["assertions"]["all_samples_finite"]
    assert summary["assertions"]["final_state_trace_compatible"]
    manifest = summary["manifest"]
    assert manifest["config_sha256"] == load_config(path).sha256
    # timing is quarantined in manifest.json, never in summary.json
    assert "wall_clock_seconds" not in manifest
    stamped = json.loads((out / "manifest.json").read_text())
    assert "wall_clock_seconds" in stamped

    out2 = tmp_path / "direct2"
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "summary.json", "checkpoint.bin"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_resume_reproduces_the_direct_run(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    main(["run", "--config", str(path), "--out", str(out)])
    resumed = tmp_path / "resumed"
    assert main(["resume", "--checkpoint", str(out / "checkpoint.bin"),
                 "--out", str(resumed)]) == 0
    for name in ("trajectory.csv", "summary.json"):
        assert (out / name).read_bytes() == (resumed / name).read_bytes()


def test_a_limit_run_checkpoints_and_resumes_bitwise(tmp_path):
    # at eps = 0 a checkpoint stores no history rows
    path = write_cfg(tmp_path, eps=0.0)
    direct, resumed = tmp_path / "direct", tmp_path / "resumed"
    assert main(["run", "--config", str(path), "--out", str(direct)]) == 0
    header = json.loads((direct / "checkpoint.bin").read_bytes()
                        .split(b"\n", 1)[0])
    assert header["phi_rows"] == 0 and header["step"] == 10
    assert checkpoint_load(direct / "checkpoint.bin").state.phi is None
    assert main(["resume", "--checkpoint", str(direct / "checkpoint.bin"),
                 "--out", str(resumed)]) == 0
    for name in ("trajectory.csv", "summary.json"):
        assert (direct / name).read_bytes() == (resumed / name).read_bytes()


def test_a_smooth_start_is_the_offset_plus_the_scaled_profile(tmp_path):
    path = write_cfg(tmp_path, initial={"kind": "smooth", "offset": 0.1,
                                        "amplitude": 0.4})
    loaded = load_config(path)
    d = loaded.problem.domain
    want = d.constant_field(0.1) + smooth_profile(d) * 0.4
    assert loaded.initial.bulk.tobytes() == want.bulk.tobytes()
    assert loaded.initial.boundary.tobytes() == want.boundary.tobytes()
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 0


def test_resume_refuses_truncated_payload(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    main(["run", "--config", str(path), "--out", str(out)])
    blob = (out / "checkpoint.bin").read_bytes()
    (out / "checkpoint.bin").write_bytes(blob[:-8])
    assert main(["resume", "--checkpoint", str(out / "checkpoint.bin"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "payload size" in capsys.readouterr().err


def test_resume_refuses_tampered_header(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    main(["run", "--config", str(path), "--out", str(out)])
    blob = (out / "checkpoint.bin").read_bytes()
    head, rest = blob.split(b"\n", 1)
    head = head.replace(b'"eps":0.2', b'"eps":0.3')
    (out / "checkpoint.bin").write_bytes(head + b"\n" + rest)
    assert main(["resume", "--checkpoint", str(out / "checkpoint.bin"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "stored hash" in capsys.readouterr().err


def test_resume_refuses_a_non_checkpoint_file(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    main(["run", "--config", str(path), "--out", str(out)])
    assert main(["resume", "--checkpoint", str(out / "summary.json"),
                 "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("blob, reason", [
    (b"\x01" * (1 << 20), "within its first 65536 bytes"),
    (b'{"format": "memheat-checkpoint-7"}', "before its end"),
    (b"\xff\xfe{}\n", "is not UTF-8"),
    (b"not json\n", "is not JSON"),
    (b"[1, 2, 3]\n", "is not a JSON object"),
], ids=["over-the-limit", "no-newline", "not-utf8", "not-json", "not-object"])
def test_resume_refuses_a_bad_header_line_naming_the_file(tmp_path, capsys,
                                                          blob, reason):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(blob)
    out = tmp_path / "r"
    assert main(["resume", "--checkpoint", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: checkpoint refused: ")
    assert str(bad) in err and reason in err
    assert not out.exists()


def test_a_header_without_a_newline_is_refused_after_the_limit(tmp_path):
    # the header line is read up to the limit, never the whole file
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"\x01" * (8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(cli.ConfigError, match="no header line"):
            checkpoint_load(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_resume_refuses_a_checkpoint_of_another_format(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    head, payload = (out / "checkpoint.bin").read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header["format"] == "memheat-checkpoint-7"
    # the config implies every array's shape but the history's row count
    assert header.keys() == {"format", "config", "config_sha256", "step",
                             "phi_rows"}
    # format 1 also stored the boundary history, the trace of phi_bulk, and
    # formats 1 and 2 the field's boundary values, the trace of u_bulk;
    # format 3 stored the arrays of format 6, but its embedded config held
    # a seed; format 4 stored no flat-tail start ``rest``; format 5 stored
    # it, with every history row; format 6 declared every array's name and
    # shape
    old_arrays = {1: [["u_bulk", [65]], ["u_boundary", [2]],
                      ["phi_bulk", [128, 65]], ["phi_boundary", [128, 2]],
                      ["s_nodes", [128]]],
                  2: [["u_bulk", [65]], ["u_boundary", [2]],
                      ["phi_bulk", [128, 65]], ["s_nodes", [128]]]}
    for version, arrays in old_arrays.items():
        old = tmp_path / f"old{version}.bin"
        old.write_bytes(json.dumps({
            "format": f"memheat-checkpoint-{version}",
            "arrays": arrays}).encode() + b"\n")
        assert main(["resume", "--checkpoint", str(old),
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert f"'memheat-checkpoint-{version}'" in err
        assert "'memheat-checkpoint-7'" in err
    canon = dict(header["config"], seed=0)
    old = tmp_path / "old3.bin"
    old.write_bytes(json.dumps(dict(
        header, format="memheat-checkpoint-3", config=canon,
        config_sha256=config_hash(canon))).encode() + b"\n" + payload)
    assert main(["resume", "--checkpoint", str(old),
                 "--out", str(tmp_path / "r3")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: checkpoint refused: {old} has format "
                   "'memheat-checkpoint-3', expected 'memheat-checkpoint-7'\n")
    assert not (tmp_path / "r3").exists()
    # the refusal reads the format alone, before the header's other keys
    arrays = [["u_bulk", [65]], ["phi_bulk", [header["phi_rows"], 65]],
              ["s_nodes", [128]]]
    for version, rest in ((4, {}), (5, {"rest": 0}), (6, {"arrays": arrays})):
        old = tmp_path / f"old{version}.bin"
        old.write_bytes(json.dumps(dict(
            header, format=f"memheat-checkpoint-{version}", **rest)).encode()
            + b"\n" + payload)
        assert main(["resume", "--checkpoint", str(old),
                     "--out", str(tmp_path / f"r{version}")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: checkpoint refused: {old} has format "
                       f"'memheat-checkpoint-{version}', expected "
                       "'memheat-checkpoint-7'\n")
        assert not (tmp_path / f"r{version}").exists()


def test_a_checkpoint_keeps_the_tail_start_a_resume_continues_from(tmp_path):
    # the benchmark's square 65 history grid and dt on square n = 17: the
    # tail start depends on the grid and dt only, and is row 80 at the seam
    # of step 20; the checkpoint stores the rows up to it, the load fills
    # the rows above with it, and the resume matches the direct run
    path = write_cfg(tmp_path, domain={"kind": "square", "n": 17},
                     dt=0.0025, record_stride=1, checkpoint_step=20)
    direct, resumed = tmp_path / "direct", tmp_path / "resumed"
    assert main(["run", "--config", str(path), "--out", str(direct)]) == 0
    header = json.loads((direct / "checkpoint.bin").read_bytes()
                        .split(b"\n", 1)[0])
    assert "rest" not in header
    assert header["phi_rows"] == 81
    phi = checkpoint_load(direct / "checkpoint.bin").state.phi
    # the inflow claim is not stored: the resumed seam sample walks every
    # row, and the merge drops it for the direct run's
    assert phi.rest == 80 and phi.inflow is None
    assert phi.bulk.shape == (128, 17 * 17)
    bits = phi.bulk.view(np.uint64)
    assert np.all(bits[80:] == bits[80])
    assert main(["resume", "--checkpoint", str(direct / "checkpoint.bin"),
                 "--out", str(resumed)]) == 0
    for name in ("trajectory.csv", "summary.json"):
        assert (direct / name).read_bytes() == (resumed / name).read_bytes()


def test_checkpoint_roundtrip_preserves_state_bitwise(tmp_path):
    loaded = load_config(write_cfg(tmp_path))
    d = loaded.problem.domain
    grid = loaded.problem.grid
    rng = np.random.default_rng(42)
    u = d.field_from_bulk(rng.normal(size=d.n_bulk))
    phi = HistoryField(grid, rng.normal(size=(grid.n_s, d.n_bulk)),
                       d.boundary_index)
    state = SystemState(u, phi, step=10)
    # step 10 at record_stride 2: the samples at steps 0, 2, ..., 10
    records = {name: np.arange(6) * 0.5 + i
               for i, name in enumerate(TrajectoryRecord.COLUMNS)}
    ck_path = tmp_path / "state.bin"
    checkpoint_save(state, ck_path, loaded.canon, records=records)

    ck = checkpoint_load(ck_path)
    assert ck.state.step == 10
    assert ck.state.u.bulk.tobytes() == u.bulk.tobytes()
    # the boundary values are rebuilt as the trace of the bulk
    assert ck.state.u.boundary.tobytes() == u.boundary.tobytes()
    assert ck.state.phi.bulk.tobytes() == phi.bulk.tobytes()
    assert ck.state.phi.boundary.tobytes() == phi.boundary.tobytes()
    assert ck.records["energy_h0"].tobytes() == records["energy_h0"].tobytes()


def test_failed_gate_maps_to_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, experiment="energy_decay", beta=0.6,
                     nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                   "g": [0.0, -1.0, 0.0, 1.0]},
                     kernel={"omega": 0.5, "rate": 1.0},
                     eps=1.0, dt=0.0016, t_final=0.0016,
                     record_stride=1, checkpoint_step=None)
    # refused at config load: validate fails too, and run makes no --out
    assert main(["validate", "--config", str(path)]) == 2
    assert "smallness gate failed" in capsys.readouterr().err
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "smallness gate failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_energy_decay_run_passes_its_assertions(tmp_path):
    path = write_cfg(tmp_path, experiment="energy_decay", beta=0.1,
                     nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                   "g": [0.0, -1.0, 0.0, 1.0]},
                     kernel={"omega": 0.5, "rate": 1.0},
                     eps=0.1, dt=0.0016, t_final=0.4,
                     record_stride=10, checkpoint_step=None)
    out = tmp_path / "decay"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["assertions"]["decay_bound_every_sample"]
    assert summary["assertions"]["absorbed_by_t0"]
    assert summary["results"]["violations"] == 0


def test_energy_decay_run_that_ends_before_t0_leaves_absorption_unjudged(
        tmp_path):
    # on square 17 the run ends at t = 0.4 outside the absorbing ball, long
    # before the absorbing time t0 (about 5.8): the decay bound alone rules
    path = write_cfg(tmp_path, experiment="energy_decay", beta=0.1,
                     domain={"kind": "square", "n": 17},
                     nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                   "g": [0.0, -1.0, 0.0, 1.0]},
                     kernel={"omega": 0.5, "rate": 1.0},
                     eps=0.1, dt=0.0016, t_final=0.4,
                     record_stride=10, checkpoint_step=None)
    out = tmp_path / "decay"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "summary.json").read_text()
    assert '"absorbed_by_t0": null' in text
    summary = json.loads(text)
    assert summary["assertions"]["decay_bound_every_sample"]
    assert summary["results"]["violations"] == 0
    assert summary["results"]["t_absorb"] == float("inf")
    assert summary["results"]["t0"] > 0.4


@pytest.mark.parametrize("command", ["run", "resume", "energy_decay"])
def test_run_releases_every_history_before_the_decay_fit(tmp_path,
                                                         monkeypatch, command):
    # the fit must not add to the peak memory of a run that still holds
    # its histories; the trajectory config passes the checkpoint seam, so
    # both halves' states must be gone, and a resumed run must let go of
    # the loaded checkpoint's state
    if command == "energy_decay":
        path = write_cfg(tmp_path, experiment="energy_decay", beta=0.1,
                         nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                       "g": [0.0, -1.0, 0.0, 1.0]},
                         kernel={"omega": 0.5, "rate": 1.0},
                         eps=0.1, dt=0.0016, t_final=0.4,
                         record_stride=10, checkpoint_step=None)
    else:
        path = write_cfg(tmp_path)
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "resume":
        assert main(argv) == 0
        argv = ["resume", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--out", str(tmp_path / "resumed")]
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, HistoryField)}
    alive = []

    def fit(times, values):
        alive.extend(o for o in gc.get_objects()
                     if isinstance(o, HistoryField) and id(o) not in before)
        return real_fit(times, values)

    real_fit = cli.fit_decay
    monkeypatch.setattr(cli, "fit_decay", fit)
    assert main(argv) == 0
    summary = json.loads((Path(argv[-1]) / "summary.json").read_text())
    assert "energy" in summary["fits"]
    assert alive == []


@pytest.mark.parametrize("command", ["validate", "run", "sweep-eps"])
def test_a_dt_above_the_reaction_budget_is_refused_at_load(tmp_path, capsys,
                                                           command):
    # data of amplitude 30 leave a budget of 8.05e-5 for dt = 0.0025; every
    # command refuses before a step, where run and the sweep once
    # integrated into overflow first
    path = write_cfg(tmp_path, domain={"kind": "interval", "n": 17},
                     dt=0.0025, t_final=1.0, checkpoint_step=None,
                     initial={"kind": "constant", "value": 30.0})
    argv = {"validate": [], "run": ["--out", str(tmp_path / "out")],
            "sweep-eps": ["--eps", "0.2,0.1", "--out", str(tmp_path / "out")]}
    assert main([command, "--config", str(path)] + argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dt = 0.0025 exceeds the reaction stability "
                          "budget") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_sweep_runs_and_is_deterministic(tmp_path):
    # the sweep audits the window [sqrt(eps), t_final], so the horizon must
    # clear sqrt(0.2)
    path = write_cfg(tmp_path, t_final=0.5, checkpoint_step=None, dt=0.0025,
                     record_stride=4,
                     initial={"kind": "constant", "value": 0.5})
    a, b = tmp_path / "sa", tmp_path / "sb"
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                 "--out", str(a)]) == 0
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                 "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    summary = json.loads((a / "summary.json").read_text())
    assert summary["assertions"]["sqrt_envelope_holds"]
    assert len(summary["results"]["errors"]) == 2


def test_sweep_builds_each_eps_grid_with_the_config_history(tmp_path):
    errors = []
    for n_s in (64, 256):
        path = write_cfg(tmp_path, name=f"c{n_s}.json", t_final=0.5,
                         checkpoint_step=None, dt=0.0025, record_stride=4,
                         domain={"kind": "interval", "n": 17},
                         history={"n_s": n_s})
        out = tmp_path / f"s{n_s}"
        assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                     "--out", str(out)]) == 0
        errors.append(json.loads((out / "summary.json").read_text())
                      ["results"]["errors"])
    assert errors[0][0] != errors[1][0] and errors[0][1] != errors[1][1]


def test_sweep_from_a_limit_config_follows_its_history(tmp_path):
    # the config's own eps is 0, so its problem carries no grid; the sweep
    # must still build each eps's grid with the config's history recipe
    csv = []
    for n_s in (64, 256):
        path = write_cfg(tmp_path, name=f"c{n_s}.json", eps=0.0, t_final=0.5,
                         checkpoint_step=None, dt=0.0025, record_stride=4,
                         domain={"kind": "interval", "n": 17},
                         history={"n_s": n_s})
        out = tmp_path / f"s{n_s}"
        assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                     "--out", str(out)]) == 0
        csv.append((out / "sweep.csv").read_bytes())
    assert csv[0] != csv[1]


def test_sweep_rejects_a_malformed_eps_list(tmp_path, capsys):
    path = write_cfg(tmp_path, checkpoint_step=None)
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,zap",
                 "--out", str(tmp_path / "s")]) == 2
    assert "bad --eps" in capsys.readouterr().err


@pytest.mark.parametrize("eps, bad", [("0.1,0", "'0'"),
                                      ("0.1,0.01", "'0.01'"),
                                      ("inf,0.1", "'inf'"),
                                      ("0.2,nan", "'nan'"),
                                      ("1.5,0.1", "'1.5'")])
def test_sweep_checks_every_eps_before_any_work(tmp_path, capsys, eps, bad):
    # a bad entry late in the list is refused before the output directory
    # is made and before the first eps runs
    path = write_cfg(tmp_path, domain={"kind": "interval", "n": 17},
                     dt=0.0025, t_final=0.5, checkpoint_step=None)
    out = tmp_path / "s"
    assert main(["sweep-eps", "--config", str(path), "--eps", eps,
                 "--out", str(out)]) == 2
    assert f"bad --eps entry {bad}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_accepts_eps_down_to_ten_steps(tmp_path):
    problem = load_config(write_cfg(tmp_path, dt=0.0025, t_final=0.5,
                                    checkpoint_step=None)).problem
    assert _sweep_eps("0.2,0.025", problem) == [0.2, 0.025]


@pytest.mark.parametrize("eps", [0.0, 0.025])
def test_sweep_refuses_a_bad_history_recipe_before_making_its_output(
        tmp_path, capsys, eps):
    # s_max = 0.5 is too short for eps = 0.2 at rate 3, so the sweep's first
    # grid truncates the kernel: refused whatever the config's own eps,
    # with no output directory left behind
    path = write_cfg(tmp_path, domain={"kind": "interval", "n": 17},
                     eps=eps, dt=0.0025, t_final=0.5, checkpoint_step=None,
                     history={"s_max": 0.5, "n_s": 64})
    out = tmp_path / "s"
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: history grid truncates") and \
        err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_that_sets_a_seed_is_refused(tmp_path, capsys, command):
    # no run reads a seed, so the key is unknown, not ignored
    path = write_cfg(tmp_path, seed=1)
    out = tmp_path / "out"
    args = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown config key 'seed'\n"
    assert not out.exists()


def test_run_has_no_seed_option(tmp_path, capsys):
    path = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
              "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_plot_script_is_compilable(tmp_path, capsys):
    assert main(["plot-script"]) == 0
    src = capsys.readouterr().out
    compile(src, "<plot>", "exec")
    target = tmp_path / "plot.py"
    assert main(["plot-script", "--out", str(target)]) == 0
    assert target.read_text() == src


@pytest.mark.parametrize("key,value", [("dt", float("nan")),
                                       ("alpha", float("nan")),
                                       ("t_final", float("inf"))])
def test_non_finite_numbers_are_refused(tmp_path, capsys, key, value):
    path = write_cfg(tmp_path, **{key: value})
    assert main(["validate", "--config", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "r")]) == 2


def test_validate_refuses_a_horizon_off_the_step_grid(tmp_path, capsys):
    path = write_cfg(tmp_path, domain={"kind": "interval", "n": 17},
                     dt=0.003, t_final=1.0, checkpoint_step=None)
    assert main(["validate", "--config", str(path)]) == 2
    assert "integer multiple" in capsys.readouterr().err


def test_sweep_refuses_a_horizon_off_the_step_grid(tmp_path, capsys):
    path = write_cfg(tmp_path, dt=0.003, t_final=1.0, checkpoint_step=None)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "r")]) == 2
    assert "integer multiple" in capsys.readouterr().err
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                 "--out", str(tmp_path / "s")]) == 2
    assert "integer multiple" in capsys.readouterr().err


@pytest.mark.parametrize("override, named", [
    # a bare validate exited 0 and run would have stepped 4e302 times
    ({"t_final": 1e300}, "steps x 65 bulk nodes x 128 history nodes"),
    # the step count overflowed round() in a traceback with exit 1
    ({"t_final": 1e300, "dt": 1e-300, "eps": 0.0}, "not a finite step count"),
], ids=["t_final-1e300", "step-count-overflow"])
def test_a_run_past_the_work_budget_is_refused_at_load(tmp_path, capsys,
                                                       override, named):
    path = write_cfg(tmp_path, checkpoint_step=None, **override)
    start = time.perf_counter()
    assert main(["validate", "--config", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert time.perf_counter() - start < 5.0


def test_a_sweep_past_the_work_budget_is_refused_before_it_runs(tmp_path,
                                                                capsys):
    # one run of 5e7 steps x 1025 x 128 = 6.6e12 is within the budget, so
    # the config validates, but a sweep runs it once per eps: 1.3e13
    path = write_cfg(tmp_path, domain={"kind": "interval", "n": 1025},
                     dt=0.0025, t_final=125000.0, checkpoint_step=None)
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "s"
    start = time.perf_counter()
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,0.1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the sweep needs 2 runs x 5e+07 steps x "
                          "1025 bulk nodes x 128 history nodes = 1.31e+13")
    assert err.count("\n") == 1, err
    assert not out.exists()
    assert time.perf_counter() - start < 5.0


def test_the_work_budget_clears_every_benchmark_run_a_thousandfold():
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        from workloads import BASE_CONFIG, WORKLOADS
    finally:
        sys.path.pop(0)
    for wl in WORKLOADS.values():
        nodes = wl.n if wl.kind == "interval" else wl.n * wl.n
        work = wl.steps * nodes * BASE_CONFIG["history"]["n_s"]
        assert 1000 * work <= cli._MAX_WORK, wl.name


@pytest.mark.parametrize("override", [
    {"domain": {"kind": "square", "n": 10**7}},
    {"history": {"n_s": 10**8}},
])
def test_history_larger_than_memory_is_refused_at_once(tmp_path, capsys,
                                                       override):
    path = write_cfg(tmp_path, **override)
    start = time.perf_counter()
    assert main(["validate", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "history array needs" in err and "physical memory" in err


def _with_leaf(cfg: dict, path: str, value) -> dict:
    """A copy of ``cfg`` with the leaf at the dotted ``path`` set to ``value``;
    a numeric last part indexes a list."""
    cfg = json.loads(json.dumps(cfg))
    *parents, leaf = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[int(leaf) if isinstance(node, list) else leaf] = value
    return cfg


def _leaves(schema: dict, prefix: str = "") -> list:
    return [name for key, val in schema.items()
            for name in (_leaves(val, f"{prefix}{key}.") if isinstance(val, dict)
                         else [prefix + key])]


def _validate(path) -> tuple:
    """``main(["validate", ...])`` in process: its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", "--config", str(path)])
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    return code, err.getvalue()


SMALL = dict(BASE, domain={"kind": "interval", "n": 17})

# every JSON kind, and numbers at the edges of the checks; no large
# integers, so no case allocates what the history size check guards
_POOL = [None, True, False, 0, -1, 1, 7, 0.0, -0.0, 1e-300, 1e300, -1e300,
         0.5, "", "x", [], [1.0], {}]


# single reaction coefficients, each replaced alone
_COEFFICIENTS = [f"nonlinearity.{r}.{i}" for r in "fg" for i in range(4)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(path=st.sampled_from(_leaves(_SCHEMA) + _COEFFICIENTS),
       value=st.sampled_from(_POOL))
def test_validate_accepts_or_refuses_any_leaf(tmp_path_factory, path, value):
    cfg = tmp_path_factory.getbasetemp() / "fuzzed.json"
    cfg.write_text(json.dumps(_with_leaf(SMALL, path, value)))
    code, err = _validate(cfg)
    assert code in (0, 2), (path, value, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@pytest.mark.parametrize("path, value, named", [
    ("eps", None, "'eps' must be float, not null"),  # a traceback before
    ("initial.value", None, "'initial.value'"),
    ("seed", None, "unknown config key 'seed'"),  # no run reads a seed
    ("tol_frac", None, "'tol_frac'"),
    ("history.s_max", -1, "s_max must lie in"),  # NaN nodes before
    ("history.s_max", 1e300, "s_max must lie in"),  # overflow warning before
    # the default horizon 30 eps / rate falls below the grid's first node
    ("kernel.rate", 1e5, "s_max = 30 * eps / rate must lie in"),
    ("kernel.rate", 1e300, "rate must have a finite"),  # OverflowError before
    ("kernel.rate", 1e-300, "rate must have a finite"),
    ("t_final", 10**400, "'t_final' must be finite"),  # OverflowError before
])
def test_config_load_refuses_null_and_out_of_range_values(tmp_path, path,
                                                          value, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with_leaf(SMALL, path, value)))
    code, err = _validate(cfg)
    assert code == 2 and err.startswith("error: ") and named in err, err


@pytest.mark.parametrize("path, value, named", [
    # a TypeError escaped main before
    ("nonlinearity.f.0", None, "'nonlinearity.f' must hold finite numbers, "
                               "got null"),
    ("nonlinearity.g.0", [1], "'nonlinearity.g' must hold finite numbers, "
                              "got [1]"),
    # accepted as 1.0 before
    ("nonlinearity.f.3", True, "'nonlinearity.f' must hold finite numbers, "
                               "got true"),
    # refused before, but with a message that named no key
    ("nonlinearity.g.1", float("nan"), "'nonlinearity.g' must hold finite "
                                       "numbers, got NaN"),
    ("nonlinearity.f.2", float("inf"), "'nonlinearity.f' must hold finite "
                                       "numbers, got Infinity"),
    ("nonlinearity.f.0", 10**400, "'nonlinearity.f' must hold finite "
                                  "numbers"),
    # an overflow warning before, after which the oracle passed anything
    ("nonlinearity.f", [0, 0, 0, 1e305], "f cannot be certified"),
    ("nonlinearity.g", [0, -1e305], "g cannot be certified"),
    # numpy's LinAlgError from the root finder, naming no reaction, before
    ("nonlinearity.f", [0, 543.26, -4.88e164, 2.42e-192],
     "f cannot be certified"),
])
def test_config_load_refuses_bad_reaction_coefficients(tmp_path, path, value,
                                                       named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with_leaf(SMALL, path, value)))
    code, err = _validate(cfg)
    assert code == 2 and err.startswith("error: ") and named in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("path", ["history.s_max", "checkpoint_step"])
def test_null_keeps_selecting_a_none_default(tmp_path, path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_with_leaf(SMALL, path, None)))
    assert _validate(cfg) == (0, "")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_blow_up_exits_1_with_its_trajectory_and_no_fit(tmp_path, capsys,
                                                         monkeypatch):
    # f(s) = -400 s overflows the state within t = 1; the energy samples are
    # then not finite, and no fit may be attempted on them
    def no_fit(times, values):
        raise AssertionError("fit_decay was called on a blow-up")

    monkeypatch.setattr(cli, "fit_decay", no_fit)
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps({"domain": {"kind": "interval", "n": 17},
                                "nonlinearity": {"f": [0.0, -400.0, 0.0, 0.0]},
                                "dt": 0.001, "t_final": 1.0}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "error" not in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["assertions"]["all_samples_finite"] is False
    assert summary["fits"] == {}
    assert (out / "trajectory.csv").read_text().count("\n") == 1002


_IMPORT_PROBE = """
import json, sys
from memheat.cli import main
cfg, decay, out = sys.argv[1:]
lazy = ("scipy.optimize", "scipy.special", "scipy.spatial", "scipy.fft",
        "scipy.constants")
codes = [main(["validate", "--config", cfg]),
         main(["sweep-eps", "--config", cfg, "--eps", "0.2,0.1",
               "--out", out + "/sweep"])]
before = [name for name in lazy if name in sys.modules]
codes += [main(["run", "--config", cfg, "--out", out + "/run"]),
          main(["resume", "--checkpoint", out + "/run/checkpoint.bin",
                "--out", out + "/resumed"]),
          main(["run", "--config", decay, "--out", out + "/decay"])]
print(json.dumps({"codes": codes, "before": before,
                  "optimize_after": "scipy.optimize" in sys.modules}))
"""


def test_no_command_imports_scipy_optimize(tmp_path):
    # a fresh interpreter, since the suite itself imports scipy.optimize;
    # the decay fit is numpy only, so no command loads it, a run that fits,
    # a resume and an energy_decay run included
    cfg = write_cfg(tmp_path, domain={"kind": "interval", "n": 17},
                    dt=0.0025, t_final=0.5, record_stride=4,
                    checkpoint_step=100)
    decay = write_cfg(tmp_path, name="decay.json", experiment="energy_decay",
                      domain={"kind": "interval", "n": 17}, beta=0.1,
                      nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                    "g": [0.0, -1.0, 0.0, 1.0]},
                      kernel={"omega": 0.5, "rate": 1.0},
                      eps=0.1, dt=0.0016, t_final=0.4,
                      record_stride=10, checkpoint_step=None)
    src = Path(memheat.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(cfg),
                           str(decay), str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe == {"codes": [0, 0, 0, 0, 0], "before": [],
                     "optimize_after": False}
    for run in ("run", "resumed", "decay"):
        summary = json.loads((tmp_path / run / "summary.json").read_text())
        assert set(summary["fits"]["energy"]) == {"amplitude", "rate",
                                                  "offset", "residual"}


@pytest.mark.parametrize("command", ["run", "resume"])
def test_a_run_steps_one_history_and_moves_it_to_disk_without_a_copy(
        tmp_path, monkeypatch, command):
    # evolve steps the state it is given, so a run holds one history at
    # every step, past its checkpoint seam too, and a resume steps the
    # checkpoint's own; the save writes the history from its buffer, and
    # the load reads it into its buffer
    path = write_cfg(tmp_path, domain={"kind": "square", "n": 17})
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    if command == "resume":
        assert main(argv) == 0
        argv = ["resume", "--checkpoint", str(tmp_path / "out" / "checkpoint.bin"),
                "--out", str(tmp_path / "resumed")]
    gc.collect()
    # held, so no id among them is reused by a history made below
    before = [o for o in gc.get_objects() if isinstance(o, HistoryField)]
    seen = {id(o) for o in before}
    alive, peaks = [], {}

    def counting(phi, *args, **kwargs):
        alive.append(sum(1 for o in gc.get_objects()
                         if isinstance(o, HistoryField) and id(o) not in seen))
        return real_advance(phi, *args, **kwargs)

    def traced(real):
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                out = real(*args, **kwargs)
                peaks[real.__name__] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return out
        return call

    real_advance = solver.advance_history
    monkeypatch.setattr(solver, "advance_history", counting)
    for name in ("checkpoint_save", "checkpoint_load"):
        monkeypatch.setattr(cli, name, traced(getattr(cli, name)))
    assert main(argv) == 0
    # 20 steps, the seam at step 10; a resume runs the last 10
    assert alive == [1] * (20 if command == "run" else 10)
    history = 8 * 128 * 17 * 17  # n_s x n_bulk binary64 values
    if command == "run":
        assert set(peaks) == {"checkpoint_save"}
        assert peaks["checkpoint_save"] < history / 2
    else:
        # the loaded history itself, and the domain and grid it rebuilds
        assert set(peaks) == {"checkpoint_load"}
        assert peaks["checkpoint_load"] < 1.5 * history


def _hand_written_checkpoint(path, canon, arrays, step=0, phi_rows=0):
    """A format-7 checkpoint of ``canon`` at ``step`` claiming ``phi_rows``
    history rows, with the arrays of the list of (name, array) ``arrays``
    as its payload."""
    header = {"format": "memheat-checkpoint-7", "config": canon,
              "config_sha256": config_hash(canon), "step": step,
              "phi_rows": phi_rows}
    path.write_bytes(json.dumps(header).encode() + b"\n"
                     + b"".join(a.astype("<f8").tobytes() for _, a in arrays))
    return path


# the checkpoint refusals of _bad_input and the words that name each one
_CHECKPOINT_REFUSALS = {
    # the layout is derived from the config, so arrays of other lengths or
    # counts than it implies show as a payload of another size: 8 x (65
    # + 128 x 65 + 128 + 8) bytes at step 0
    "resume-header-without-arrays": "payload size 0 does not match the "
                                    "68168 bytes",
    "resume-u-bulk-of-wrong-length": "payload size 68160 does not match",
    "resume-partial-records": "payload size 68112 does not match",
    "resume-records-of-unequal-length": "payload size 68176 does not match",
    # step 10 at record_stride 2 implies 6 samples per column
    "resume-records-cut-short": "payload size 68232 does not match the "
                                "68488 bytes",
    "resume-negative-step": "integer in [0, 200], found -4",
    "resume-fractional-step": "integer in [0, 200], found 2.7",
    "resume-step-off-the-stride": "step 7 is not a multiple of record_stride 2",
    # each escaped main as a KeyError or TypeError before
    "resume-empty-config": "embedded config is not canonical",
    "resume-config-not-an-object": "embedded config is invalid: config must "
                                   "be a JSON object",
    "resume-config-with-a-string-n": "embedded config is invalid: config key "
                                     "'domain.n' must be int",
    # a history is stored as its rows up to its flat tail's start, the
    # last stored row: 1 to n_s rows of bulk nodes, and none at eps = 0
    "resume-phi-bulk-of-no-axes": "phi_rows must be an integer in [1, 128], "
                                  "found []",
    "resume-phi-bulk-without-rows": "phi_rows must be an integer in [1, 128], "
                                    "found 0",
    "resume-phi-bulk-past-the-grid": "phi_rows must be an integer in "
                                     "[1, 128], found 129",
    "resume-limit-with-history-rows": "phi_rows must be an integer in "
                                      "[0, 0], found 1",
    "resume-phi-bulk-of-wrong-width": "payload size 3144 does not match the "
                                      "3168 bytes",
    # the last bit of the last history node flipped
    "resume-s-nodes-off-the-grid": "stored history grid differs from the "
                                   "one the config rebuilds",
}


def _bad_input(tmp_path):
    """Kinds of bad input, each as the argument list of one command."""
    cfg = write_cfg(tmp_path, t_final=0.5, checkpoint_step=None, dt=0.0025)
    afile = tmp_path / "afile"
    afile.write_text("")
    headless = tmp_path / "headless.bin"
    headless.write_bytes(json.dumps({"format": "memheat-checkpoint-7"}).encode()
                         + b"\n")
    loaded = load_config(cfg)
    d, grid = loaded.problem.domain, loaded.problem.grid
    n_s = grid.n_s
    state = [("u_bulk", np.zeros(d.n_bulk)),
             ("phi_bulk", np.zeros((n_s, d.n_bulk))),
             ("s_nodes", grid.s_nodes)]
    records = [(f"rec_{name}", np.zeros(1)) for name in TrajectoryRecord.COLUMNS]
    rows = [(name, np.zeros(2)) for name, _ in records]
    s_off = grid.s_nodes.copy()
    s_off.view(np.uint64)[-1] ^= 1
    checkpoints = {
        "resume-header-without-arrays": [],
        "resume-u-bulk-of-wrong-length": [("u_bulk", np.zeros(d.n_bulk - 1))]
                                         + state[1:] + records,
        "resume-partial-records": state + records[:1],
        "resume-records-of-unequal-length":
            state + records[:-1] + [(records[-1][0], np.zeros(2))],
        "resume-records-cut-short": state + rows,
        "resume-phi-bulk-of-wrong-width":
            state[:1] + [("phi_bulk", np.zeros((3, d.n_bulk - 1)))]
            + state[2:] + records,
        "resume-s-nodes-off-the-grid": state[:2] + [("s_nodes", s_off)]
                                       + records,
        "resume-limit-with-history-rows": state[:1] + records,
        **{case: state + records for case in (
            "resume-negative-step", "resume-fractional-step",
            "resume-step-off-the-stride", "resume-empty-config",
            "resume-config-not-an-object", "resume-config-with-a-string-n",
            "resume-phi-bulk-of-no-axes", "resume-phi-bulk-without-rows",
            "resume-phi-bulk-past-the-grid")},
    }
    configs = {"resume-empty-config": {},
               "resume-config-not-an-object": [1, 2],
               "resume-config-with-a-string-n":
                   dict(loaded.canon, domain={"kind": "interval", "n": "65"}),
               "resume-limit-with-history-rows": dict(loaded.canon, eps=0.0)}
    steps = {"resume-records-cut-short": 10, "resume-negative-step": -4,
             "resume-fractional-step": 2.7, "resume-step-off-the-stride": 7}
    phi_rows = {"resume-phi-bulk-of-no-axes": [],
                "resume-phi-bulk-without-rows": 0,
                "resume-phi-bulk-past-the-grid": n_s + 1,
                "resume-limit-with-history-rows": 1,
                "resume-phi-bulk-of-wrong-width": 3}
    return {
        **{case: ["resume", "--checkpoint",
                  str(_hand_written_checkpoint(tmp_path / f"{case}.bin",
                                               configs.get(case, loaded.canon),
                                               arrays, steps.get(case, 0),
                                               phi_rows.get(case, n_s))),
                  "--out", str(tmp_path / "r")]
           for case, arrays in checkpoints.items()},
        "sweep-out-under-a-file": ["sweep-eps", "--config", str(cfg), "--eps",
                                   "0.2,0.1", "--out", str(afile / "sub")],
        "sweep-one-eps": ["sweep-eps", "--config", str(cfg), "--eps", "0.2",
                          "--out", str(tmp_path / "r")],
        "sweep-repeated-eps": ["sweep-eps", "--config", str(cfg), "--eps",
                               "0.1,0.1", "--out", str(tmp_path / "r")],
        "sweep-empty-eps-list": ["sweep-eps", "--config", str(cfg), "--eps",
                                 ",", "--out", str(tmp_path / "r")],
        # sqrt(0.3) lies past t_final = 0.5
        "sweep-empty-audit-window": ["sweep-eps", "--config", str(cfg),
                                     "--eps", "0.3,0.1",
                                     "--out", str(tmp_path / "r")],
        "plot-script-into-a-missing-dir": ["plot-script", "--out",
                                           str(tmp_path / "r" / "plot.py")],
        "resume-missing-checkpoint": ["resume", "--checkpoint",
                                      str(tmp_path / "nope.bin"),
                                      "--out", str(tmp_path / "r")],
        "resume-header-without-config": ["resume", "--checkpoint", str(headless),
                                         "--out", str(tmp_path / "r")],
    }


def _assert_refused(code, stderr, case, tmp_path):
    assert code == 2, stderr
    assert "Traceback" not in stderr
    assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
    assert _CHECKPOINT_REFUSALS.get(case, "") in stderr
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("case", ["sweep-out-under-a-file", "sweep-one-eps",
                                  "sweep-empty-eps-list", "sweep-repeated-eps",
                                  "sweep-empty-audit-window",
                                  "plot-script-into-a-missing-dir",
                                  "resume-missing-checkpoint",
                                  "resume-header-without-config",
                                  *_CHECKPOINT_REFUSALS])
def test_bad_input_exits_2_without_a_traceback(tmp_path, case, capsys,
                                               monkeypatch):
    argv = _bad_input(tmp_path)[case]

    # every refusal comes before any integration
    def no_sweep(*args):
        raise AssertionError("the sweep ran before the input was refused")

    monkeypatch.setattr(cli, "robustness_sweep", no_sweep)
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    _assert_refused(code, capsys.readouterr().err, case, tmp_path)


# one refusal per command through the ``python -m memheat.cli`` wrapper
@pytest.mark.parametrize("case", ["sweep-out-under-a-file",
                                  "resume-header-without-arrays"])
def test_module_wrapper_exits_2_without_a_traceback(tmp_path, case):
    src = Path(memheat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "memheat.cli",
                           *_bad_input(tmp_path)[case]],
                          capture_output=True, text=True, env=env)
    _assert_refused(proc.returncode, proc.stderr, case, tmp_path)
