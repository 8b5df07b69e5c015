"""Command-line front end: config validation, artifacts, checkpoint safety."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import memheat
from memheat.cli import (
    ConfigError,
    checkpoint_load,
    checkpoint_save,
    config_hash,
    load_config,
    main,
)
from memheat.domain import build_domain
from memheat.memory import HistoryField, build_history_grid, exponential_kernel
from memheat.solver import SystemState


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
    assert "kernel unit_mass: pass" in out
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
    path = write_cfg(tmp_path, kernel={"omega": 0.5, "rate": 3.0,
                                       "delta": 4.0})
    assert main(["validate", "--config", str(path)]) == 2
    assert "delta_domination" in capsys.readouterr().err


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


def test_resume_refuses_a_checkpoint_of_another_format(tmp_path, capsys):
    path = write_cfg(tmp_path)
    out = tmp_path / "direct"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    header = json.loads((out / "checkpoint.bin").read_bytes().split(b"\n")[0])
    assert header["format"] == "memheat-checkpoint-2"
    assert [name for name, _ in header["arrays"]][:4] == [
        "u_bulk", "u_boundary", "phi_bulk", "s_nodes"]
    # format 1 also stored the boundary history, the trace of phi_bulk
    old = tmp_path / "old.bin"
    old.write_bytes(json.dumps({
        "format": "memheat-checkpoint-1",
        "arrays": [["u_bulk", [65]], ["u_boundary", [2]],
                   ["phi_bulk", [128, 65]], ["phi_boundary", [128, 2]],
                   ["s_nodes", [128]]]}).encode() + b"\n")
    assert main(["resume", "--checkpoint", str(old),
                 "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "'memheat-checkpoint-1'" in err and "'memheat-checkpoint-2'" in err


def test_checkpoint_roundtrip_preserves_state_bitwise(tmp_path):
    loaded = load_config(write_cfg(tmp_path))
    d = loaded.problem.domain
    grid = loaded.problem.grid
    rng = np.random.default_rng(42)
    u = d.field_from_bulk(rng.normal(size=d.n_bulk))
    phi = HistoryField(grid, rng.normal(size=(grid.n_s, d.n_bulk)),
                       d.boundary_index)
    state = SystemState(u, phi, step=10, t=0.05)
    records = {"t": np.array([0.0, 0.05]), "energy": np.array([1.0, 0.5])}
    ck_path = tmp_path / "state.bin"
    checkpoint_save(state, ck_path, loaded.canon, records=records)

    ck = checkpoint_load(ck_path, expect_canon=loaded.canon)
    assert ck.state.step == 10 and ck.state.t == 0.05
    assert ck.state.u.bulk.tobytes() == u.bulk.tobytes()
    assert ck.state.phi.bulk.tobytes() == phi.bulk.tobytes()
    assert ck.state.phi.boundary.tobytes() == phi.boundary.tobytes()
    assert ck.records["energy"].tobytes() == records["energy"].tobytes()

    other = dict(loaded.canon, eps=0.1)
    with pytest.raises(ConfigError, match="different config"):
        checkpoint_load(ck_path, expect_canon=other)
    assert config_hash(other) != config_hash(loaded.canon)


def test_failed_gate_maps_to_config_error(tmp_path, capsys):
    path = write_cfg(tmp_path, experiment="energy_decay", beta=0.6,
                     nonlinearity={"f": [0.0, -1.0, 0.0, 1.0],
                                   "g": [0.0, -1.0, 0.0, 1.0]},
                     kernel={"omega": 0.5, "rate": 1.0},
                     eps=1.0, dt=0.0016, t_final=0.0016,
                     record_stride=1, checkpoint_step=None)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "smallness gate failed" in capsys.readouterr().err


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


def test_sweep_rejects_a_malformed_eps_list(tmp_path, capsys):
    path = write_cfg(tmp_path, checkpoint_step=None)
    assert main(["sweep-eps", "--config", str(path), "--eps", "0.2,zap",
                 "--out", str(tmp_path / "s")]) == 2
    assert "bad --eps" in capsys.readouterr().err


def test_seed_override_lands_in_the_manifest(tmp_path):
    path = write_cfg(tmp_path)
    out = tmp_path / "seeded"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["manifest"]["seed"] == 7


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


def _bad_input(tmp_path):
    """Three kinds of bad input, each as the argument list of one command."""
    cfg = write_cfg(tmp_path, t_final=0.5, checkpoint_step=None, dt=0.0025)
    afile = tmp_path / "afile"
    afile.write_text("")
    headless = tmp_path / "headless.bin"
    headless.write_bytes(json.dumps({"format": "memheat-checkpoint-2"}).encode()
                         + b"\n")
    return {
        "sweep-out-under-a-file": ["sweep-eps", "--config", str(cfg), "--eps",
                                   "0.2,0.1", "--out", str(afile / "sub")],
        "resume-missing-checkpoint": ["resume", "--checkpoint",
                                      str(tmp_path / "nope.bin"),
                                      "--out", str(tmp_path / "r")],
        "resume-header-without-config": ["resume", "--checkpoint", str(headless),
                                         "--out", str(tmp_path / "r")],
    }


@pytest.mark.parametrize("case", ["sweep-out-under-a-file",
                                  "resume-missing-checkpoint",
                                  "resume-header-without-config"])
def test_bad_input_exits_2_without_a_traceback(tmp_path, case):
    src = Path(memheat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "memheat.cli",
                           *_bad_input(tmp_path)[case]],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
