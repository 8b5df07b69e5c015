"""Command-line front end: configs, runs, sweeps, checkpoints.

Artifacts are deterministic: one config yields byte-identical
trajectory.csv and summary.json across repeats and across
checkpoint/resume splits. Wall-clock timing is quarantined in
manifest.json so the comparable files stay comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .domain import DiscreteDomain, StateField, build_domain
from .memory import HistoryField, exponential_kernel
from .physics import check_smallness, make_nonlinearity
from .solver import (ProblemConfig, SystemState, TrajectoryRecord,
                     _budget_check, _n_steps, evolve, lift)
from .experiments import (GateError, _decay_gate, _decay_start,
                          energy_decay_experiment, fit_decay, robustness_sweep,
                          smooth_profile)

CHECKPOINT_FORMAT = "memheat-checkpoint-7"

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """A configuration file is malformed, unknown, or inconsistent."""


# -- config schema -----------------------------------------------------------

# Each leaf is (type, default); a nested dict is a config object.
_SCHEMA = {
    "experiment": (str, "trajectory"),
    "domain": {"kind": (str, "interval"), "n": (int, 65)},
    "kernel": {"omega": (float, 0.5), "rate": (float, 1.0)},
    "nonlinearity": {"f": (list, [0.0, 0.0, 0.0, 1.0]),
                     "g": (list, [0.0, 0.0, 0.0, 1.0])},
    "alpha": (float, 0.0),
    "beta": (float, 1.0),
    "eps": (float, 0.1),
    "dt": (float, 0.005),
    "t_final": (float, 1.0),
    "record_stride": (int, 1),
    "history": {"n_s": (int, 128), "spacing": (str, "geometric"),
                "s_max": (float, None)},
    "initial": {"kind": (str, "constant"), "value": (float, 0.5),
                "offset": (float, 0.0), "amplitude": (float, 1.0)},
    "radius": (float, 10.0),
    "tol_frac": (float, 0.05),
    "checkpoint_step": (int, None),
}


def _finite_number(x) -> bool:
    """A JSON number, not a bool, that is finite as a float: False for NaN,
    Infinity and integers beyond the float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _check_keys(user: dict, schema: dict, prefix: str = "") -> None:
    for key, val in user.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(schema[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path!r} must be an object")
            _check_keys(val, schema[key], path + ".")
        elif val is None:
            # null means "the default" only where the default is None
            want, default = schema[key]
            if default is not None:
                raise ConfigError(f"config key {path!r} must be "
                                  f"{want.__name__}, not null")
        else:
            want = schema[key][0]
            if want is float and isinstance(val, (int, float)) \
                    and not isinstance(val, bool):
                # JSON admits NaN, Infinity and integers beyond the floats
                if not _finite_number(val):
                    raise ConfigError(f"config key {path!r} must be finite, "
                                      f"got {val}")
                continue
            if want is int and isinstance(val, bool):
                raise ConfigError(f"config key {path!r} must be {want.__name__}")
            if not isinstance(val, want):
                raise ConfigError(f"config key {path!r} must be {want.__name__}")
            if want is list:
                # the only lists are reaction coefficients
                bad = [x for x in val if not _finite_number(x)]
                if bad:
                    raise ConfigError(f"config key {path!r} must hold finite "
                                      f"numbers, got {json.dumps(bad[0])}")


def _merge(schema: dict, user: dict) -> dict:
    """The user's values over the schema defaults, with every key present."""
    out = {}
    for key, val in schema.items():
        if isinstance(val, dict):
            out[key] = _merge(val, user.get(key, {}))
        else:
            out[key] = user[key] if key in user else val[1]
    return out


def _canonical(user) -> dict:
    """A user config checked against the schema, with every default filled
    in: the canonical form that runs hash and checkpoints embed."""
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(user, _SCHEMA)
    return _merge(_SCHEMA, user)


def canonical_text(canon: dict) -> str:
    """Key-sorted minimal JSON; the hashing and embedding form."""
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def config_hash(canon: dict) -> str:
    return hashlib.sha256(canonical_text(canon).encode()).hexdigest()


@dataclass
class LoadedConfig:
    """A validated configuration with its assembled problem."""

    canon: dict
    sha256: str
    experiment: str
    problem: ProblemConfig
    initial: StateField


def _build_initial(canon: dict, d: DiscreteDomain) -> StateField:
    spec = canon["initial"]
    if spec["kind"] == "constant":
        return d.constant_field(spec["value"])
    if spec["kind"] == "smooth":
        return (d.constant_field(spec["offset"])
                + smooth_profile(d) * spec["amplitude"])
    raise ConfigError(f"unknown initial kind {spec['kind']!r}")


def _check_history_size(canon: dict) -> None:
    """Refuse a history array (n_s rows of bulk nodes) larger than the
    machine's physical memory, from the integers alone, before anything is
    allocated. One history is what a run holds: the transport overwrites
    it in place, and ``evolve`` steps the state it is given."""
    n, kind = max(canon["domain"]["n"], 0), canon["domain"]["kind"]
    nodes = {"interval": n, "square": n * n}.get(kind, 0)
    need = 8 * max(canon["history"]["n_s"], 0) * nodes
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"the history array needs {need} bytes ({need / 2**30:.3g} GiB), "
            f"more than the {have} bytes ({have / 2**30:.3g} GiB) of physical "
            "memory; lower domain.n or history.n_s")


# The most work config load accepts, in steps x bulk nodes x history nodes.
# A step runs at about 3e8 of these per second (square n=129 on one core of
# a 2-core Intel Xeon), so this is some nine hours of stepping, and about
# 77,000 times the largest test, acceptance or benchmark run (square n=129
# over 60 steps, 1.3e8). A run past it almost surely has a mistyped dt or t_final:
# t_final 1e300 would ask for 4e302 steps.
_MAX_WORK = 10**13


def _check_work(n_steps: int, n_bulk: int, n_s: int, runs: int = 1) -> None:
    """Refuse a run, or a sweep of ``runs`` memory runs, whose total work
    exceeds ``_MAX_WORK``, before it starts."""
    work = float(runs) * n_steps * n_bulk * n_s
    if work > _MAX_WORK:
        what, count = ("run", "") if runs == 1 else ("sweep", f"{runs} runs x ")
        raise ConfigError(
            f"the {what} needs {count}{float(n_steps):.3g} steps x {n_bulk} "
            f"bulk nodes x {n_s} history nodes = {work:.3g}, more than the "
            f"{_MAX_WORK:.0e} a {what} may take; raise dt or lower t_final, "
            "domain.n or history.n_s")


def build_from_canonical(canon: dict) -> LoadedConfig:
    """Assemble and validate the full problem from a canonical config."""
    exp = canon["experiment"]
    if exp not in ("trajectory", "energy_decay"):
        raise ConfigError(f"unknown experiment {exp!r}")
    _check_history_size(canon)

    try:
        d = build_domain(canon["domain"]["kind"], canon["domain"]["n"])
        kernel = exponential_kernel(canon["kernel"]["omega"],
                                    canon["kernel"]["rate"])
        nl = make_nonlinearity(canon["nonlinearity"]["f"],
                               canon["nonlinearity"]["g"])
        problem = ProblemConfig(d, kernel, nl, alpha=canon["alpha"],
                                beta=canon["beta"], eps=canon["eps"],
                                dt=canon["dt"], t_final=canon["t_final"],
                                record_stride=canon["record_stride"],
                                history=canon["history"])
        # refuse here what run would: a history recipe, a t_final, a dt
        # above the reaction budget of the data the experiment integrates,
        # and a failing smallness gate of the experiment that asserts decay
        problem.grid
        n_total = _n_steps(problem)
        _check_work(n_total, d.n_bulk, canon["history"]["n_s"])
        initial = _build_initial(canon, d)
        if exp == "energy_decay":
            _decay_gate(problem)
            _budget_check(problem, _decay_start(d, canon["radius"]))
        else:
            _budget_check(problem, initial)
    except (GateError, ValueError) as e:
        raise ConfigError(str(e)) from e

    ck = canon["checkpoint_step"]
    if ck is not None:
        if exp != "trajectory":
            raise ConfigError("checkpoint_step only applies to the "
                              "trajectory experiment")
        if not 0 < ck < n_total:
            raise ConfigError(f"checkpoint_step must lie in (0, {n_total})")
        if ck % canon["record_stride"] != 0:
            raise ConfigError("checkpoint_step must be a multiple of "
                              "record_stride so split runs record the "
                              "same samples")

    return LoadedConfig(canon=canon, sha256=config_hash(canon),
                        experiment=exp, problem=problem, initial=initial)


def load_config(path) -> LoadedConfig:
    """Parse, key-check, default-fill, and assemble a config file."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        user = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return build_from_canonical(_canonical(user))


# -- checkpoints -------------------------------------------------------------


@dataclass
class Checkpoint:
    """A loaded checkpoint: its state, the problem its config rebuilds, and
    the recorded columns up to its step."""

    state: SystemState
    loaded: LoadedConfig
    records: dict


def _layout(n_bulk: int, grid, phi_rows: int, samples: int) -> list:
    """The (name, shape) of each stored array, in file order: the field's
    bulk (its boundary values are its trace); with a history (``grid`` not
    None), its first ``phi_rows`` bulk rows, up to the start of its flat
    tail, which the rows above repeat, and the grid's nodes; then each
    recorded column, ``samples`` values long."""
    layout = [("u_bulk", (n_bulk,))]
    if grid is not None:
        layout += [("phi_bulk", (phi_rows, n_bulk)), ("s_nodes", (grid.n_s,))]
    return layout + [(f"rec_{name}", (samples,))
                     for name in TrajectoryRecord.COLUMNS]


def checkpoint_save(state: SystemState, path, canon: dict,
                    records: dict) -> None:
    """One-line JSON header, then raw little-endian binary64 arrays.

    The header embeds the full canonical config and its hash, so a resume
    needs no external config file, and the count ``phi_rows`` of stored
    history rows, the one number of the ``_layout`` the config does not
    imply. ``records`` holds the recorded columns up to ``state.step``.
    Each array is written from its own buffer, so saving copies no history,
    and a history is written up to the start of its flat tail.
    """
    phi = state.phi
    phi_rows = 0 if phi is None else phi.rest + 1
    values = {f"rec_{name}": col for name, col in records.items()}
    values["u_bulk"] = state.u.bulk
    if phi is not None:
        values.update(phi_bulk=phi.bulk[:phi_rows], s_nodes=phi.grid.s_nodes)
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": canon,
        "config_sha256": config_hash(canon),
        "step": state.step,
        "phi_rows": phi_rows,
    }
    layout = _layout(state.u.bulk.size, None if phi is None else phi.grid,
                     phi_rows, state.step // canon["record_stride"] + 1)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode() + b"\n")
        for name, _ in layout:
            fh.write(np.ascontiguousarray(values[name], dtype="<f8").data)


def checkpoint_load(path) -> Checkpoint:
    """Load a checkpoint, rebuilding the problem from the embedded config.

    Refuses on any inconsistency: an unreadable file, a header of another
    format or with entries missing, corrupted header hash, an embedded
    config that ``load_config`` would refuse or would change, a step off
    the run's record grid, a ``phi_rows`` outside 1 to n_s (0 without a
    history), a payload of another size than the ``_layout`` the config
    implies, or a rebuilt history grid whose nodes do not match the stored
    ones bit for bit.

    A history is stored as its rows up to the start of its flat tail: the
    last stored row is ``rest``, and the rows above it are filled with it,
    in the buffer of n_s rows that the stored rows are read into.
    """
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            start, end = fh.tell(), os.fstat(fh.fileno()).st_size
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from e
    found = header.get("format") if isinstance(header, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint refused: {path} has format {found!r}, "
                          f"expected {CHECKPOINT_FORMAT!r}")
    missing = sorted({"config", "config_sha256", "step", "phi_rows"}
                     - header.keys())
    if missing:
        raise ConfigError(f"checkpoint refused: the header of {path} lacks "
                          + ", ".join(missing))
    canon = header["config"]
    if config_hash(canon) != header["config_sha256"]:
        raise ConfigError("checkpoint refused: embedded config does not "
                          "match its stored hash (file corrupted?)")
    try:
        canonical = _canonical(canon)
    except ConfigError as e:
        raise ConfigError(f"checkpoint refused: its embedded config is "
                          f"invalid: {e}") from e
    if canonical != canon:
        raise ConfigError("checkpoint refused: its embedded config is not "
                          "canonical; load_config would fill in defaults")

    loaded = build_from_canonical(canon)
    problem = loaded.problem
    step, phi_rows = header["step"], header["phi_rows"]
    stride, n_total = problem.record_stride, _n_steps(problem)
    if type(step) is not int or not 0 <= step <= n_total:
        raise ConfigError("checkpoint refused: its step must be an integer "
                          f"in [0, {n_total}], found {step!r}")
    if step % stride:
        raise ConfigError(f"checkpoint refused: its step {step} is not a "
                          f"multiple of record_stride {stride}")
    grid = problem.grid
    lo, hi = (0, 0) if grid is None else (1, grid.n_s)
    if type(phi_rows) is not int or not lo <= phi_rows <= hi:
        raise ConfigError("checkpoint refused: its phi_rows must be an "
                          f"integer in [{lo}, {hi}], found {phi_rows!r}")
    layout = _layout(problem.domain.n_bulk, grid, phi_rows, step // stride + 1)
    counts = [math.prod(shape) for _, shape in layout]
    short = ConfigError(f"checkpoint refused: binary payload size "
                        f"{end - start} does not match the {8 * sum(counts)} "
                        "bytes of the layout its config implies")
    if 8 * sum(counts) != end - start:
        raise short
    # each array is read from the file into its own buffer, and a history
    # into the leading rows of one of n_s rows, so loading holds no
    # payload-sized copy next to the arrays
    arrays = {}
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            for (name, shape), count in zip(layout, counts):
                arr = np.empty((grid.n_s, shape[1]) if name == "phi_bulk"
                               else shape, dtype="<f8")
                if fh.readinto(arr.reshape(-1)[:count]) != 8 * count:
                    raise short
                arrays[name] = arr
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from e

    u = problem.domain.field_from_bulk(arrays.pop("u_bulk"))
    phi = None
    if grid is not None:
        if not np.array_equal(arrays.pop("s_nodes"), grid.s_nodes):
            raise ConfigError("checkpoint refused: stored history grid "
                              "differs from the one the config rebuilds")
        bulk = arrays.pop("phi_bulk")
        bulk[phi_rows:] = bulk[phi_rows - 1]
        phi = HistoryField(grid, bulk, problem.domain.boundary_index,
                           phi_rows - 1)
    records = {name[4:]: col for name, col in arrays.items()}
    return Checkpoint(SystemState(u, phi, step), loaded, records)


# -- artifact writers --------------------------------------------------------


def _write_csv(path: Path, columns) -> None:
    lines = [",".join(name for name, _ in columns)]
    n = len(columns[0][1])
    for i in range(n):
        lines.append(",".join(repr(float(arr[i])) for _, arr in columns))
    path.write_text("\n".join(lines) + "\n")


def _manifest(loaded: LoadedConfig, outputs) -> dict:
    return {
        "config_sha256": loaded.sha256,
        "tool_version": __version__,
        "experiment": loaded.experiment,
        "outputs": sorted(outputs),
    }


def _write_summary(out: Path, summary: dict, manifest: dict,
                   wall_clock: float) -> None:
    summary = dict(summary, manifest=manifest)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    stamped = dict(manifest, wall_clock_seconds=wall_clock,
                   written_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    (out / "manifest.json").write_text(
        json.dumps(stamped, sort_keys=True, indent=2) + "\n")


def _fit_summary(times, energy) -> dict:
    """The energy's decay fit, or none for fewer than 10 samples or a
    sample that is negative or not finite (a blow-up)."""
    energy = np.asarray(energy)
    if len(times) < 10 or not np.all(np.isfinite(energy)) \
            or np.any(energy < 0.0):
        return {}
    fit = fit_decay(np.asarray(times), energy)
    return {"energy": {"amplitude": fit.amplitude, "rate": fit.rate,
                       "offset": fit.offset, "residual": fit.residual}}


# -- experiment drivers ------------------------------------------------------


def _merge_records(head: dict, tail: TrajectoryRecord) -> TrajectoryRecord:
    """Concatenate stored rows with a continuation record, dropping the
    duplicated seam sample (the continuation re-records its start state)."""
    return TrajectoryRecord(*(np.concatenate([head[name], col[1:]])
                              for name, col in tail.columns()),
                            final_state=tail.final_state)


def _integrate(loaded: LoadedConfig, out: Path,
               start: Optional[Checkpoint]) -> tuple:
    """Run the trajectory, through the checkpoint seam if one is set, and
    return its columns and final field. The run holds one history: both
    halves step the same state's history in place, and a checkpoint
    ``start`` hands its state over. It is released when this returns."""
    cfg = loaded.problem
    if start is None:
        state = lift(loaded.initial, cfg)
        head = None
        ck = loaded.canon["checkpoint_step"]
        if ck is not None:
            part = dataclasses.replace(cfg, t_final=ck * cfg.dt)
            rec1 = evolve(state, part)
            head, state = dict(rec1.columns()), rec1.final_state
            checkpoint_save(state, out / "checkpoint.bin", loaded.canon,
                            records=head)
    else:
        state, start.state = start.state, None
        head = start.records

    rec = evolve(state, cfg)
    if head is not None:
        rec = _merge_records(head, rec)
    return rec.columns(), rec.final_state.u


def _run_trajectory(loaded: LoadedConfig, out: Path,
                    start: Optional[Checkpoint] = None) -> tuple:
    cfg = loaded.problem
    # the decay fit runs after the run's history is released, so the two
    # do not add up in the peak memory
    columns, u_final = _integrate(loaded, out, start)
    values = dict(columns)

    finite = bool(all(np.all(np.isfinite(col)) for _, col in columns))
    compatible = bool(cfg.domain.is_trace_compatible(u_final, tol=1e-9))
    summary = {
        "experiment": "trajectory",
        "eps": cfg.eps,
        "assertions": {"all_samples_finite": finite,
                       "final_state_trace_compatible": compatible},
        "fits": _fit_summary(values["t"], values["energy_h0"]),
        "results": {"t_final": float(values["t"][-1]),
                    "energy_h0_final": float(values["energy_h0"][-1]),
                    "energy_v1_final": float(values["energy_v1"][-1])},
    }
    _write_csv(out / "trajectory.csv", columns)
    ok = finite and compatible
    return (EXIT_PASS if ok else EXIT_ASSERTION), summary, ["trajectory.csv"]


def _run_energy_decay(loaded: LoadedConfig, out: Path) -> tuple:
    cfg = loaded.problem
    rep = energy_decay_experiment(cfg, loaded.canon["radius"],
                                  tol_frac=loaded.canon["tol_frac"])
    summary = {
        "experiment": "energy_decay",
        "eps": cfg.eps,
        "assertions": {"decay_bound_every_sample": rep.violations == 0,
                       "absorbed_by_t0": rep.absorbed_by_t0},
        "results": {"m0": rep.gate.m0, "p0": rep.gate.p0,
                    "c_f": rep.gate.c_f, "gate_threshold": rep.gate.threshold,
                    "violations": rep.violations,
                    "max_excess": rep.max_excess,
                    "t_absorb": rep.t_absorb, "t0": rep.t0},
    }
    _write_csv(out / "trajectory.csv", rep.record.columns())
    code = EXIT_PASS if rep.passed else EXIT_ASSERTION
    times, energy = rep.times, rep.energy
    del rep  # the fit runs after the run's last history is released
    summary["fits"] = _fit_summary(times, energy)
    return code, summary, ["trajectory.csv"]


def _check_output_dir(out_dir) -> None:
    """Refuse, creating nothing, an output path whose nearest existing
    ancestor (or itself) is not a writable directory."""
    out = Path(out_dir).absolute()
    base = next(p for p in (out, *out.parents) if p.exists())
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot create output dir {out_dir}: {base} is "
                          "not a writable directory")


def _output_dir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output dir {out}: {e}") from e
    return out


def run_experiment(loaded: LoadedConfig, out_dir,
                   start: Optional[Checkpoint] = None) -> int:
    """Execute the configured experiment, writing all artifacts."""
    out = _output_dir(out_dir)
    t0 = time.perf_counter()
    # the manifest lists the comparable artifacts only, so a resumed run
    # and its uninterrupted twin write identical summaries
    if loaded.experiment == "trajectory":
        code, summary, outputs = _run_trajectory(loaded, out, start)
    else:
        code, summary, outputs = _run_energy_decay(loaded, out)
    outputs = outputs + ["summary.json"]
    _write_summary(out, summary, _manifest(loaded, outputs),
                   time.perf_counter() - t0)
    return code


def _sweep_eps(text: str, problem: ProblemConfig) -> list[float]:
    """The ``--eps`` list of a sweep, checked whole before any work: at
    least two distinct entries, each above 0, a horizon ``problem`` admits
    (its own rules: eps in (0, 1] and dt <= eps / 10), and one whose audit
    window [sqrt(eps), t_final] holds an observed step, by the observer's
    own rule (step k is in it if k dt >= sqrt(eps) - 1e-12, and the last
    step is always observed). The sweep's total work, one memory run per
    entry, must stay within ``_MAX_WORK``. The check builds no grid."""
    toks = [tok for tok in text.split(",") if tok]
    try:
        eps_list = [float(tok) for tok in toks]
    except ValueError as e:
        raise ConfigError(f"bad --eps list {text!r}") from e
    if len(eps_list) < 2:
        raise ConfigError(f"bad --eps list {text!r}: the sweep fits a slope, "
                          f"so it needs at least two values, found "
                          f"{len(eps_list)}")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigError(f"bad --eps list {text!r}: each eps may appear "
                          "only once")
    for tok, eps in zip(toks, eps_list):
        try:
            if not eps > 0.0:
                raise ValueError("the sweep compares memory problems with "
                                 "the limit, so eps must be above 0")
            run = dataclasses.replace(problem, eps=eps)
            if _n_steps(run) * run.dt < math.sqrt(eps) - 1e-12:
                raise ValueError(f"its audit window [sqrt(eps), t_final] = "
                                 f"[{math.sqrt(eps):.6g}, {run.t_final:.6g}] "
                                 "is empty")
        except ValueError as e:
            raise ConfigError(f"bad --eps entry {tok!r}: {e}") from e
    _check_work(_n_steps(problem), problem.domain.n_bulk,
                problem.history["n_s"], runs=len(eps_list))
    return eps_list


def run_sweep(loaded: LoadedConfig, eps_list, out_dir) -> int:
    """Robustness sweep against the instantaneous limit problem. Every eps
    runs on a history grid built with the config's ``history`` recipe,
    whatever the config's own eps. The sweep writes its files only at the
    end, so ``out_dir`` is checked before it runs but made once it has run:
    a recipe that some eps refuses leaves no output directory behind."""
    _check_output_dir(out_dir)
    t0 = time.perf_counter()
    sw = robustness_sweep(loaded.problem, eps_list, loaded.initial)
    out = _output_dir(out_dir)
    summary = {
        "experiment": "sweep_eps",
        "assertions": {"sqrt_envelope_holds": sw.bound_ok,
                       "errors_monotone": sw.monotone},
        "fits": {"loglog": {"slope": sw.slope, "intercept": sw.intercept}},
        "results": {"eps": [float(e) for e in sw.eps],
                    "errors": [float(e) for e in sw.errors],
                    "c_calibrated": sw.c_calibrated},
    }
    _write_csv(out / "sweep.csv", [("eps", sw.eps), ("err", sw.errors)])
    _write_summary(out, summary, _manifest(loaded, ["sweep.csv", "summary.json"]),
                   time.perf_counter() - t0)
    return EXIT_PASS if (sw.bound_ok and sw.monotone) else EXIT_ASSERTION


PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Generic plotting template for memheat artifacts. Requires matplotlib.
import csv
import json
import sys
from pathlib import Path

import matplotlib.pyplot as plt

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
summary = json.loads((out / "summary.json").read_text())
print(json.dumps(summary.get("results", {}), indent=2))

for name in ("trajectory.csv", "sweep.csv"):
    path = out / name
    if not path.exists():
        continue
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    cols = {k: [float(r[k]) for r in rows] for k in rows[0]}
    x_key = "t" if "t" in cols else "eps"
    fig, ax = plt.subplots()
    for key, vals in cols.items():
        if key != x_key:
            ax.plot(cols[x_key], vals, label=key)
    if x_key == "eps":
        ax.set_xscale("log"); ax.set_yscale("log")
    ax.set_xlabel(x_key); ax.legend(); ax.set_title(name)
    fig.savefig(out / name.replace(".csv", ".png"), dpi=150)
    print("wrote", out / name.replace(".csv", ".png"))
"""


def _print_gate(loaded: LoadedConfig) -> None:
    cfg = loaded.problem
    g = check_smallness(cfg.nonlinearity, cfg.omega, cfg.beta,
                        cfg.kernel.delta)
    if g.passes:
        print(f"gate: C_F={g.c_f:.6g} < {g.threshold:.6g} -> pass "
              f"(m0={g.m0:.6g}, p0={g.p0:.6g})")
    else:
        print(f"gate: C_F={g.c_f:.6g} >= {g.threshold:.6g} -> FAIL "
              "(decay estimate not guaranteed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memheat",
        description="heat flow with fading memory: runs, sweeps, checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep-eps", help="robustness sweep over eps")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--eps", required=True,
                         help="comma-separated eps values, e.g. 0.2,0.1,0.05")
    p_sweep.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="validate a config and report")
    p_val.add_argument("--config", required=True)

    p_res = sub.add_parser("resume", help="continue a checkpointed run")
    p_res.add_argument("--checkpoint", required=True)
    p_res.add_argument("--out", required=True)

    p_plot = sub.add_parser("plot-script",
                            help="emit a generic plotting script template")
    p_plot.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            loaded = load_config(args.config)
            _print_gate(loaded)
            return run_experiment(loaded, args.out)
        if args.command == "sweep-eps":
            loaded = load_config(args.config)
            return run_sweep(loaded, _sweep_eps(args.eps, loaded.problem),
                             args.out)
        if args.command == "validate":
            loaded = load_config(args.config)
            print(f"config ok: sha256 {loaded.sha256}")
            print(f"experiment: {loaded.experiment}")
            _print_gate(loaded)
            return EXIT_PASS
        if args.command == "resume":
            ck = checkpoint_load(args.checkpoint)
            return run_experiment(ck.loaded, args.out, start=ck)
        if args.command == "plot-script":
            if args.out is None:
                sys.stdout.write(PLOT_TEMPLATE)
            else:
                try:
                    Path(args.out).write_text(PLOT_TEMPLATE)
                except OSError as e:
                    raise ConfigError(f"cannot write {args.out}: {e}") from e
            return EXIT_PASS
        raise ConfigError(f"unknown command {args.command!r}")
    except ValueError as e:  # ConfigError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
