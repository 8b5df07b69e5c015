"""One workload in one fresh interpreter: repeat, check, measure, report.

``run.py`` starts this file with BLAS/OpenMP threads set to 1. It imports
memheat from the checkout's ``src``, writes the seed's config, and repeats
``cli.load_config`` plus ``cli.run_experiment``/``cli.run_sweep`` until the
time budget is spent. Each repeat writes into its own directory and is
checked there. The last stdout line is the result object.

With ``--trace 1`` repeats alternate untraced and traced, the traced ones
report the per-layer metrics, and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, Probe  # noqa: E402
from tracer import LAYERS, Tracer, aggregate  # noqa: E402
from workloads import THREAD_VARS, WORKLOADS  # noqa: E402


MIN_REPEATS = 3
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


def import_memheat():
    """Import memheat from this checkout only, never an installed copy."""
    src = ROOT / "src"
    if not (src / "memheat" / "__init__.py").is_file():
        raise SystemExit(f"error: no memheat sources under {src}")
    sys.path.insert(0, str(src))
    import memheat
    import memheat.cli
    if Path(memheat.__file__).resolve().parent != src / "memheat":
        raise SystemExit(f"error: imported memheat from {memheat.__file__}")
    return memheat


# -- machine facts -----------------------------------------------------------


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    import numpy
    import scipy
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(idx / 'level')} {_read(idx / 'type')}"] = \
            _read(idx / "size")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "bytes_note": "byte counts are computed from array shapes; "
                          "no bandwidth is measured"}


# -- one repeat --------------------------------------------------------------


def run_once(cli, wl, cfg_path: Path, out: Path, tracer=None) -> dict:
    """Set up and run the workload once; times exclude the checks."""
    load, run = cli.load_config, (cli.run_sweep if wl.is_sweep
                                  else cli.run_experiment)
    if tracer is not None:
        load = tracer.wrap("cli.load_config", load)
        run = tracer.wrap(f"cli.{run.__name__}", run)
    args = (list(wl.sweep_eps),) if wl.is_sweep else ()
    t0 = perf_counter()
    loaded = load(cfg_path)
    t1 = perf_counter()
    code = run(loaded, *args, out)
    t2 = perf_counter()
    return {"code": code, "setup_s": t1 - t0, "run_s": t2 - t0,
            "compute_s": t2 - t1}


def run_traced(memheat, wl, cfg_path: Path, out: Path, tracer) -> dict:
    """``run_once`` with every span installed; the spans stay in ``tracer``."""
    tracer.reset()
    tracer.install(memheat)
    try:
        return run_once(memheat.cli, wl, cfg_path, out, tracer)
    finally:
        tracer.uninstall()


def output_files(wl) -> list:
    names = [wl.output_csv, "summary.json"]
    if wl.checkpoint_step is not None:
        names.append("checkpoint.bin")
    return names


def read_csv(path: Path) -> dict:
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in (rows[0] if rows else {})}


def check_outputs(wl, out: Path, code: int, ref) -> tuple[list, dict]:
    """Problems found in one repeat's outputs, and the files' digests."""
    if code == 2:
        return ["exit code 2: the program refused its input"], {}
    missing = [n for n in output_files(wl) if not (out / n).is_file()]
    if missing:
        return [f"missing outputs {missing}"], {}
    problems = []
    if not wl.is_sweep and code != 0:
        problems.append(f"exit code {code}: a trajectory assertion failed")
    if ref is not None and code != ref["code"]:
        problems.append(f"verdict {code} differs from reference {ref['code']}")
    values = read_csv(out / wl.output_csv)
    if not values or any(len(col) != wl.csv_rows for col in values.values()):
        problems.append(f"{wl.output_csv} does not hold {wl.csv_rows} rows")
    if not all(math.isfinite(v) for col in values.values() for v in col):
        problems.append(f"non-finite value in {wl.output_csv}")
    summary = json.loads((out / "summary.json").read_text())
    if not wl.is_sweep and not summary["assertions"].get(
            "final_state_trace_compatible"):
        problems.append("final state is not trace compatible")
    if ref is not None and not problems:
        for name, want in ref["values"].items():
            got = values.get(name, [])
            scale = max((abs(v) for v in want), default=0.0)
            if len(got) != len(want) or any(
                    abs(g - w) > REFERENCE_RTOL * max(abs(w), 1e-3 * scale)
                    for g, w in zip(got, want)):
                problems.append(f"{wl.output_csv} column {name} is outside "
                                f"rtol {REFERENCE_RTOL} of the reference")
    digests = {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
               for n in output_files(wl)}
    return problems, digests


# -- per-layer metrics from one traced repeat --------------------------------


def _sum(table, field, *names):
    return sum(table[n][field] for n in names if n in table)


def _infos(table, name) -> list:
    return [info for info, _ in table.get(name, {}).get("infos", [])]


def layer_metrics(spans) -> dict:
    """Per-layer values of one traced repeat (see NOTES.md for the table)."""
    t = aggregate(spans)
    run_s = _sum(t, "total_s", "cli.load_config", "cli.run_experiment",
                 "cli.run_sweep")
    first_call = {}  # solve key -> duration of its first call
    for key, dur in t.get("domain.solve_wentzell_shifted", {}).get("infos", []):
        first_call.setdefault(key, dur)
    m = {
        "memory.history_norms_s": _sum(t, "self_s", "memory.k2_norm_sq",
                                       "memory.sup_tau_tail",
                                       "memory.memory_norm_sq"),
        "memory.k2_calls": _sum(t, "calls", "memory.k2_norm_sq"),
        "memory.tail_calls": _sum(t, "calls", "memory.sup_tau_tail"),
        "memory.norm_calls": _sum(t, "calls", "memory.memory_norm_sq"),
        "memory.transport_s": _sum(t, "self_s", "memory.advance_history"),
        "memory.transport_calls": _sum(t, "calls", "memory.advance_history"),
        "memory.transport_bytes": sum(_infos(t, "memory.advance_history")),
        "memory.load_s": _sum(t, "self_s", "memory.convolve_wentzell"),
        "memory.grid_s": _sum(t, "self_s", "memory.build_history_grid"),
        "memory.grid_calls": _sum(t, "calls", "memory.build_history_grid"),
        "domain.solve_s": _sum(t, "self_s", "domain.solve_wentzell_shifted"),
        "domain.solve_calls": _sum(t, "calls", "domain.solve_wentzell_shifted"),
        "domain.factorizations": len(first_call),
        "domain.first_solve_s": sum(first_call.values()),
        "domain.build_s": _sum(t, "self_s", "domain.build_domain"),
        "domain.norm_s": _sum(t, "self_s", "domain.norm_x2_sq",
                              "domain.norm_v1_sq", "domain.norm_v2_sq"),
        "physics.embed_s": _sum(t, "self_s",
                                "physics.estimate_embedding_constant"),
        "physics.nonlinearity_s": _sum(t, "self_s", "physics.make_nonlinearity"),
        "physics.reaction_s": _sum(t, "self_s", "physics.eval_F",
                                   "physics.eval_f", "physics.eval_g"),
        "solver.steps": _sum(t, "calls", "solver.step_peps", "solver.step_p0"),
        "solver.step_self_s": _sum(t, "self_s", "solver.step_peps",
                                   "solver.step_p0", "solver.evolve"),
        "solver.samples": sum(_infos(t, "solver.evolve")),
        "experiments.self_s": sum(row["self_s"] for name, row in t.items()
                                  if name.startswith("experiments.")),
        "experiments.fit_calls": _sum(t, "calls", "experiments.fit_decay"),
        "cli.setup_s": _sum(t, "total_s", "cli.load_config"),
        "cli.self_s": _sum(t, "self_s", "cli.run_experiment", "cli.run_sweep"),
        "cli.checkpoint_bytes": sum(_infos(t, "cli.checkpoint_save")),
        "trace.run_s": run_s,
    }
    for layer in LAYERS:
        own = sum(row["self_s"] for name, row in t.items()
                  if name.startswith(layer + "."))
        m[f"{layer}.self_share"] = own / run_s
    return m


COUNT_METRICS = ("memory.k2_calls", "memory.tail_calls", "memory.norm_calls",
                 "memory.transport_calls", "memory.transport_bytes",
                 "memory.grid_calls", "domain.solve_calls",
                 "domain.factorizations", "solver.steps", "solver.samples",
                 "experiments.fit_calls", "cli.checkpoint_bytes")


def per_layer_units(name: str) -> str:
    if name == "memory.transport_bytes":
        return "B_computed"
    if name == "cli.checkpoint_bytes":
        return "B"
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_share") or name == "trace.overhead":
        return "ratio"
    return "s"


def function_table(spans) -> dict:
    """Per-function calls and times of one traced repeat, for spans.json."""
    return {name: {"calls": row["calls"], "total_s": row["total_s"],
                   "self_s": row["self_s"]}
            for name, row in sorted(aggregate(spans).items())}


# -- the run -----------------------------------------------------------------


def load_reference(name: str, seed: int):
    if not REFERENCE_FILE.is_file():
        return None
    refs = json.loads(REFERENCE_FILE.read_text())
    return refs.get(name, {}).get(str(seed))


def repeat_until(seconds, memheat, wl, cfg_path, work, ref, tracer):
    """Repeat the workload until ``seconds`` are spent, at least
    MIN_REPEATS times; with a tracer, each repeat is an untraced and a
    traced run. Each repeat ends with a machine-speed probe, whose time
    its untraced run keeps as ``probe_s``. Returns the passing runs, the
    failures, the probe times, and the peak resident memory after the
    first run."""
    cli = memheat.cli
    probe, probes = None, []
    plain, traced, failures = [], [], []
    first_digests, first_rss = None, 0.0
    durations = []
    start = perf_counter()
    while len(durations) < MIN_REPEATS or (
            perf_counter() - start + statistics.median(durations) <= seconds):
        t_rep, n_plain = perf_counter(), len(plain)
        for traced_run in ((False, True) if tracer else (False,)):
            out = work / f"rep{len(plain) + len(traced)}"
            gc.collect()
            try:
                res = (run_traced(memheat, wl, cfg_path, out, tracer)
                       if traced_run else run_once(cli, wl, cfg_path, out))
                problems, digests = check_outputs(wl, out, res["code"], ref)
            except Exception as e:  # a failed run is counted, not fatal
                res, problems, digests = None, [f"{type(e).__name__}: {e}"], {}
            shutil.rmtree(out, ignore_errors=True)
            first_digests = first_digests or digests
            if digests and digests != first_digests:
                problems.append("outputs differ from the first run's bytes")
            if problems:
                failures.append(problems)
                print(f"failed run: {problems}", file=sys.stderr)
            elif traced_run:
                res["layers"] = layer_metrics(tracer.spans)
                res["spans"] = list(tracer.spans)
                traced.append(res)
            else:
                # one load and run is what a user's process does; later
                # repeats only add allocator drift to the peak
                if not plain:
                    first_rss = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0
                plain.append(res)
        probe = probe or Probe()
        probes.append(probe())
        for res in plain[n_plain:]:
            res["probe_s"] = probes[-1]
        durations.append(perf_counter() - t_rep)
        if failures and not plain:
            break
    return plain, traced, failures, probes, first_rss


def raw_medians(wl, plain) -> dict:
    """Wall-clock medians of the run, before the speed scaling."""
    return {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "steps_per_s": statistics.median(wl.steps_per_run / r["compute_s"]
                                         for r in plain),
    }


def lower_quartile(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def end_to_end_metrics(wl, plain, probes, first_rss) -> dict:
    """Times scaled to the probe's reference speed (see speed.py).

    Each repeat's run is scaled by the probe that follows it, and the
    lower quartile over repeats is reported: a disturbed host adds time
    to a repeat, so the quartile leaves the disturbed repeats out. Set-up
    is too short to pair with one probe; its median is scaled by the
    probes' median."""
    speed = [REFERENCE_S / r["probe_s"] for r in plain]
    compute_s = lower_quartile(r["compute_s"] * k for r, k in zip(plain, speed))
    values = {"run_s": lower_quartile(r["run_s"] * k
                                      for r, k in zip(plain, speed)),
              "setup_s": statistics.median(r["setup_s"] for r in plain)
              * REFERENCE_S / statistics.median(probes),
              "steps_per_s": wl.steps_per_run / compute_s,
              "peak_rss_mb": first_rss}
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]}
            for n, v in values.items()}


def per_layer_result(traced, plain, failures, spans_path: Path) -> dict:
    """Medians over the traced runs; counts must repeat exactly."""
    unstable = [n for n in COUNT_METRICS
                if len({r["layers"][n] for r in traced}) != 1]
    if unstable:
        failures.append([f"traced counts vary between runs: {unstable}"])
    values = {n: traced[0]["layers"][n] if n in COUNT_METRICS
              else statistics.median(r["layers"][n] for r in traced)
              for n in traced[0]["layers"]}
    values["trace.overhead"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(r["run_s"] for r in plain) - 1.0)
    spans = traced[-1]["spans"]
    t0 = spans[0].start
    spans_path.write_text(json.dumps({
        "functions": function_table(spans),
        "spans": [[s.name, s.parent, s.start - t0, s.end - t0] for s in spans],
    }) + "\n")
    return {n: {"value": v, "unit": per_layer_units(n)}
            for n, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    memheat = import_memheat()
    wl = WORKLOADS[args.workload]
    work = WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(wl.config(args.seed), indent=2) + "\n")
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True), flush=True)

    plain, traced, failures, probes, first_rss = repeat_until(
        args.seconds, memheat, wl, cfg_path, work,
        load_reference(wl.name, args.seed), Tracer() if args.trace else None)
    attempted = len(plain) + len(traced) + len(failures)
    metrics = {}
    if args.trace and traced and plain:
        metrics = per_layer_result(traced, plain, failures, work / "spans.json")
    elif not args.trace and plain:
        metrics = end_to_end_metrics(wl, plain, probes, first_rss)

    result = {"correct": bool(metrics) and not failures,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
             raw=raw_medians(wl, plain) if plain else {},
             probe_s=probes,
             run_s_repeats=[r["run_s"] for r in plain],
             setup_s_repeats=[r["setup_s"] for r in plain],
             traced_run_s_repeats=[r["run_s"] for r in traced],
             failures=failures, machine=facts),
        indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
