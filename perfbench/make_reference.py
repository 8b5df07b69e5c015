"""Regenerate reference.json: each workload's verdict and CSV values per seed.

Run from the root of a checkout whose program is trusted:

    python3 perfbench/make_reference.py

A benchmark run with a stored seed fails when its exit code differs from
the stored one or a CSV value leaves the relative tolerance that
``bench.REFERENCE_RTOL`` states. Values are stored to 10 significant
digits, far inside that tolerance.
"""

from __future__ import annotations

import json
import shutil

import bench
from workloads import WORKLOADS

# the seeds whose runs are checked against a stored reference
REFERENCE_SEEDS = range(10)


def main() -> int:
    cli = bench.import_memheat().cli
    work = bench.WORK_DIR / "reference"
    refs = {}
    for name, wl in sorted(WORKLOADS.items()):
        refs[name] = {}
        for seed in REFERENCE_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(wl.config(seed)))
            res = bench.run_once(cli, wl, cfg_path, work / "out")
            problems, _ = bench.check_outputs(wl, work / "out", res["code"], None)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {problems}")
            values = bench.read_csv(work / "out" / wl.output_csv)
            refs[name][str(seed)] = {
                "initial": wl.initial_data(seed), "code": res["code"],
                "values": {k: [float(f"{v:.10g}") for v in col]
                           for k, col in values.items()}}
            print(name, seed, "exit", res["code"], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    bench.REFERENCE_FILE.write_text(json.dumps(refs, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
