"""memheat benchmark: run workloads, check their outputs, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload square65-dense-record --seed 1 \\
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in a
fresh single-threaded interpreter (``bench.py``). The result lines name
every metric with its unit; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Exit code 2 means the benchmark could not run at all, for
instance because the checkout holds no memheat sources.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import THREAD_VARS, WORKLOADS  # noqa: E402



def child_timeout(seconds: int) -> int:
    """Seconds a workload's interpreter may take: its budget, one repeat
    that starts just inside it, and start-up."""
    return 2 * seconds + 90


def run_workload(name: str, seed: int, seconds: int, trace: int):
    """Run one workload in its own interpreter; its result object or None."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=child_timeout(seconds))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: {name} exceeded {child_timeout(seconds)} s",
                  file=sys.stderr)
            return None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(f"{name} {line}")
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="memheat benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "memheat" / "__init__.py").is_file():
        print(f"error: no memheat sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_rate {res['failed'] / res['attempted']:.6g} "
              f"ratio ({res['failed']} failed of {res['attempted']} runs)")

    if len(names) == 1:
        print(json.dumps(results[names[0]]), flush=True)
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
