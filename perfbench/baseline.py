"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/baseline.py [--runs 10] [--seconds 10] [--workload NAME ...]
                                  [--out perfbench/baseline.json]

For each workload, runs ``run.py --trace 0`` once per seed 1..runs, then
one ``--trace 1`` run at seed 1.  For every end-to-end metric it records
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json.  Also records the Python version, the
processor count and the crashing CLI inputs named by the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported incorrect output:\n{proc.stderr}")
    return result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "runs_per_workload": args.runs,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        if args.workload and name not in args.workload:
            continue
        values = {m: [] for m in bounds}
        for seed in range(1, args.runs + 1):
            result, _ = run(name, seed, args.seconds, 0)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, file=sys.stderr)
        metrics = {}
        for m, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            metrics[m] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[m], "values": vs}
        traced, stderr = run(name, 1, args.seconds, 1)
        record["workloads"][name] = {
            "why": w["why"],
            "end_to_end": metrics,
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
            "crashing_inputs": sorted({
                line.split(":", 1)[1].strip()
                for line in stderr.splitlines() if line.startswith("  crashing input")
            }),
        }
        for m, s in metrics.items():
            print(f"{name} {m}: median {s['median']:.4g} spread {s['spread']:.3f} (bound {s['bound']})",
                  file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
