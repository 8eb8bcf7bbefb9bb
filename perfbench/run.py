"""cypair benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/digests.json

Workloads (see workloads.py): surgery_stream, witness_grid, cli_corpus.
Each runs single-threaded in a closed loop (one caller, next operation
after the previous one returns), in a fresh interpreter started by this
script, so that set-up time includes ``import cypair`` and peak memory
belongs to that workload alone.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json:
  throughput_ops_s  operations per second, from each operation's fastest pass
  latency_p50_ms    median over operations of each operation's fastest latency
  latency_p90_ms    90th percentile of the same (every pass has >= 100 operations)
  setup_s           spawn to first operation, median of several fresh processes
  peak_rss_mb       peak resident memory of the timed process
--trace 1 reports the per-layer metrics from one traced pass in another
process, plus trace.overhead_ratio (untraced / traced throughput).

Every output is checked, and the outputs of the default-seed pass must match
the digest recorded in digests.json.  A failed check counts in "failed" and
clears "correct".  Inputs that make the CLI crash with a traceback (known
defects) are reported on stderr and in the per-layer metrics cli.crashes and
failed_ratio; they are not counted as failed checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("surgery_stream", "witness_grid", "cli_corpus")
SETUP_PROBES = 10  # plus the timed process itself: the set-up median is over 11 samples
TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float, seconds: float | None = None) -> dict:
    spawned = time.monotonic_ns()
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
            "--seed", str(seed), "--spawned-ns", str(spawned)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(values: dict, trace: int) -> dict:
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def summarize(workload: str, seed: int, run: dict) -> None:
    """One stderr line per run, then each failed check and each crashing input."""
    failed_ratio = (run["failed"] + run["crashes"]) / run["attempted"]
    print(f"{workload} seed {seed}: {run['attempted']} operations, {run['failed']} failed checks, "
          f"{run['crashes']} known crashes, failed_ratio {failed_ratio:.6f}", file=sys.stderr)
    for reason, n in run["failures"].items():
        print(f"  failed check x{n}: {reason}", file=sys.stderr)
    for name, n in run["crashing_inputs"].items():
        print(f"  crashing input x{n}: {name}", file=sys.stderr)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    if trace:
        timed = spawn("timed", workload, seed, deadline, seconds)
        traced = spawn("traced", workload, seed, deadline)
        values = dict(traced["metrics"])
        values["trace.overhead_ratio"] = (
            timed["metrics"]["throughput_ops_s"] / traced["traced_throughput_ops_s"]
        )
        runs = (timed, traced)
    else:
        setups = [spawn("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        timed = spawn("timed", workload, seed, deadline, seconds)
        setups.append(timed["setup_s"])
        values = dict(timed["metrics"], setup_s=statistics.median(setups))
        runs = (timed,)
    for run in runs:
        summarize(workload, seed, run)
    if not timed["digest_ok"]:
        print(f"output digest {timed['digest']} does not match digests.json", file=sys.stderr)
    correct = timed["digest_ok"] and timed["digest_failed"] == 0 and all(r["failed"] == 0 for r in runs)
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": report(values, trace),
    }


def record() -> None:
    deadline = time.monotonic() + TIMEOUT_S * len(WORKLOADS)
    digests = {}
    for w in WORKLOADS:
        out = spawn("digest", w, 0, deadline)
        if out["failed"]:
            raise BenchError(f"{w}: {out['failed']} failed checks; not recording")
        digests[w] = out["digest"]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))


def main() -> int:
    p = argparse.ArgumentParser(description="cypair benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rewrite digests.json from the default seed")
    args = p.parse_args()
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
