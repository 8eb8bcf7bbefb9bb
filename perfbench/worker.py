"""One workload in one fresh interpreter; prints one JSON object as its last line.

Modes:
  setup   import cypair, build the inputs, report the time of the would-be
          first operation and exit (set-up probes);
  timed   run whole passes of the workload until --seconds have elapsed,
          check every output, then replay the default-seed pass and compare
          its output digest with the recorded one;
  traced  run one pass with every layer boundary wrapped in spans and report
          per-layer counts and self times (never end-to-end numbers);
  digest  print the output digest of the default-seed pass.

Usage: python3 perfbench/worker.py MODE --workload NAME --seed N
       [--seconds S] [--spawned-ns T]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DIGEST_SEED = 1
DIGESTS = HERE / "digests.json"

_t0 = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import cypair  # noqa: E402  (timed: this is the import users pay for)

IMPORT_S = time.perf_counter() - _t0
if not Path(cypair.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"cypair imported from {cypair.__file__}, not from this checkout's src/")

import workloads  # noqa: E402


class Raised(tuple):
    """An operation that raised instead of returning: (exception class name,)."""


def make_workload(name: str, seed: int, tiny: bool = False):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliCorpus:
        OUT_DIR.mkdir(exist_ok=True)
        return cls(seed, OUT_DIR, tiny=tiny)
    return cls(seed, tiny=tiny)


def call(fn):
    try:
        return fn()
    except Exception as exc:  # one failing operation must not stop the workload
        return Raised((type(exc).__name__,))


def judge(wl, i, out) -> str | None:
    """The check's verdict on one output: None when it holds, else a reason."""
    if isinstance(out, Raised):
        return f"raised {out[0]}"
    try:
        return wl.check(i, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


class Tally:
    """Failures and known crashes over every operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.crashed = Counter()

    def add(self, wl, i, out, reason):
        self.attempted += 1
        if reason is not None:
            self.failed[reason] += 1
        crash = None if isinstance(out, Raised) else wl.crash(out)
        if crash and reason is None:
            label = getattr(wl, "known_crashers", {}).get(i, "?")
            self.crashed[f"{label}: {crash}"] += 1

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": sum(self.failed.values()),
            "crashes": sum(self.crashed.values()),
            "failures": dict(self.failed.most_common(10)),
            "crashing_inputs": dict(self.crashed),
        }


def output_digest(wl, tally: Tally | None = None) -> str:
    h = hashlib.sha256()
    for i, fn in enumerate(wl.ops()):
        out = call(fn)
        if tally is not None:
            tally.add(wl, i, out, judge(wl, i, out))
        h.update(f"{i}:".encode())
        h.update(b"raised " + out[0].encode() if isinstance(out, Raised) else wl.canon(out))
        h.update(b"\n")
    return h.hexdigest()


def percentile(sorted_values, q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[round(q * 100) - 1]


def run_timed(wl, seconds: float):
    """Whole passes until ``seconds`` have elapsed.

    Returns the end-to-end metrics, the tally of checks, the monotonic time
    of the first operation and the pass counts.
    """
    tally = Tally()
    first_out, first_reason = [], []
    passes = []  # one array of per-operation nanoseconds per pass
    clock = time.perf_counter_ns
    first_op_ns = None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        lat = array("q")
        for i, fn in enumerate(wl.ops()):
            if first_op_ns is None:
                first_op_ns = time.monotonic_ns()
            t0 = clock()
            out = call(fn)
            lat.append(clock() - t0)
            if not passes:
                first_out.append(out)
                first_reason.append(judge(wl, i, out))
                reason = first_reason[i]
            else:
                reason = first_reason[i] if out == first_out[i] else "output changed between passes"
            tally.add(wl, i, out, reason)
        passes.append(lat)
    # each operation is deterministic and single-threaded, so the host's time
    # sharing only ever adds to its time: take its fastest pass
    per_op = sorted(min(p[i] for p in passes) for i in range(len(passes[0])))
    metrics = {
        "throughput_ops_s": len(per_op) * 1e9 / sum(per_op),
        "latency_p50_ms": percentile(per_op, 0.50) / 1e6,
        "latency_p90_ms": percentile(per_op, 0.90) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"passes": len(passes), "ops_per_pass": len(passes[0])}
    return metrics, tally, first_op_ns, info


def layer_metric(layer: str, what: str) -> str:
    return f"{layer}_{what}" if "." in layer else f"{layer}.{what}"


def run_traced(wl, spans_path: Path | None):
    import tracing

    tracer = tracing.Tracer()
    outs, lat = [], []
    tracer.install()
    try:
        for fn in wl.ops():
            t0 = time.perf_counter_ns()
            outs.append(call(lambda: tracer.op(fn)))
            lat.append(time.perf_counter_ns() - t0)
    finally:
        tracer.uninstall()
    tally = Tally()
    for i, out in enumerate(outs):
        tally.add(wl, i, out, judge(wl, i, out))
    calls, self_ns = tracer.self_times()
    metrics = {}
    for lid, layer in enumerate(tracer.layers):
        if layer == tracing.OP:
            continue
        metrics[layer_metric(layer, "calls")] = calls[lid]
        metrics[layer_metric(layer, "self_s")] = self_ns[lid] / 1e9
    s = tally.summary()
    metrics.update({
        "fiber_criteria.search_blowups": tracer.calls_under(
            "boundary_graph.blowup_corner", "fiber_criteria.search"),
        "fiber_criteria.found_ratio": tracer.found / tracer.searches if tracer.searches else 0.0,
        "cli.exit_2": tracer.cli_exits.get(2, 0),
        "cli.exit_3": tracer.cli_exits.get(3, 0),
        "cli.crashes": tracer.cli_exits.get(1, 0),
        "cli.import_s": IMPORT_S,
        "failed_ratio": (s["failed"] + s["crashes"]) / s["attempted"],
    })
    if spans_path is not None:
        tracer.write(spans_path)
    return metrics, tally, len(outs) * 1e9 / sum(lat)


def recorded_digest(name: str) -> str | None:
    try:
        return json.loads(DIGESTS.read_text())[name]
    except (OSError, KeyError, ValueError):
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "timed", "traced", "digest"))
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--spawned-ns", type=int, help="monotonic time at which the parent spawned us")
    args = p.parse_args(argv)

    if args.mode == "digest":
        tally = Tally()
        digest = output_digest(make_workload(args.workload, DIGEST_SEED), tally)
        print(json.dumps({"digest": digest, **tally.summary()}))
        return 0

    wl = make_workload(args.workload, args.seed)
    if args.mode == "setup":
        ready = time.monotonic_ns()
        print(json.dumps({"setup_s": (ready - args.spawned_ns) / 1e9}))
        return 0
    if args.mode == "traced":
        OUT_DIR.mkdir(exist_ok=True)
        metrics, tally, throughput = run_traced(wl, OUT_DIR / f"{args.workload}.spans.tsv")
        print(json.dumps({"metrics": metrics, "traced_throughput_ops_s": throughput, **tally.summary()}))
        return 0

    metrics, tally, first_op_ns, info = run_timed(wl, args.seconds)
    digest_tally = Tally()
    digest = output_digest(make_workload(args.workload, DIGEST_SEED), digest_tally)
    expected = recorded_digest(args.workload)
    result = {
        "metrics": metrics,
        "setup_s": (first_op_ns - args.spawned_ns) / 1e9 if args.spawned_ns else None,
        "digest": digest,
        "digest_ok": digest == expected,
        "digest_failed": digest_tally.summary()["failed"],
        **info,
        **tally.summary(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
