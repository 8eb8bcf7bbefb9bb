"""Tiny-size self-test of the benchmark harness.

    python3 perfbench/selftest.py      # exit 0 when every check holds

Checks that every declared metric is emitted with its unit, that an
injected wrong verdict raises the failure count, that one crashing
operation does not stop a workload, and that a seed always gives the same
output digest.  Uses the workloads' tiny sizes and runs in a few seconds.
"""

from __future__ import annotations

import sys
import time

import run
import worker  # puts this checkout's src/ on sys.path and imports cypair
from cypair import boundary_graph as bg
from cypair import fiber_criteria as fc

NAMES = run.WORKLOADS


def tiny(name: str, seed: int = 5):
    return worker.make_workload(name, seed, tiny=True)


def one_pass(wl):
    _, tally, _, _ = worker.run_timed(wl, 0.0)
    return tally.summary()


class patched:
    """Temporarily replace a module attribute."""

    def __init__(self, owner, name, value):
        self.owner, self.name, self.value = owner, name, value

    def __enter__(self):
        self.saved = getattr(self.owner, self.name)
        setattr(self.owner, self.name, self.value)

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.saved)


def check_metrics_emitted():
    deadline = time.monotonic() + 60
    for name in NAMES:
        metrics, _, _, _ = worker.run_timed(tiny(name), 0.0)
        metrics["setup_s"] = run.spawn("setup", name, 5, deadline)["setup_s"]
        for trace, values in ((0, metrics), (1, None)):
            if trace:
                values, _, traced_throughput = worker.run_traced(tiny(name), None)
                values["trace.overhead_ratio"] = metrics["throughput_ops_s"] / traced_throughput
            declared = run.declared_metrics(trace)
            assert set(values) == set(declared), (name, set(values) ^ set(declared))
            emitted = run.report(values, trace)
            for metric, unit in declared.items():
                assert emitted[metric]["unit"] == unit and isinstance(emitted[metric]["value"], (int, float))


def check_wrong_verdict_counts():
    original = bg.is_calabi_yau
    with patched(bg, "is_calabi_yau", lambda g: not original(g)):
        s = one_pass(tiny("surgery_stream"))
    assert s["failed"] > 0 and "calabi-yau verdict" in s["failures"], s
    with patched(fc, "prop51_witness_search", lambda g, depth, cap: None):
        s = one_pass(tiny("witness_grid"))
    assert s["failed"] > 0 and any("verdict" in r for r in s["failures"]), s
    clean = one_pass(tiny("cli_corpus"))
    assert clean["failed"] == 0 and clean["crashes"] > 0, clean
    atlas = worker.workloads.atlas

    class FlippedAtlas:
        """gdp_atlas as the CLI sees it, with classify_surface flipped."""

        def __getattr__(self, name):
            return getattr(atlas, name)

        @staticmethod
        def classify_surface(sings):
            v = atlas.classify_surface(sings)
            return atlas.SurfaceVerdict(not v.cluster_type, v.reason)

    with patched(worker.workloads.cli, "atlas", FlippedAtlas()):
        s = one_pass(tiny("cli_corpus"))
    assert s["failed"] > 0 and s["failures"].get("stdout", 0) > 0, s


def check_crash_does_not_stop():
    original = bg.blowdown
    calls = []

    def sometimes_raises(g, vertex):
        calls.append(vertex)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return original(g, vertex)

    wl = tiny("surgery_stream")
    n_ops = sum(1 for _ in wl.ops())
    with patched(bg, "blowdown", sometimes_raises):
        s = one_pass(wl)
    assert s["attempted"] == n_ops and s["failures"] == {"raised RuntimeError": 1}, s


def check_digest_repeats():
    for name in NAMES:
        a = worker.output_digest(tiny(name, 11))
        b = worker.output_digest(tiny(name, 11))
        assert a == b, name


def main() -> int:
    failed = 0
    for check in (check_metrics_emitted, check_wrong_verdict_counts,
                  check_crash_does_not_stop, check_digest_repeats):
        try:
            check()
            print(f"ok    {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
