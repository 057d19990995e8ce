"""Benchmark runner.

    python3 perfbench/run.py --workload relations-box --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nothing is installed.  Seed 0 reproduces the acceptance
battery's own draws.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.

A run builds its inputs and then times whole passes over the workload's
checks while the next pass, if it takes as long as the ones before, ends
within ``--seconds`` (at least one pass); each pass uses freshly built
representations, so the image caches start cold.  Set-up time is measured
separately, in fresh processes (see ``setup_probe``).  Times are scaled to
a reference speed of the host (``harness.RefClock``); the times as measured
are printed on the lines before the result.  A traced run makes one traced
and one untraced pass whatever ``--seconds`` says, and reports times as
measured.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6


def _load_workloads():
    """Import cycdaha from this checkout's ``src/`` only, and the workloads."""
    if not (SRC / "cycdaha" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cycdaha sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    return importlib.import_module("workloads")


def _import_library(workloads, workload):
    t0 = time.perf_counter()
    for name in workloads.modules(workload):
        importlib.import_module(name)
    return time.perf_counter() - t0


def setup_probe(workload, seed):
    """Set-up time of a fresh process: it imports the library and builds the
    workload's inputs, as a command-line user pays for them, and reports
    that time as measured and scaled to the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def setup_only(workloads, workload, seed):
    from harness import RefClock

    clock = RefClock()
    clock.start()
    _import_library(workloads, workload)
    workloads.build(workload, seed)
    scaled, raw = clock.mark()
    print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))


def run_untraced(workloads, workload, seed, seconds):
    """Time whole passes while the next one, as long as the last, still ends
    within ``seconds`` (at least one pass)."""
    from harness import REF_SECONDS, RefClock, one_pass

    clock = RefClock()
    # half the set-up probes before the passes and half after, so that a
    # drift in machine speed during the run shows in both
    setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES // 2)]
    passes = []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0) * (len(passes) + 1) <= seconds * len(passes):
        passes.append(one_pass(workloads.build(workload, seed), clock))
    setups += [setup_probe(workload, seed) for _ in range(SETUP_PROBES - len(setups))]
    # a check's latency is its median over the passes; p50 and p90 are
    # taken over the checks
    latencies = [statistics.median(x) for x in zip(*(c.latencies for c in passes))]
    raw_latencies = [statistics.median(x) for x in zip(*(c.raw_latencies for c in passes))]
    attempted = sum(checks.attempted for checks in passes)
    failed = sum(checks.failed for checks in passes)
    problems = [p for checks in passes for p in checks.invalid()]
    digests = {checks.digest.hexdigest() for checks in passes}
    if len(digests) > 1:
        problems.append("passes of one run disagree on their outputs")
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(raw_latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(checks.wall for checks in passes), "s"),
        "check_p50_ms": (1000 * deciles[4], "ms"),
        "check_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    info = {"passes": len(passes), "checks_per_pass": passes[0].attempted,
            "monomials_per_pass": passes[0].monomials,
            "outputs_sha256": sorted(digests),
            # the host's speed over the run, relative to the reference speed
            "host_speed": REF_SECONDS / statistics.median(clock.refs),
            # the same times as measured, before scaling to the reference speed
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "raw_wall_s": statistics.median(checks.raw_wall for checks in passes),
            "raw_check_p50_ms": 1000 * raw_deciles[4],
            "raw_check_p90_ms": 1000 * raw_deciles[8]}
    return problems, attempted, failed, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (a set-up probe)")
    args = ap.parse_args(argv)
    workloads = _load_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.setup_only:
        setup_only(workloads, args.workload, args.seed)
        return 0
    import_s = _import_library(workloads, args.workload)
    if args.trace:
        import tracer

        problems, attempted, failed, metrics, info = tracer.run_traced(
            lambda: workloads.build(args.workload, args.seed), import_s)
    else:
        problems, attempted, failed, metrics, info = run_untraced(
            workloads, args.workload, args.seed, args.seconds)
    for p in problems:
        print(f"invalid: {p}", file=sys.stderr)
    for k, v in info.items():
        print(f"{k}: {json.dumps(v)}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
