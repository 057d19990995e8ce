"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Mutant: relation R1 of the daha catalog with its right side scaled by
   8/7 must be reported as a failed check, lowering the pass ratio.
2. Vacuous sweep: ``verify_family`` with box radius -1 compares nothing and
   reports a pass; the harness must mark that pass invalid.
3. Hash seeds: the traced run of every workload at seed 0, under
   PYTHONHASHSEED 0 and 1, must give identical counts and outputs.
4. Layer contrast, from those traced runs: composing cached images costs
   more than computing fresh ones on relations-box and less on
   relations-random; quasi-geometry makes no operator-engine calls; the
   relation workloads do no row echelon.

It also prints every wrapped entry point that saw no call on any workload.
Exits 1 when any test fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import workloads  # noqa: E402
from harness import Clock, one_pass  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def daha_group(**kw):
    from cycdaha.algebra import sample_rep

    rep = sample_rep("daha", 2, seed=1)
    return [workloads._sweep("daha N=2 #1", rep, "daha", "box", 7 ** 2, **kw)]


def mutant_test():
    from cycdaha import algebra

    clean = one_pass(daha_group(box_radius=3), Clock())
    expect(clean.failed == 0 and not clean.invalid(), "unmutated daha N=2 sweep passes")

    original = algebra.catalog

    def mutated(family):
        cat = original(family)
        first = cat.schemas[0]

        def build(rep):
            out = first.build(rep)
            r = out[0]
            out[0] = algebra.RelationInstance(r.name, r.lhs, r.rhs * Fraction(8, 7))
            return out

        cat.schemas[0] = algebra.RelationSchema(first.name, build)
        return cat

    algebra.catalog = mutated
    try:
        checks = one_pass(daha_group(box_radius=3), Clock())
    finally:
        algebra.catalog = original
    ratio = (checks.attempted - checks.failed) / checks.attempted
    expect(checks.failed == 1, f"8/7 mutant is one failed check (failed={checks.failed})")
    expect(ratio < 1, f"8/7 mutant lowers pass_ratio to {ratio:.3f}")


def vacuous_test():
    checks = one_pass(daha_group(box_radius=-1), Clock())
    problems = checks.invalid()
    expect(checks.failed == 0 and problems,
           f"B=-1 sweep passes every verdict yet is invalid ({len(problems)} reasons)")


def traced(workload, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--trace", "1"],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    ).stdout.splitlines()
    info = dict(line.split(": ", 1) for line in out[:-1] if ": " in line)
    return json.loads(out[-1]), info


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


def hashseed_test():
    runs = {}
    for w in workloads.WORKLOADS:
        a, info_a = traced(w, 0)
        b, info_b = traced(w, 1)
        expect(a["correct"] and b["correct"], f"{w}: traced runs are correct")
        same = counts(a) == counts(b) and info_a["outputs_sha256"] == info_b["outputs_sha256"]
        diff = {k for k in counts(a) if counts(a)[k] != counts(b).get(k)}
        expect(same, f"{w}: counts and outputs agree under PYTHONHASHSEED 0 and 1"
               + (f" (differ: {sorted(diff)})" if diff else ""))
        runs[w] = (a["metrics"], info_a)
    return runs


def contrast_test(runs):
    def v(w, k):
        return runs[w][0][k]["value"]

    expect(v("relations-box", "ops.compose_s") > v("relations-box", "ops.fresh_s"),
           "relations-box: ops.compose_s > ops.fresh_s")
    expect(v("relations-random", "ops.compose_s") < v("relations-random", "ops.fresh_s"),
           "relations-random: ops.compose_s < ops.fresh_s")
    ops_counts = [k for k, m in runs["quasi-geometry"][0].items()
                  if k.startswith("ops.") and m["unit"] == "count"]
    expect(all(v("quasi-geometry", k) == 0 for k in ops_counts),
           f"quasi-geometry: every ops.* count is zero ({len(ops_counts)} counts)")
    expect(all(v(w, "linalg.row_echelon.calls") == 0
               for w in ("relations-box", "relations-random")),
           "relations-*: linalg.row_echelon.calls is zero")
    expect(all("trace.overhead_s" in runs[w][0] for w in runs), "trace.overhead_s reported")
    unseen = None
    for _, info in runs.values():
        names = set(json.loads(info["unseen"]))
        unseen = names if unseen is None else unseen & names
    print(f"wrappers with no call on any workload: {sorted(unseen)}")
    for w, (_, info) in runs.items():
        if json.loads(info["absent"]):
            print(f"{w}: absent entry points: {info['absent']}")


def main():
    mutant_test()
    vacuous_test()
    contrast_test(hashseed_test())
    print("selftest:", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
