"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

A result file holds one result line per run (the last line ``run.py``
prints), all from one workload.  With one file, print each metric's median,
quartiles and spread (interquartile range over median).  With two, also
print NEW's median relative to BASE's and flag each end-to-end metric that
is worse by more than its bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    bad = sum(not r["correct"] for r in runs)
    if bad:
        print(f"{path}: {bad} of {len(runs)} runs are not correct")
    values = {}
    for r in runs:
        for k, m in r["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    return values


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv):
    base = load(argv[0])
    new = load(argv[1]) if len(argv) > 1 else None
    worse = []
    for k, vals in base.items():
        med, q1, q3, spread = summary(vals)
        line = f"{k:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
        if new and k in new:
            nmed = summary(new[k])[0]
            rel = nmed / med - 1 if med else 0.0
            line += f"  new {nmed:<12.6g} {rel:+.3f}"
            bound = BOUNDS.get(k)
            if bound:
                sign = 1 if bound["better"] == "lower" else -1
                if sign * rel > bound["bound"]:
                    worse.append(k)
                    line += f"  WORSE than bound {bound['bound']}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
