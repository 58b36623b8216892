#!/usr/bin/env python3
"""Compare two sets of benchmark result files.

    python3 perfbench/compare_runs.py SET_A SET_B

A set is a directory of result files written by run_benchmark.py
(--results-dir), or a glob of them. For every (end-to-end metric,
workload) pair of BENCHMARK.json this prints each set's median and
quartiles and B's change against A, signed so that positive is worse:

  REGRESSION  B's median is worse than A's by more than the bound
  improved    B's median is better by more than the bound
  unresolved  either set's quartile spread is wider than the bound, so
              the medians cannot be told apart (unless every run of B
              beats every run of A)
  ok          otherwise

The ungated top-level metrics (throughput, goodput, saturation, further
percentiles) and the per-layer metrics of traced runs are listed
without a verdict. Runs marked invalid are skipped. Results from
different hosts are refused. Exit status: 0, 1 when a pair regressed,
2 when refused.
"""

import glob
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(spec):
    paths = sorted(glob.glob(os.path.join(spec, "*.json"))
                   if os.path.isdir(spec) else glob.glob(spec))
    runs = []
    for p in paths:
        r = json.loads(Path(p).read_text())
        if not r.get("valid", True):
            print(f"skipping invalid run {p}: {r.get('notes')}")
            continue
        runs.append(r)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def values(runs, workload, metric, trace):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["metrics"]]


def verdict(a, b, better, bound):
    ma, qa1, qa3 = summary(a)
    mb, qb1, qb3 = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    if spread > bound:
        beats = all(sign * (y - x) < 0 for x in a for y in b)
        return worse, "improved (every run)" if beats else "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if worse < -bound:
        return worse, "improved"
    return worse, "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(sys.argv[1]), load(sys.argv[2])
    if not a or not b:
        print("compare_runs: a set has no valid result files", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["host"], sort_keys=True) for r in a + b}
    if len(hosts) > 1:
        print("compare_runs: refusing to compare results from different "
              "hosts:\n  " + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2

    gated = {m["name"]: m for m in bench["end_to_end"]}
    regressed = False
    print(f"{'workload':14s} {'metric':26s} {'n':>5s} "
          f"{'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in (w["name"] for w in bench["workloads"]):
        # Gated metrics first, then the ungated top-level ones (throughput,
        # goodput, saturation, further percentiles), then per-layer ones.
        names = [(n, 0) for n in gated]
        names += sorted({(n, 0) for r in a if r["workload"] == w
                         and r["trace"] == 0 for n in r["metrics"]
                         if "." not in n and n not in gated})
        names += [(m["name"], 1) for m in bench["per_layer"]]
        for name, trace in names:
            va, vb = values(a, w, name, trace), values(b, w, name, trace)
            if not va or not vb:
                continue
            fa = "{:.4g} [{:.4g}, {:.4g}]".format(*summary(va))
            fb = "{:.4g} [{:.4g}, {:.4g}]".format(*summary(vb))
            line = (f"{w:14s} {name:26s} {len(va):>2d}/{len(vb):<2d} "
                    f"{fa:>30s} {fb:>30s}")
            if name in gated and not trace:
                m = gated[name]
                worse, v = verdict(va, vb, m["better"], m["bound"])
                regressed |= v == "REGRESSION"
                line += f" {worse:+8.2%} {m['bound']:6.0%}  {v}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
