#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run_benchmark.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--results-dir DIR]

Builds the driver from source (CMake, into .bench_build/ at the
repository root) if needed, runs the workload in its own process, writes
the full result (every metric with unit and sample count, output checks,
host fingerprint, pinned configuration) to a JSON file under the results
directory, prints a metric table, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A traced run also writes a Chrome
trace-event file under .bench_build/traces/ (open it in Perfetto).
Exits non-zero when the build fails, a metric is missing, or an output
check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
DRIVER = CMAKE_DIR / "perfbench_workloads"
WORKLOADS = ("encode-b1", "encode-ragged", "hires-softmax", "serve-mixed")


def log(msg):
    print(f"run_benchmark: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let CMake's own dependency check decide."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"repository sources not found next to {HERE.name}/; "
            "run from a full checkout")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(CMAKE_DIR), "-j",
                      str(min(4, os.cpu_count() or 1)),
                      "--target", "perfbench_workloads"])
        for cmd in steps:
            # Build output goes to stderr: stdout carries the result.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results-dir", default=str(BUILD / "results"))
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    if not build():
        return 2

    trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--trace-out", str(trace_out)]
    # The driver pins every execution knob itself; dropping the
    # VITALITY_* variables keeps the record of what ran honest.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VITALITY_")}
    # A run takes about 30 s at --seconds 20; the limit keeps a hung
    # driver from outliving the 180 s a run may take (the child is killed
    # and reaped on timeout).
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=max(150, 3 * args.seconds))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        log(f"driver exited {proc.returncode} without a result")
        return 1
    result = json.loads(lines[-1])

    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"-{time.time_ns()}.json")
    result["command"] = cmd
    result["trace_file"] = str(trace_out) if args.trace else None
    path.write_text(json.dumps(result, indent=1) + "\n")

    metrics = result["metrics"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"correct={result['correct']} valid={result['valid']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"  {'metric':34s} {'value':>14s} {'unit':9s} samples")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']:9s} {m['samples']}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(f"  result file: {path}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("driver did not report " + ", ".join(missing))
        return 1
    line = {
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
