#!/usr/bin/env python3
"""End-to-end flow benchmark: builds perfbench/ from source and runs workloads.

Run from the repository root:

    python3 perfbench/run.py --workload lex3_serial --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each workload runs in its own process (peak RSS is a process-lifetime
high-water mark). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
output check passed. Build files, traces and checkpoints go to .bench_build/
in the repository root. See perfbench/README.md for the workloads, metrics
and the layer-to-end-to-end map.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["lex3_serial", "lex3_parallel", "route_fullsize", "serve_batch"]
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".bench_build"
BUILD_DIR = WORK_DIR / "perfbench"
OUT_DIR = WORK_DIR / "out"
BINARY = BUILD_DIR / "flow_bench"
# One run ends well inside three minutes; the build is not part of it.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds flow_bench; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no program sources under {ROOT / 'src'}")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "flow_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_workload(name, args):
    """Runs one workload in its own process; returns (lines, result) or None."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed),
           "--gen-seed", str(args.gen_seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    try:
        # run() kills and reaps the child if it overruns.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {name} exited {proc.returncode} without a result")
        return None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if (set(result) != {"correct", "attempted", "failed", "metrics"}
            or list(result["metrics"]) != wanted):
        log(f"perfbench: {name} printed a malformed result")
        return None
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1,
                   help="stimulus seed of the output checks")
    p.add_argument("--gen-seed", type=int, default=7,
                   help="circuit generation seed; 7 also checks the pinned "
                        "seed-commit quality, any other is a held-out check")
    p.add_argument("--seconds", type=int, default=18,
                   help="measurement time per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1 = traced run reporting the per-layer metrics")
    args = p.parse_args()

    if not build():
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        got = run_workload(name, args)
        if got is None:
            return 2
        lines, results[name] = got
        for line in lines:
            print(line if len(names) == 1 else f"{name}: {line}")

    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
