#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_mnist --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py              # every workload once, end to end

Each call configures and builds perfbench/ (the libraries from src/ plus
the driver) into .bench_build/; after the first build this is a quick
up-to-date check. Each run prints its metrics and, as its last line, one
JSON object with "correct", "attempted", "failed" and "metrics". Every
result is also appended, with the machine fingerprint, to
.bench_out/results.jsonl for compare.py. The exit code is 0 only when the
build succeeded and every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["train_mnist", "train_cifar_dp", "serve_mnist", "craft_mnist"]
RUN_TIMEOUT_S = 170  # each run must end well within 180 s
BUILD_JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, \
            open(os.path.join(BUILD_DIR, "build.log"), "a") as build_log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time
        steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]]
        for cmd in steps:
            try:
                result = subprocess.run(cmd, stdout=build_log,
                                        stderr=subprocess.STDOUT)
            except OSError as e:
                log(f"cannot run {cmd[0]}: {e}")
                return False
            if result.returncode != 0:
                log(f"build step failed: {' '.join(cmd)} "
                    f"(see {build_log.name})")
                return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3, None
    lines = proc.stdout.splitlines()
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines[:-1] if result else lines:
        print(line, flush=True)
    if result is None:
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 3, None
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "seconds": seconds, "trace": trace,
                            "fingerprint": fingerprint,
                            "result": result}) + "\n")
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload:
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        if result is not None:
            print(json.dumps(result), flush=True)
        return code

    worst = 0
    summary = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, result = run_one(workload, args.seed, args.seconds, args.trace)
        if result is not None:
            print(json.dumps(result), flush=True)
            summary[workload] = result
        worst = worst or code
    print("== summary", flush=True)
    for workload, result in summary.items():
        status = "ok" if result["correct"] else "INCORRECT"
        print(f"{workload}: {status}, {result['attempted']} attempted, "
              f"{result['failed']} failed", flush=True)
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}", flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
