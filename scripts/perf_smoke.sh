#!/usr/bin/env bash
# Quick performance smoke test for the packed SIMD GEMM / conv kernels
# (DESIGN.md §11): runs the GEMM (square, transposed-B, and serving's
# batch-1/8 fc1 on pre-packed weights), conv forward and conv backward
# (dx + the K-blocked dW chain) microbenchmarks for a couple of seconds
# and fails if any throughput falls more than 30%
# below the checked-in floor (scripts/perf_floor.txt, GFLOP/s recorded
# on the reference CI box in a deliberately slow phase — the gate
# catches real regressions such as a de-vectorized kernel or a spilled
# accumulator, not scheduler noise). A second run under DLB_SIMD=scalar
# gates the portable micro-kernel, the only GEMM path on hosts without
# AVX2+FMA; its floors are the `scalar/`-prefixed lines.
#
# On a different machine, scale the floors instead of editing the file:
#   DLB_PERF_FLOOR_SCALE=0.5 scripts/perf_smoke.sh
#
# Usage: scripts/perf_smoke.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BENCH="$BUILD_DIR/bench/bench_micro_tensor"
if [ ! -x "$BENCH" ]; then
  echo "perf_smoke: $BENCH not built (cmake --build $BUILD_DIR)" >&2
  exit 2
fi

JSON="$(mktemp)"
SCALAR_JSON="$(mktemp)"
trap 'rm -f "$JSON" "$SCALAR_JSON"' EXIT
"$BENCH" --benchmark_filter='Gemm(Packed|Nt|PrepackedB)|ConvGemmLenet1|ConvForward|ConvBackward' \
         --benchmark_min_time=0.15 \
         --benchmark_format=json >"$JSON"
DLB_SIMD=scalar "$BENCH" --benchmark_filter='GemmPacked/384' \
         --benchmark_min_time=0.15 \
         --benchmark_format=json >"$SCALAR_JSON"

python3 - "$JSON" "$SCALAR_JSON" scripts/perf_floor.txt <<'PY'
import json
import os
import sys

json_path, scalar_json_path, floor_path = sys.argv[1:4]
scale = float(os.environ.get("DLB_PERF_FLOOR_SCALE", "1.0"))
ALLOWED_REGRESSION = 0.30  # fail below 70% of the floor

floors = {}
with open(floor_path) as f:
    for line in f:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        floors[name] = float(value)

measured = {}
for path, prefix in ((json_path, ""), (scalar_json_path, "scalar/")):
    for bench in json.load(open(path))["benchmarks"]:
        if bench.get("run_type") == "aggregate":
            continue
        measured[prefix + bench["name"]] = bench["GFLOPs"]

failures = []
for name, floor in sorted(floors.items()):
    if name not in measured:
        failures.append(f"{name}: not measured (filter/registration changed?)")
        continue
    got = measured[name]
    gate = floor * scale * (1.0 - ALLOWED_REGRESSION)
    status = "ok" if got >= gate else "REGRESSION"
    print(f"{name:40s} {got:8.2f} GFLOP/s  (floor {floor:7.2f}, "
          f"gate {gate:7.2f})  {status}")
    if got < gate:
        failures.append(f"{name}: {got:.2f} GFLOP/s < gate {gate:.2f}")

if failures:
    print("\nperf_smoke FAILED:", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("\nperf_smoke OK")
PY
