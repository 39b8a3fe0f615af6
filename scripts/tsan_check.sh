#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer and runs the suites that exercise
# real cross-thread interleavings: the inference-serving tests (label
# `serve` — MPMC queue, dynamic batcher, replica threads, histogram
# merges), the tracing tests (label `trace` — thread-local event buffers
# under an atomic scope pointer), the fault-injection tests (label
# `fault`), the kernel suites (label `kernels` — the packed GEMM
# macro loop splits row panels across pool workers and its determinism
# tests run the same shapes under several thread counts), and the
# serving chaos suite (label `chaos` — crash requeues, stall
# abandonment, hedged first-wins claims and retry heaps are exactly the
# cross-thread hand-offs TSan exists for), and the multi-tenant fleet
# suite (label `fleet` — dispatcher, server-thread completions and
# autoscaler interplay over live replica pools), and the execution-plan
# suite (label `plan` — arena buffers freed on whichever thread drops
# the last aliasing handle while the owner thread replays new
# allocations), and the
# data-parallel training suite (label `ddp` — K replicas race a shard
# queue and fill per-shard gradient slots; its bitwise-identity tests
# are exactly the claims a data race would silently falsify), and the
# framework suites (label `frameworks` — training and the frozen test
# pass on the parallel device's pool). ASan/UBSan
# (sanitize_check.sh) cannot see data races; this is the suite that
# would have caught a misordered stats commit or an unlocked histogram.
#
# Usage: scripts/tsan_check.sh [build-dir]   (default: build-tsan)
# Equivalent preset: cmake --preset tsan && cmake --build --preset tsan
#                    && ctest --preset tsan

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDLBENCH_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L 'serve|trace|fault|kernels|attack|chaos|fleet|plan|ddp|frameworks' --output-on-failure \
  -j "$(nproc)"
