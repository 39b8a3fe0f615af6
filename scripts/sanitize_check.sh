#!/usr/bin/env bash
# Builds the repo with AddressSanitizer + UBSan and runs the suites most
# likely to surface memory/lifetime bugs: the fault-injection tests
# (label `fault`), the numerical gradient/kernel differential tests
# (label `gradcheck`), which hammer the threaded kernels, the SIMD
# packed-GEMM / conv micro-kernel suites (label `kernels` — packing
# scratch buffers, edge-tile padding, wide-tile stores), and the
# inference-serving tests (label `serve`), whose batcher moves tensors
# across threads, and the serving chaos suite (label `chaos` — injected
# replica crashes, stalls and retries exercise the supervisor's
# requeue/restart lifetimes), and the multi-tenant fleet suite (label
# `fleet` — replica retirement and cross-thread promise hand-offs), and
# the execution-plan suite (label `plan` — arena measure/replay scopes,
# aliasing shared_ptr deleters and spill-to-heap fallbacks are exactly
# the lifetime machinery ASan exists for), and the data-parallel
# training suite (label `ddp` — per-replica planners, shard gradient
# slots and the shard-ordered reduce move tensors across a worker
# pool every step), and the framework suites (label `frameworks` —
# frameworks_test and integration_test train and evaluate every
# emulation, freezing each model for the test pass).
# For data races specifically, see tsan_check.sh.
#
# Usage: scripts/sanitize_check.sh [build-dir]   (default: build-asan)
# Equivalent preset: cmake --preset sanitize && cmake --build --preset sanitize
#                    && ctest --preset sanitize

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
SANITIZERS="${DLBENCH_SANITIZE:-address,undefined}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDLBENCH_SANITIZE="$SANITIZERS"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L 'fault|gradcheck|serve|kernels|attack|chaos|fleet|plan|ddp|frameworks' --output-on-failure -j "$(nproc)"
