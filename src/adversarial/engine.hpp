#pragma once

// Parallel adversarial crafting engine.
//
// The paper's fourth metric family (adversarial success rate and
// crafting time, Tables VIII–IX and Figs. 8–9) decomposes into
// independent *attack units*: one sample×attack for untargeted FGSM,
// one sample×target for targeted JSMA. Units never share state — each
// attack reads one set of weights and mutates only its own input copy —
// so the engine fans them across the workers of the process-wide
// Device::gpu() pool.
//
// A Sequential is a training object: every layer caches activations in
// forward() for the following backward(), so two threads cannot share
// one. Attacks need gradients (FGSM differentiates the loss, JSMA the
// logit Jacobian), so the frozen inference views used by serve/ are not
// enough here; instead each worker receives its own deep-copied replica
// (Sequential::clone — same weights, private caches), mirroring the
// FrozenModel replica pattern from serve/ for mutable models. Replica
// memory cost is one full parameter+gradient set per worker (see
// DESIGN.md §12), negligible next to the Jacobian work per unit. Attacks
// run backward with Context::param_grads off, so the gradient buffers
// stay zero and untouched.
//
// Determinism contract: parallel sweeps produce **bitwise-identical**
// result tables to serial at any thread count. Three mechanisms:
//   1. Units are deterministic: FGSM/JSMA draw no random numbers, and
//      every unit executes with a *serial* per-worker device
//      (Device::cpu()), so float summation order inside a unit never
//      depends on the engine's thread count. (Batch-1 attack kernels
//      are below the parallel grain anyway — unit-level fan-out is the
//      productive axis, and it sidesteps pool re-entrancy: a unit that
//      re-submitted kernel chunks to the pool its own task runs on
//      could deadlock with every worker blocked on a child chunk.)
//   2. Unit results land in a caller-owned per-unit slot (one writer
//      each); all cross-unit aggregation happens after the join, in
//      unit-index order, on the calling thread.
//   3. Craft-time histograms are per-worker and merged in worker-index
//      order; LatencyHistogram::merge is exact (bucket-wise integer
//      sums), so the merged *count* structure is order-independent.
//      Recorded durations are wall-clock and naturally vary run to run
//      — timing is measurement output, never an input to the tables.

#include <cstdint>
#include <functional>

#include "nn/sequential.hpp"
#include "runtime/histogram.hpp"

namespace dlbench::adversarial {

/// Where a sweep's wall clock went, with screening and crafting
/// reported separately: screening predictions (discarding samples the
/// model already misclassifies) are victim *selection*, not crafting,
/// and folding them into crafting time inflated the paper's Table VIII
/// metric.
struct CraftTiming {
  /// Wall clock of the victim-screening predictions.
  double screening_s = 0.0;
  /// Wall clock of the parallel crafting phase (dispatch to join).
  double craft_wall_s = 0.0;
  /// Worker threads the crafting phase ran with.
  int threads = 1;
  /// Per-attack crafting times across all units (p50/p95/p99 via
  /// percentile()); exact merge of the per-worker histograms.
  runtime::LatencyHistogram craft_time;
};

/// Runs `attack(replica, ctx, unit)` for every unit in [0, unit_count)
/// across `threads` workers fanned out with Device::gpu().parallel_for.
/// Worker w owns a private clone of `model` (cloned on the calling
/// thread before dispatch) and processes units w, w+T, w+2T, … —
/// assignment is load-balancing only; nothing about the
/// results may depend on it (see determinism contract above). `ctx` is
/// forwarded to the attack with its device replaced by the serial
/// device. The double returned by `attack` is that unit's crafting
/// time in seconds, recorded into the per-worker histogram. Exceptions
/// from units propagate to the caller after all workers join (first
/// one wins). `threads <= 1` runs every unit on the calling thread
/// through the identical replica path. At most Device::gpu().workers()
/// workers run at once (DLB_THREADS caps the pool), and like any
/// fan-out it must not be called from a pool worker.
///
/// Returns craft_wall_s, threads and the merged craft_time histogram;
/// screening_s is the caller's phase and stays zero here.
CraftTiming craft_units(
    const nn::Sequential& model, const nn::Context& ctx,
    std::int64_t unit_count, int threads,
    const std::function<double(nn::Sequential& replica,
                               const nn::Context& ctx, std::int64_t unit)>&
        attack);

}  // namespace dlbench::adversarial
