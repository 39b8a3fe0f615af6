#pragma once

// Deterministic synchronous data-parallel training (DESIGN.md §16).
//
// The paper benchmarks single-device training; its natural follow-up
// question — "does the framework ranking survive multi-worker scaling?"
// — is usually unanswerable because data-parallel training changes the
// numerics with the worker count. This trainer removes that confound:
// K-worker training is bitwise identical to 1-worker training at the
// same effective batch size, so a scaling sweep measures *time* and
// only time.
//
// How: each global batch is split into a fixed number of shards S that
// does NOT depend on K. Every shard's forward/backward runs serially on
// a replica (clone) of the master model, its gradient landing in the
// shard's own slot; shards are farmed out to K pool workers by a
// dynamic queue (straggler-tolerant), which is safe because slotting
// makes completion order irrelevant. The reduction then walks the slots
// in shard order via comm::reduce_weighted_sum — the shard-ordered
// collective — and one master optimizer step + parameter broadcast
// closes the step. Per-shard dropout streams are seeded from
// (seed, step, shard), never from the executing worker. Every float
// along the way is a pure function of (model, data, seed, S); K only
// decides how many shards are in flight at once.
//
// Training runs the one guarded loop Framework::train runs
// (frameworks/train_loop.hpp: watchdog, divergence check, rollback,
// snapshots, phase accounting); this trainer only supplies its
// gradient source — sharding, fan-out, reduce and broadcast — plus the
// DLB_FAULT_DP_STALL_* straggler hook for measuring what a slow worker
// costs the synchronous barrier.

#include <cstdint>

#include "frameworks/framework.hpp"

namespace dlbench::frameworks {

/// Knobs for one data-parallel training run.
struct DataParallelOptions {
  /// K: replicas + pool workers. 1 reproduces the serial baseline
  /// through the identical code path (inline pool).
  int workers = 1;
  /// S: shard count, the unit of gradient accumulation. 0 resolves to
  /// max(workers, 4), so sweeps up to 4 workers are bit-comparable out
  /// of the box; pin it (DLB_DP_SHARDS) when sweeping wider. Identity
  /// across K holds only between runs with equal S.
  int shards = 0;
  /// Harness-level training knobs (seed, scale, guard policy).
  TrainOptions train;

  /// Applies DLB_DP_WORKERS / DLB_DP_SHARDS over `fallback`.
  static DataParallelOptions from_env(DataParallelOptions fallback);
  static DataParallelOptions from_env() {
    return from_env(DataParallelOptions{});
  }
};

/// Runs a framework emulation's training loop across K worker replicas.
/// Stateless apart from its options; one instance may run many models.
class DataParallelTrainer {
 public:
  DataParallelTrainer(const Framework& framework, DataParallelOptions options);

  /// Resolved worker / shard counts.
  int workers() const { return workers_; }
  int shards() const { return shards_; }

  /// Trains `model` in place (it is the master: its parameters receive
  /// every optimizer step). Replica compute is serial per shard;
  /// `device` drives the reduce / optimizer / broadcast phases.
  /// Bitwise contract: for fixed (model init, dataset, config, options
  /// minus workers), the trained parameters and loss curve are
  /// identical for every value of `workers`.
  TrainResult train(nn::Sequential& model, const data::Dataset& train_set,
                    const TrainingConfig& config, const Device& device) const;

 private:
  const Framework& framework_;
  DataParallelOptions options_;
  int workers_;
  int shards_;
};

}  // namespace dlbench::frameworks
