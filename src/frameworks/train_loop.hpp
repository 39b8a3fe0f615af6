#pragma once

// The guarded training loop (DESIGN.md §8), written once.
//
// Framework::train and DataParallelTrainer::train differ only in how
// one step's gradients are produced: forward/backward on the model
// itself, or S shards over K replicas reduced into it. That difference
// is a GradientSource; everything else — step budget, rng forks,
// loader, watchdog and stall hook, gradient-fault injection, the
// divergence check before the update, snapshot/rollback with learning
// rate backoff, the loss curve, the starvation exit, phase accounting
// and the converged verdict — lives in guarded_train alone.

#include <cstdint>
#include <optional>

#include "frameworks/framework.hpp"
#include "nn/plan.hpp"

namespace dlbench::frameworks::detail {

/// Produces one step's gradients into the model the loop trains.
class GradientSource {
 public:
  /// One-time session setup, timed as training time. `dropout_rng` is
  /// the loop's model-rng dropout fork; it outlives the run.
  virtual void prepare(util::Rng& dropout_rng) = 0;

  /// Opens the execution-plan extent of one step (DESIGN.md §15); the
  /// loop holds it from gradients() through the optimizer update. None
  /// by default: a source may open its own extents inside gradients().
  virtual std::optional<nn::StepPlanner::StepGuard> open_extent(
      std::int64_t /*rows*/) {
    return std::nullopt;
  }

  /// Writes the gradients of `batch` at `step` into the model's grads
  /// and returns the batch's mean loss. Attributes its own time to
  /// `phases`.
  virtual double gradients(const data::Batch& batch, std::int64_t step,
                           PhaseBreakdown& phases) = 0;

  /// Called after every change the loop makes to the model's
  /// parameters: each optimizer step and each rollback.
  virtual void params_changed(PhaseBreakdown& /*phases*/) {}

  /// Adds this run's execution-plan accounting to `result`.
  virtual void add_plan_stats(TrainResult& result) const = 0;

 protected:
  // Sources live on their entry point's stack, never owned through
  // this base.
  ~GradientSource() = default;
};

/// Trains `model` with `framework`'s optimizer, taking each step's
/// gradients from `source`. `device` drives the optimizer update.
TrainResult guarded_train(const Framework& framework, nn::Sequential& model,
                          const data::Dataset& train_set,
                          const TrainingConfig& config, const Device& device,
                          const TrainOptions& options,
                          GradientSource& source);

}  // namespace dlbench::frameworks::detail
