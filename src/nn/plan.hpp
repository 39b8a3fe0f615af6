#pragma once

// Execution-plan compiler (DESIGN.md §15).
//
// A StepPlanner compiles, per (model, batch-shape), an ExecutionPlan:
// the measured allocation trace of one representative step — every
// activation, gradient and staging tensor the step creates, with its
// size and [def, death) lifetime — packed by tensor::arena::pack_slots
// into one reusable arena. Subsequent steps with the same shape
// signature replay the plan: each allocation is served at its
// precomputed offset and the steady-state hot path performs zero heap
// allocations (asserted via the tensor.allocs count, tensor/arena.hpp).
//
// The planner does not know what a "step" computes; callers mark the
// step extent and give it a shape signature (the batch row count in
// this codebase — every allocation in a step is a pure function of it):
//
//   nn::StepPlanner planner;                     // reads DLB_PLAN etc.
//   for (...) {
//     auto guard = planner.step(batch_rows);     // warmup/measure/replay
//     ... forward / backward / optimizer ...
//   }                                            // guard ends the step
//
// Lifecycle per signature: `warmup_steps` ordinary heap steps first
// (they absorb one-time lazy allocations — optimizer state, grow-only
// kernel scratch — that must NOT land in the arena), then one measured
// step, then replay. A replay that diverges from the recorded trace
// (shape drift, a rollback path, an injected fault) spills the
// affected allocations to the heap, completes correctly, and drops the
// plan so the next occurrence of that signature re-warms and
// re-measures. Work the caller keeps across steps (parameter
// snapshots, checkpoints) must stay outside the guard's extent.
//
// The planner is deliberately single-owner: one planner per training
// loop / per serve replica thread, never shared. All methods must be
// called from the owning thread.
//
// Knob (see KNOBS.md): DLB_PLAN=0 disables planning entirely. The
// warmup step count and the per-signature arena cap are PlanOptions
// fields, set in code.

#include <cstdint>
#include <map>
#include <memory>

#include "tensor/arena.hpp"

namespace dlbench::nn {

struct PlanOptions {
  /// Master switch: false = every step allocates from the heap.
  bool enabled = true;
  /// Heap steps per signature before the measured step.
  int warmup_steps = 2;
  /// Largest arena one signature may seal; plans over the cap are
  /// discarded and the signature stays on the heap.
  std::int64_t arena_cap_bytes = std::int64_t{256} << 20;

  /// The defaults above, with `enabled` read from DLB_PLAN.
  static PlanOptions from_env();
};

/// A compiled plan for one shape signature: the packed slot table plus
/// its memory accounting. Exposed for tests and reports.
struct ExecutionPlan {
  std::int64_t signature = 0;
  /// Packed arena capacity in bytes.
  std::int64_t arena_bytes = 0;
  /// Sum of aligned slot sizes — the no-reuse footprint the lifetime
  /// packing is measured against.
  std::int64_t naive_bytes = 0;
  /// Measured allocation trace in allocation order, offsets assigned.
  std::vector<tensor::arena::Slot> slots;
};

class StepPlanner {
 public:
  explicit StepPlanner(PlanOptions options = PlanOptions::from_env());
  ~StepPlanner();
  StepPlanner(const StepPlanner&) = delete;
  StepPlanner& operator=(const StepPlanner&) = delete;

  /// RAII extent of one step. Must be destroyed before the next
  /// step() call and before the planner.
  class StepGuard {
   public:
    StepGuard(StepGuard&& other) noexcept;
    StepGuard& operator=(StepGuard&&) = delete;
    ~StepGuard();

   private:
    friend class StepPlanner;
    StepGuard(StepPlanner* planner, std::int64_t signature)
        : planner_(planner), signature_(signature) {}
    StepPlanner* planner_;  // null once moved-from / finished
    std::int64_t signature_;
  };

  /// Begins a step whose allocations are a function of `signature`
  /// (batch rows). Installs the right arena scope for this
  /// signature's lifecycle state.
  StepGuard step(std::int64_t signature);

  /// The sealed plan for `signature`, or nullptr.
  const ExecutionPlan* plan(std::int64_t signature) const;
  /// Sum of sealed arena capacities across signatures — the planner's
  /// resident tensor footprint (reported per serve replica).
  std::int64_t arena_bytes() const;
  /// Signatures with a sealed plan.
  int plan_count() const;

  // Lifecycle tallies, for tests and reports.
  std::int64_t measured_steps() const { return measured_steps_; }
  std::int64_t replayed_steps() const { return replayed_steps_; }
  /// Replayed steps that spilled at least one allocation (each also
  /// dropped its plan for re-measurement).
  std::int64_t spilled_steps() const { return spilled_steps_; }

  const PlanOptions& options() const { return options_; }

 private:
  struct SignatureState;
  void finish_step(std::int64_t signature);

  PlanOptions options_;
  std::map<std::int64_t, std::unique_ptr<SignatureState>> signatures_;
  bool step_open_ = false;
  std::int64_t measured_steps_ = 0;
  std::int64_t replayed_steps_ = 0;
  std::int64_t spilled_steps_ = 0;
};

}  // namespace dlbench::nn
