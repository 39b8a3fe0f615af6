#include "nn/plan.hpp"

#include <string>

#include "runtime/trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::nn {

using util::env_i64;

namespace {
// Distinct signatures planned per planner; later ones stay on the heap
// (a serve replica sees transient partial-batch sizes during ramp-up
// that are not worth a dedicated arena each).
constexpr std::size_t kMaxSignatures = 8;
}  // namespace

PlanOptions PlanOptions::from_env() {
  PlanOptions opt;
  opt.enabled = env_i64("DLB_PLAN", 1) != 0;
  return opt;
}

// Per-signature lifecycle: `seen` heap steps -> one measured step ->
// replay. `measuring` is live only during the measured step;
// `arena`/`plan` only once sealed. A spilled replay resets everything
// to the warmup state.
struct StepPlanner::SignatureState {
  int seen = 0;
  std::unique_ptr<tensor::arena::Measurement> measuring;
  std::unique_ptr<tensor::arena::MeasureScope> measure_scope;
  std::unique_ptr<tensor::arena::Arena> arena;
  std::unique_ptr<tensor::arena::ReplayScope> replay_scope;
  ExecutionPlan plan;
  bool disabled = false;  // plan exceeded the arena cap; stay on heap
};

StepPlanner::StepPlanner(PlanOptions options) : options_(options) {
  DLB_CHECK(options_.warmup_steps >= 1,
            "planner needs at least one warmup step (lazy one-time "
            "allocations must not be measured into the arena)");
}

StepPlanner::~StepPlanner() {
  DLB_CHECK(!step_open_, "StepPlanner destroyed inside an open step");
}

StepPlanner::StepGuard::StepGuard(StepGuard&& other) noexcept
    : planner_(other.planner_), signature_(other.signature_) {
  other.planner_ = nullptr;
}

StepPlanner::StepGuard::~StepGuard() {
  if (planner_ != nullptr) planner_->finish_step(signature_);
}

StepPlanner::StepGuard StepPlanner::step(std::int64_t signature) {
  DLB_CHECK(!step_open_, "StepPlanner::step called inside an open step");
  step_open_ = true;
  if (!options_.enabled) return StepGuard(this, signature);

  auto it = signatures_.find(signature);
  if (it == signatures_.end()) {
    if (signatures_.size() >= kMaxSignatures)
      return StepGuard(this, signature);  // over budget: plain heap
    it = signatures_
             .emplace(signature, std::make_unique<SignatureState>())
             .first;
  }
  SignatureState& st = *it->second;
  if (st.disabled) return StepGuard(this, signature);

  if (st.arena) {
    st.replay_scope =
        std::make_unique<tensor::arena::ReplayScope>(*st.arena);
    return StepGuard(this, signature);
  }
  if (st.seen < options_.warmup_steps) {
    ++st.seen;
    return StepGuard(this, signature);  // warmup: plain heap
  }
  st.measuring = std::make_unique<tensor::arena::Measurement>();
  st.measure_scope =
      std::make_unique<tensor::arena::MeasureScope>(*st.measuring);
  return StepGuard(this, signature);
}

void StepPlanner::finish_step(std::int64_t signature) {
  step_open_ = false;
  auto it = signatures_.find(signature);
  if (it == signatures_.end()) return;
  SignatureState& st = *it->second;

  if (st.replay_scope) {
    const bool spilled = st.replay_scope->spilled();
    st.replay_scope.reset();
    ++replayed_steps_;
    tensor::arena::count(tensor::arena::Event::kPlanReplays);
    if (spilled) {
      // The step diverged from the measured trace (and completed on
      // the heap where it did). Drop the plan; the signature re-warms
      // and re-measures on its next occurrence.
      ++spilled_steps_;
      runtime::trace::counter_add("plan.invalidated", 1);
      st.arena.reset();
      st.plan = ExecutionPlan{};
      st.seen = 0;
    }
    return;
  }

  if (st.measure_scope) {
    st.measure_scope.reset();
    tensor::arena::Measurement& m = *st.measuring;
    const std::int64_t bytes = m.seal_and_pack();
    ++measured_steps_;
    runtime::trace::counter_add("plan.compiles", 1);
    if (bytes > options_.arena_cap_bytes) {
      st.disabled = true;
      runtime::trace::counter_add("plan.over_cap", 1);
    } else {
      st.plan.signature = signature;
      st.plan.arena_bytes = bytes;
      st.plan.naive_bytes = m.naive_bytes();
      st.plan.slots = m.slots();
      st.arena = std::make_unique<tensor::arena::Arena>(m);
    }
    st.measuring.reset();
  }
}

const ExecutionPlan* StepPlanner::plan(std::int64_t signature) const {
  auto it = signatures_.find(signature);
  if (it == signatures_.end() || !it->second->arena) return nullptr;
  return &it->second->plan;
}

std::int64_t StepPlanner::arena_bytes() const {
  std::int64_t total = 0;
  for (const auto& [sig, st] : signatures_)
    if (st->arena) total += st->arena->capacity_bytes();
  return total;
}

int StepPlanner::plan_count() const {
  int n = 0;
  for (const auto& [sig, st] : signatures_)
    if (st->arena) ++n;
  return n;
}

}  // namespace dlbench::nn
