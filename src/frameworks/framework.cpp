#include "frameworks/framework.hpp"

#include "frameworks/train_loop.hpp"
#include "nn/frozen.hpp"
#include "nn/plan.hpp"
#include "runtime/trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::frameworks {

using runtime::trace::Span;
using util::env_f64;
using util::env_i64;

GuardOptions GuardOptions::from_env(GuardOptions fallback) {
  GuardOptions opt = fallback;
  opt.max_recoveries = static_cast<int>(
      env_i64("DLB_GUARD_MAX_RECOVERIES", opt.max_recoveries));
  opt.snapshot_interval =
      env_i64("DLB_GUARD_SNAPSHOT_INTERVAL", opt.snapshot_interval);
  opt.lr_backoff = env_f64("DLB_GUARD_LR_BACKOFF", opt.lr_backoff);
  opt.grad_norm_limit = env_f64("DLB_GUARD_GRAD_LIMIT", opt.grad_norm_limit);
  opt.timeout_s = env_f64("DLB_TRAIN_TIMEOUT_S", opt.timeout_s);
  return opt;
}

void Framework::prepare(nn::Sequential&, const tensor::Tensor&,
                        const nn::Context&) const {}

namespace {

// Serial gradients: forward/backward on the trained model itself, with
// the caller's device and the loop's dropout fork. The planner
// (DESIGN.md §15) keys each step's extent by batch rows — every
// allocation inside is a pure function of them — so after a few heap
// warmup steps and one measured step, steady-state steps replay one
// packed arena with zero heap allocations.
class LocalGradients final : public detail::GradientSource {
 public:
  LocalGradients(const Framework& framework, nn::Sequential& model,
                 const data::Dataset& train_set, const Device& device)
      : framework_(framework), model_(model), train_set_(train_set) {
    ctx_.device = device;
    ctx_.training = true;
  }

  void prepare(util::Rng& dropout_rng) override {
    ctx_.rng = &dropout_rng;
    framework_.prepare(model_, train_set_.sample(0), ctx_);
  }

  std::optional<nn::StepPlanner::StepGuard> open_extent(
      std::int64_t rows) override {
    return planner_.step(rows);
  }

  double gradients(const data::Batch& batch, std::int64_t,
                   PhaseBreakdown& phases) override {
    model_.zero_grads();
    nn::LossResult loss;
    {
      Span forward(nullptr, nullptr, &phases.forward_s);
      loss = model_.forward_loss(batch.images, batch.labels, ctx_);
    }
    Span backward(nullptr, nullptr, &phases.backward_s);
    model_.backward_params(loss, batch.labels, ctx_);
    return loss.loss;
  }

  void add_plan_stats(TrainResult& result) const override {
    result.plan_arena_bytes = planner_.arena_bytes();
    result.plan_replayed_steps = planner_.replayed_steps();
  }

 private:
  const Framework& framework_;
  nn::Sequential& model_;
  const data::Dataset& train_set_;
  nn::Context ctx_;
  nn::StepPlanner planner_;
};

}  // namespace

TrainResult Framework::train(nn::Sequential& model,
                             const data::Dataset& train_set,
                             const TrainingConfig& config,
                             const Device& device,
                             const TrainOptions& options) const {
  LocalGradients source(*this, model, train_set, device);
  return detail::guarded_train(*this, model, train_set, config, device,
                               options, source);
}

EvalResult Framework::evaluate(const nn::Sequential& model,
                               const data::Dataset& test_set,
                               const Device& device) const {
  DLB_CHECK(test_set.size() > 0, "empty test set");
  util::Rng unused(0);
  data::DataLoader loader(test_set, eval_batch_size(), /*shuffle=*/false,
                          unused);

  EvalResult result;
  {
    Span test_time(nullptr, nullptr, &result.test_time_s);
    const nn::FrozenModel frozen = nn::FrozenModel::freeze(model);
    data::Batch batch;
    while (loader.next(batch)) {
      Span span("eval.batch", "eval");
      const auto predictions = frozen.predict(batch.images, device);
      for (std::size_t i = 0; i < predictions.size(); ++i)
        if (predictions[i] == batch.labels[i]) ++result.correct;
      result.total += batch.size();
    }
  }
  // total can be 0 under an injected 100% sample-drop fault; report 0%
  // rather than a NaN that would poison downstream tables.
  result.accuracy_pct = result.total > 0
                            ? 100.0 * static_cast<double>(result.correct) /
                                  static_cast<double>(result.total)
                            : 0.0;
  return result;
}

}  // namespace dlbench::frameworks
