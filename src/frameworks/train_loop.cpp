#include "frameworks/train_loop.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "util/error.hpp"

namespace dlbench::frameworks::detail {

using runtime::trace::Span;

namespace {

/// Deep copies of every parameter tensor (the rollback snapshot).
std::vector<tensor::Tensor> clone_params(nn::Sequential& model) {
  std::vector<tensor::Tensor> out;
  for (const tensor::Tensor* p : model.params()) out.push_back(p->clone());
  return out;
}

/// Writes a snapshot back into the model's parameter buffers.
void restore_params(nn::Sequential& model,
                    const std::vector<tensor::Tensor>& snapshot) {
  auto params = model.params();
  DLB_ASSERT(params.size() == snapshot.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto dst = params[i]->data();
    auto src = snapshot[i].data();
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

/// True when any gradient entry is non-finite, or (when `limit` > 0)
/// the global gradient L2 norm exceeds it. A non-finite entry makes the
/// accumulated sum of squares non-finite, so one pass covers both.
bool gradients_divergent(const std::vector<tensor::Tensor*>& grads,
                         double limit) {
  if (limit > 0.0) {
    double sumsq = 0.0;
    for (const tensor::Tensor* g : grads)
      for (const float v : g->data()) sumsq += static_cast<double>(v) * v;
    return !std::isfinite(sumsq) || std::sqrt(sumsq) > limit;
  }
  for (const tensor::Tensor* g : grads)
    if (g->has_non_finite()) return true;
  return false;
}

/// The recovery retry runs the same setting at a backed-off rate; the
/// multiplier applies to every phase of the schedule.
TrainingConfig scale_learning_rate(TrainingConfig config, double scale) {
  config.base_lr *= scale;
  for (auto& phase : config.lr_phases) phase.second *= scale;
  return config;
}

}  // namespace

TrainResult guarded_train(const Framework& framework, nn::Sequential& model,
                          const data::Dataset& train_set,
                          const TrainingConfig& config, const Device& device,
                          const TrainOptions& options,
                          GradientSource& source) {
  DLB_CHECK(train_set.size() > 0, "empty training set");
  DLB_CHECK(config.batch_size > 0, "batch size must be positive");

  const std::int64_t n = train_set.size();
  const std::int64_t steps_per_epoch =
      (n + config.batch_size - 1) / config.batch_size;
  const double epochs = options.scale.scale_epochs(config.epochs);
  std::int64_t total_steps = static_cast<std::int64_t>(
      std::ceil(epochs * static_cast<double>(steps_per_epoch)));
  total_steps = std::max(total_steps, options.min_steps_floor);
  total_steps = std::max<std::int64_t>(1, options.scale.cap_steps(total_steps));

  auto optimizer =
      framework.make_optimizer(config, steps_per_epoch, total_steps);

  util::Rng rng(options.seed);
  util::Rng loader_rng = rng.fork();
  util::Rng dropout_rng = rng.fork();

  data::DataLoader loader(train_set, config.batch_size, /*shuffle=*/true,
                          loader_rng);

  TrainResult result;
  const std::int64_t start_ns = runtime::now_ns();

  const GuardOptions& guard = options.guard;
  // Watchdog: bounds the run's wall clock so a stalled cell aborts
  // instead of hanging the whole suite (expiry is checked every step,
  // and injected stalls poll the abort flag it raises).
  runtime::fault::Watchdog watchdog(guard.timeout_s);

  // Session setup (e.g. TF graph compile) counts toward training time.
  source.prepare(dropout_rng);

  // Guarded loop state: a periodic in-memory snapshot to roll back to,
  // and the cumulative learning-rate backoff across recoveries.
  const bool recovery_enabled = guard.max_recoveries > 0;
  std::vector<tensor::Tensor> snapshot;
  std::int64_t snapshot_step = 0;
  if (recovery_enabled) snapshot = clone_params(model);
  double lr_scale = 1.0;

  // Timed batch fetch, attributed to the data phase.
  auto next_batch = [&](data::Batch& b) {
    Span span("data.next_batch", "data", &result.phases.data_s);
    return loader.next(b);
  };

  std::int64_t step = 0;
  bool aborted = false;
  data::Batch batch;
  while (step < total_steps && !aborted) {
    const std::int64_t step_at_epoch_start = step;
    bool rolled_back = false;
    loader.start_epoch();
    while (step < total_steps && next_batch(batch)) {
      if (watchdog.expired()) {
        result.timed_out = true;
        aborted = true;
        break;
      }
      runtime::fault::maybe_stall_step(step);
      Span step_span("train.step", "train");
      {
        // Plan extent: gradients through the optimizer update. The
        // periodic snapshot below stays OUTSIDE it — its clones must
        // survive across steps, so they must never come from the step
        // arena. A rollback inside a replayed extent spills (fresh
        // optimizer state diverges from the measured trace), which
        // invalidates the plan and re-measures — never corrupts.
        auto extent = source.open_extent(batch.size());

        const double loss = source.gradients(batch, step, result.phases);

        bool divergent = false;
        {
          Span guard_span(nullptr, nullptr, &result.phases.guard_s);
          // Faults hit the gradients the optimizer would apply.
          if (runtime::fault::enabled()) {
            std::vector<std::span<float>> grad_spans;
            for (tensor::Tensor* g : model.grads())
              grad_spans.push_back(g->data());
            runtime::fault::maybe_corrupt_gradients(step, grad_spans);
          }

          // Divergence is detected *before* the update is applied, so
          // one bad step cannot poison the parameters it would write to.
          divergent = !std::isfinite(loss) ||
                      gradients_divergent(model.grads(), guard.grad_norm_limit);
          if (divergent) {
            if (result.divergence_step < 0) result.divergence_step = step;
            if (!recovery_enabled ||
                result.recovery_attempts >= guard.max_recoveries) {
              result.diverged = true;
              aborted = true;
            } else {
              // Bounded recovery: roll back to the snapshot, back off
              // the learning rate, and retry from there with a fresh
              // optimizer.
              ++result.recovery_attempts;
              runtime::trace::counter_add("train.rollbacks", 1);
              restore_params(model, snapshot);
              lr_scale *= guard.lr_backoff;
              optimizer = framework.make_optimizer(
                  scale_learning_rate(config, lr_scale), steps_per_epoch,
                  total_steps);
              while (!result.loss_curve.empty() &&
                     result.loss_curve.back().first >= snapshot_step)
                result.loss_curve.pop_back();
              step = snapshot_step;
              rolled_back = true;  // restart from a fresh epoch at snapshot
            }
          }
        }
        if (divergent) {
          if (rolled_back) source.params_changed(result.phases);
          break;
        }

        {
          Span span("optim.step", "optim", &result.phases.optimizer_s);
          optimizer->step(model.params(), model.grads(), step, device);
        }
        source.params_changed(result.phases);
        runtime::trace::counter_add("optim.steps", 1);

        if (step % options.loss_record_interval == 0 ||
            step + 1 == total_steps) {
          result.loss_curve.emplace_back(step, loss);
        }
        result.final_loss = loss;
        ++step;
      }

      if (recovery_enabled && guard.snapshot_interval > 0 &&
          step % guard.snapshot_interval == 0) {
        Span span("train.snapshot", "train", &result.phases.guard_s);
        snapshot = clone_params(model);
        snapshot_step = step;
      }
    }
    // Data starvation (e.g. every sample of an epoch dropped by an
    // injected fault): give up instead of spinning on empty epochs.
    if (step == step_at_epoch_start && !rolled_back && !aborted) {
      if (result.divergence_step < 0) result.divergence_step = step;
      result.diverged = true;
      break;
    }
  }

  result.train_time_s = runtime::seconds_since(start_ns);
  source.add_plan_stats(result);
  result.steps = step;
  result.epochs_run = static_cast<double>(step) /
                      static_cast<double>(steps_per_epoch);
  // Chance-level mean cross-entropy for C classes is ln(C); a run that
  // never gets meaningfully below it did not converge (paper Fig. 5).
  // A run that exhausted recovery is a failure regardless of the last
  // loss it managed to record.
  const double chance_loss =
      std::log(static_cast<double>(train_set.num_classes));
  result.converged = step > 0 && !result.diverged &&
                     std::isfinite(result.final_loss) &&
                     result.final_loss < 0.95 * chance_loss;
  return result;
}

}  // namespace dlbench::frameworks::detail
