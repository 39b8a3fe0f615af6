#include "adversarial/attacks.hpp"

#include <algorithm>
#include <cmath>

#include "adversarial/engine.hpp"
#include "nn/frozen.hpp"
#include "runtime/trace.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace dlbench::adversarial {

using runtime::trace::Span;

namespace {

// Attacks differentiate the deployed (eval-mode) model with respect to
// its input only: no parameter gradient is computed, accumulated or
// zeroed.
Context attack_context(const Context& ctx) {
  Context eval = ctx;
  eval.training = false;
  eval.param_grads = false;
  return eval;
}

// Jacobian of the logits cached by the model's last forward of one
// sample: the classes x classes identity backpropagated as `classes`
// stacked cotangents, so row j is d logit_j / d x.
Tensor cached_jacobian(Sequential& model, std::int64_t classes,
                       const Context& eval) {
  Tensor seeds({classes, classes});
  for (std::int64_t j = 0; j < classes; ++j) seeds.raw()[j * classes + j] = 1.f;
  const Tensor dx = model.backward_from_logits(seeds, eval);
  return dx.reshape(tensor::Shape({classes, dx.numel() / classes}));
}

std::int64_t predict_one(Sequential& model, const Tensor& x,
                         const Context& ctx) {
  Context eval = ctx;
  eval.training = false;
  Tensor logits = model.forward(x, eval);
  return tensor::argmax_row(logits, 0);
}

double l0_distortion(const Tensor& a, const Tensor& b) {
  std::int64_t changed = 0;
  const float* pa = a.raw();
  const float* pb = b.raw();
  for (std::int64_t i = 0; i < a.numel(); ++i)
    if (pa[i] != pb[i]) ++changed;
  return static_cast<double>(changed) / static_cast<double>(a.numel());
}

}  // namespace

AttackOutcome fgsm_attack(Sequential& model, const Tensor& x,
                          std::int64_t label, const FgsmOptions& options,
                          const Context& ctx) {
  DLB_CHECK(x.shape().rank() == 4 && x.dim(0) == 1,
            "attack expects a single [1, C, H, W] sample");
  DLB_CHECK(options.epsilon > 0.f, "epsilon must be positive");
  DLB_CHECK(options.max_iterations >= 1, "need at least one iteration");

  const Context eval = attack_context(ctx);

  AttackOutcome outcome;
  outcome.source_class = label;
  Tensor adv;
  {
    Span craft(nullptr, nullptr, &outcome.craft_time_s);
    adv = x.clone();
    const std::vector<std::int64_t> labels{label};
    for (int it = 0; it < options.max_iterations; ++it) {
      nn::LossResult loss = model.forward_loss(adv, labels, eval);
      Tensor dx = model.backward(loss, labels, eval);
      Tensor step = tensor::sign(dx, eval.device);
      tensor::axpy_inplace(adv, options.epsilon, step, eval.device);
      if (options.clip) adv = tensor::clamp(adv, 0.f, 1.f, eval.device);
      outcome.iterations = it + 1;

      const std::int64_t pred = predict_one(model, adv, eval);
      if (pred != label) {
        outcome.success = true;
        outcome.final_class = pred;
        break;
      }
      outcome.final_class = pred;
    }
  }
  outcome.distortion_l0 = l0_distortion(x, adv);
  outcome.adversarial_example = adv;
  return outcome;
}

Tensor logit_jacobian(Sequential& model, const Tensor& x,
                      std::int64_t classes, const Context& ctx) {
  DLB_CHECK(x.shape().rank() == 4 && x.dim(0) == 1,
            "jacobian expects a single sample");
  const Context eval = attack_context(ctx);
  (void)model.forward(x, eval);
  return cached_jacobian(model, classes, eval);
}

AttackOutcome jsma_attack(Sequential& model, const Tensor& x,
                          std::int64_t target, const JsmaOptions& options,
                          const Context& ctx) {
  DLB_CHECK(x.shape().rank() == 4 && x.dim(0) == 1,
            "attack expects a single [1, C, H, W] sample");
  DLB_CHECK(options.theta > 0.f, "theta must be positive");

  const Context eval = attack_context(ctx);

  AttackOutcome outcome;
  Tensor adv;
  {
    Span craft(nullptr, nullptr, &outcome.craft_time_s);
    adv = x.clone();
    const std::int64_t d = adv.numel();
    const int max_iterations = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(options.max_distortion *
                                     static_cast<double>(d)));

    // The Jacobian spans the model's logits; a caller-provided class
    // count (e.g. the dataset's) must agree with what the model emits —
    // a silent mismatch would read garbage rows or truncate the
    // "other-class mass" term of the saliency map.
    Tensor logits = model.forward(adv, eval);
    const std::int64_t logit_width = logits.dim(logits.shape().rank() - 1);
    const std::int64_t classes =
        options.classes > 0 ? options.classes : logit_width;
    DLB_CHECK(classes == logit_width,
              "JsmaOptions.classes=" << classes << " but the model emits "
                                     << logit_width << " logits");
    DLB_CHECK(target >= 0 && target < classes,
              "JSMA target " << target << " out of range [0, " << classes
                             << ")");
    outcome.source_class = tensor::argmax_row(logits, 0);
    outcome.final_class = outcome.source_class;
    // Already the target class: trivially successful, zero distortion.
    outcome.success = outcome.source_class == target;

    for (int it = 0; it < max_iterations && !outcome.success; ++it) {
      // The model's cache holds the forward of `adv` as it stands: the
      // classification above, or the previous iteration's check below.
      Tensor jac = cached_jacobian(model, classes, eval);
      const float* J = jac.raw();
      float* px = adv.raw();

      // Saliency map, Equation (2): reject features whose target
      // derivative is negative or whose other-class mass increases;
      // score the rest by dF_t/dx_i * |sum_{j != t} dF_j/dx_i|.
      std::int64_t best = -1;
      float best_score = 0.f;
      for (std::int64_t i = 0; i < d; ++i) {
        if (px[i] >= 1.f) continue;  // saturated, cannot increase
        const float alpha = J[target * d + i];
        float others = 0.f;
        for (std::int64_t j = 0; j < classes; ++j)
          if (j != target) others += J[j * d + i];
        if (alpha < 0.f || others > 0.f) continue;
        const float score = alpha * std::fabs(others);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      if (best < 0) break;  // saliency map exhausted

      px[best] = std::min(1.f, px[best] + options.theta);
      outcome.iterations = it + 1;

      const std::int64_t pred =
          tensor::argmax_row(model.forward(adv, eval), 0);
      outcome.final_class = pred;
      if (pred == target) {
        outcome.success = true;
        break;
      }
    }
  }
  outcome.distortion_l0 = l0_distortion(x, adv);
  outcome.adversarial_example = adv;
  return outcome;
}

UntargetedSweep fgsm_sweep(const Sequential& model, const data::Dataset& data,
                           const FgsmOptions& options, const Context& ctx,
                           std::int64_t max_per_class, int threads) {
  DLB_CHECK(data.num_classes == 10, "sweeps assume 10 classes");
  UntargetedSweep sweep;

  // Phase 1 — screening (victim selection), timed separately from
  // crafting: attack only samples the model classifies correctly, as
  // in the paper (success rate measures crafting, not model error).
  // A frozen view keeps the caller's model untouched and is
  // bitwise-identical to eval-mode forward.
  struct Unit {
    std::int64_t sample;
    std::int64_t label;
  };
  std::vector<Unit> units;
  double screening_s = 0.0;
  {
    Span screening(nullptr, nullptr, &screening_s);
    const nn::FrozenModel frozen = nn::FrozenModel::freeze(model);
    for (std::int64_t i = 0; i < data.size(); ++i) {
      const std::int64_t label = data.labels[static_cast<std::size_t>(i)];
      const auto cls = static_cast<std::size_t>(label);
      if (sweep.attempts[cls] >= max_per_class) continue;
      Tensor x = data.sample(i);
      if (frozen.predict(x, ctx.device)[0] != label) continue;
      ++sweep.attempts[cls];
      units.push_back({i, label});
    }
  }
  sweep.total_attacks = static_cast<std::int64_t>(units.size());

  // Phase 2 — crafting, fanned across the engine. Each unit writes
  // only its own slot; tallies are reduced in unit-index order below,
  // so the tables are bitwise-identical at any thread count.
  struct Slot {
    bool success = false;
    std::int64_t final_class = -1;
    int iterations = 0;
  };
  std::vector<Slot> slots(units.size());
  CraftTiming craft = craft_units(
      model, ctx, static_cast<std::int64_t>(units.size()), threads,
      [&](Sequential& replica, const Context& unit_ctx, std::int64_t u) {
        const auto i = static_cast<std::size_t>(u);
        Tensor x = data.sample(units[i].sample);
        AttackOutcome out =
            fgsm_attack(replica, x, units[i].label, options, unit_ctx);
        slots[i] = {out.success, out.final_class, out.iterations};
        return out.craft_time_s;
      });
  craft.screening_s = screening_s;
  sweep.timing = std::move(craft);

  std::array<std::int64_t, 10> successes{};
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto cls = static_cast<std::size_t>(units[u].label);
    sweep.total_iterations += slots[u].iterations;
    if (slots[u].success) {
      ++successes[cls];
      ++sweep.total_successes;
      ++sweep.destination_counts[cls]
            [static_cast<std::size_t>(slots[u].final_class)];
    }
  }
  for (std::size_t c = 0; c < 10; ++c)
    sweep.success_rate[c] =
        sweep.attempts[c] == 0
            ? 0.0
            : static_cast<double>(successes[c]) /
                  static_cast<double>(sweep.attempts[c]);
  return sweep;
}

TargetedSweep jsma_sweep(const Sequential& model, const data::Dataset& data,
                         std::int64_t source_class, const JsmaOptions& options,
                         const Context& ctx, std::int64_t samples_per_target,
                         int threads) {
  DLB_CHECK(data.num_classes == 10, "sweeps assume 10 classes");
  TargetedSweep sweep;
  JsmaOptions unit_options = options;
  if (unit_options.classes == 0) unit_options.classes = data.num_classes;

  // Phase 1 — screening: collect correctly-classified source samples
  // once (frozen view; timed separately from crafting).
  std::vector<std::int64_t> sources;
  double screening_s = 0.0;
  {
    Span screening(nullptr, nullptr, &screening_s);
    const nn::FrozenModel frozen = nn::FrozenModel::freeze(model);
    for (std::int64_t i = 0; i < data.size() &&
                             static_cast<std::int64_t>(sources.size()) <
                                 samples_per_target;
         ++i) {
      if (data.labels[static_cast<std::size_t>(i)] != source_class) continue;
      Tensor x = data.sample(i);
      if (frozen.predict(x, ctx.device)[0] == source_class)
        sources.push_back(i);
    }
  }

  // Phase 2 — crafting. Unit order preserves the serial sweep's
  // enumeration: targets ascending, sources inside each target.
  struct Unit {
    std::int64_t target;
    std::int64_t sample;
  };
  std::vector<Unit> units;
  units.reserve(static_cast<std::size_t>(9) * sources.size());
  for (std::int64_t target = 0; target < 10; ++target) {
    if (target == source_class) continue;
    for (std::int64_t idx : sources) units.push_back({target, idx});
  }

  struct Slot {
    bool success = false;
    int iterations = 0;
  };
  std::vector<Slot> slots(units.size());
  CraftTiming craft = craft_units(
      model, ctx, static_cast<std::int64_t>(units.size()), threads,
      [&](Sequential& replica, const Context& unit_ctx, std::int64_t u) {
        const auto i = static_cast<std::size_t>(u);
        Tensor x = data.sample(units[i].sample);
        AttackOutcome out =
            jsma_attack(replica, x, units[i].target, unit_options, unit_ctx);
        slots[i] = {out.success, out.iterations};
        return out.craft_time_s;
      });
  craft.screening_s = screening_s;
  sweep.timing = std::move(craft);

  std::array<std::int64_t, 10> successes{};
  for (std::size_t u = 0; u < units.size(); ++u) {
    const auto t = static_cast<std::size_t>(units[u].target);
    ++sweep.attempts[t];
    ++sweep.total_attacks;
    sweep.total_iterations += slots[u].iterations;
    if (slots[u].success) {
      ++successes[t];
      ++sweep.total_successes;
    }
  }
  for (std::size_t t = 0; t < 10; ++t)
    sweep.success_rate[t] =
        sweep.attempts[t] == 0
            ? 0.0
            : static_cast<double>(successes[t]) /
                  static_cast<double>(sweep.attempts[t]);
  // Exact: the histogram keeps an integer nanosecond sum, so the mean
  // does not drift with merge order.
  sweep.mean_craft_time_s =
      sweep.total_attacks == 0 ? 0.0 : sweep.timing.craft_time.mean_s();
  return sweep;
}

}  // namespace dlbench::adversarial
