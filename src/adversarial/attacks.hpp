#pragma once

// Adversarial example crafting — the paper's fourth metric family.
//
// Two attacks, exactly the ones in §II-C:
//  * FGSM (Goodfellow et al.): untargeted, x' = x + eps*sign(dL/dx).
//    Exposed both as the paper's one-shot formula and as the iterated
//    variant (apply-until-misclassified) used for the Fig 8 sweeps.
//  * JSMA (Papernot et al.): targeted. Builds the logit Jacobian with
//    one backward pass of all class seeds stacked as cotangents, scores
//    input features with the saliency map of the paper's Equation (2),
//    and perturbs the highest-saliency feature per iteration.
//
// Both attacks differentiate with Context::param_grads off: only the
// input gradient is computed, and no parameter gradient is touched.

#include <array>
#include <cstdint>
#include <vector>

#include "adversarial/engine.hpp"
#include "data/dataset.hpp"
#include "nn/sequential.hpp"

namespace dlbench::adversarial {

using nn::Context;
using nn::Sequential;
using tensor::Tensor;

/// Result of attacking one sample.
struct AttackOutcome {
  bool success = false;
  std::int64_t source_class = -1;
  std::int64_t final_class = -1;
  int iterations = 0;
  double craft_time_s = 0.0;
  double distortion_l0 = 0.0;  // fraction of features changed
  Tensor adversarial_example;  // [1, C, H, W]
};

struct FgsmOptions {
  /// Paper §III-E sets eps = 0.001.
  float epsilon = 0.001f;
  /// 1 reproduces the one-shot formula; >1 iterates (BIM) until the
  /// prediction flips or the budget is exhausted.
  int max_iterations = 1;
  /// Keep pixels in [0, 1].
  bool clip = true;
};

/// Untargeted FGSM on a single sample with true label `label`.
AttackOutcome fgsm_attack(Sequential& model, const Tensor& x,
                          std::int64_t label, const FgsmOptions& options,
                          const Context& ctx);

struct JsmaOptions {
  /// Per-step feature increment (clipped into [0,1]).
  float theta = 0.5f;
  /// Stop after perturbing this fraction of input features.
  double max_distortion = 0.12;
  /// Number of classes the Jacobian spans. 0 derives it from the
  /// model's logit width; a nonzero value is validated against it
  /// (sweeps set this from the dataset's num_classes).
  std::int64_t classes = 0;
};

/// Targeted JSMA: perturbs `x` until the model classifies it as
/// `target` or the distortion budget runs out. Each iteration's
/// classifying forward also serves the next iteration's Jacobian.
/// `final_class` is the prediction on the returned example, so it is
/// the source class when the saliency map is empty from the start.
AttackOutcome jsma_attack(Sequential& model, const Tensor& x,
                          std::int64_t target, const JsmaOptions& options,
                          const Context& ctx);

/// Logit Jacobian at x: row j holds d logit_j / d x (flattened input).
/// One forward pass plus one backward pass of the classes x classes
/// identity, stacked as `classes` cotangents over the cached batch-1
/// forward (Sequential::backward_from_logits); each row is bitwise
/// equal to a separate backward of its one-hot seed.
Tensor logit_jacobian(Sequential& model, const Tensor& x,
                      std::int64_t classes, const Context& ctx);

// ---- sweeps over a dataset ----
//
// Both sweeps run in two phases. Screening (serial, timed as
// timing.screening_s) selects the victims with a frozen inference view
// of the model — bitwise-identical to eval-mode forward, and it leaves
// the model untouched. Crafting fans the selected attack units across
// `threads` workers via the crafting engine (engine.hpp), each with
// its own deep-copied model replica; per-unit outcomes are reduced in
// unit-index order afterwards, so every tally below is
// bitwise-identical at any thread count.

/// Fig 8: per-source-digit untargeted success rates and the matrix of
/// destination classes adversarial examples fall into.
struct UntargetedSweep {
  std::array<double, 10> success_rate{};             // per source class
  std::array<std::array<std::int64_t, 10>, 10> destination_counts{};
  std::array<std::int64_t, 10> attempts{};
  std::int64_t total_attacks = 0;
  std::int64_t total_successes = 0;
  /// Sum of per-attack gradient iterations (deterministic work proxy).
  std::int64_t total_iterations = 0;
  /// Screening vs crafting wall clock + per-attack craft-time
  /// distribution. Screening predictions used to be folded into the
  /// sweep's total time, inflating the paper's crafting-time metric.
  CraftTiming timing;
};
UntargetedSweep fgsm_sweep(const Sequential& model, const data::Dataset& data,
                           const FgsmOptions& options, const Context& ctx,
                           std::int64_t max_per_class, int threads = 1);

/// Fig 9 / Tables VIII–IX: success rate of crafting `source_class`
/// into every other class, plus mean crafting time.
struct TargetedSweep {
  std::array<double, 10> success_rate{};  // index = target class
  std::array<std::int64_t, 10> attempts{};
  double mean_craft_time_s = 0.0;
  std::int64_t total_attacks = 0;
  std::int64_t total_successes = 0;
  /// Sum of per-attack perturbation iterations.
  std::int64_t total_iterations = 0;
  CraftTiming timing;
};
TargetedSweep jsma_sweep(const Sequential& model, const data::Dataset& data,
                         std::int64_t source_class, const JsmaOptions& options,
                         const Context& ctx, std::int64_t samples_per_target,
                         int threads = 1);

}  // namespace dlbench::adversarial
