// Adversarial attack tests: FGSM perturbation semantics, Jacobian
// correctness vs numeric differentiation, JSMA behaviour, and sweep
// bookkeeping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "adversarial/attacks.hpp"
#include "util/error.hpp"
#include "data/synthetic.hpp"
#include "frameworks/emulations.hpp"
#include "frameworks/registry.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"

namespace dlbench::adversarial {
namespace {

using frameworks::DatasetId;
using frameworks::FrameworkKind;
using runtime::Device;
using tensor::Shape;

Context cpu_ctx() {
  Context ctx;
  ctx.device = Device::cpu();
  ctx.training = false;
  return ctx;
}

// A small trained model shared by the attack tests (trained once).
struct TrainedFixture {
  data::DatasetPair mnist;
  nn::Sequential model;

  TrainedFixture() {
    data::MnistOptions d;
    d.train_samples = 400;
    d.test_samples = 100;
    mnist = data::synthetic_mnist(d);
    auto fw = frameworks::make_framework(FrameworkKind::kCaffe);
    auto config = frameworks::default_training_config(FrameworkKind::kCaffe,
                                                      DatasetId::kMnist);
    auto spec = frameworks::default_network_spec(FrameworkKind::kCaffe,
                                                 DatasetId::kMnist);
    util::Rng rng(7);
    model = fw->build_model(spec, Device::gpu(), rng);
    frameworks::TrainOptions opts;
    opts.scale.max_step_cap = 60;
    (void)fw->train(model, mnist.train, config, Device::gpu(), opts);
  }
};

TrainedFixture& fixture() {
  static TrainedFixture fx;
  return fx;
}

TEST(Fgsm, OneShotPerturbationIsBoundedByEpsilon) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  tensor::Tensor x = fx.mnist.test.sample(0);
  FgsmOptions opt;
  opt.epsilon = 0.02f;
  opt.max_iterations = 1;
  opt.clip = false;
  AttackOutcome out = fgsm_attack(fx.model, x, fx.mnist.test.labels[0], opt,
                                  ctx);
  EXPECT_EQ(out.iterations, 1);
  float max_abs = 0.f;
  for (std::int64_t i = 0; i < x.numel(); ++i)
    max_abs = std::max(max_abs,
                       std::fabs(out.adversarial_example.at(i) - x.at(i)));
  EXPECT_LE(max_abs, opt.epsilon + 1e-6f);
  EXPECT_GT(max_abs, 0.f);
}

TEST(Fgsm, ClipKeepsPixelsInRange) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  tensor::Tensor x = fx.mnist.test.sample(1);
  FgsmOptions opt;
  opt.epsilon = 0.5f;
  opt.max_iterations = 3;
  AttackOutcome out = fgsm_attack(fx.model, x, fx.mnist.test.labels[1], opt,
                                  ctx);
  for (float v : out.adversarial_example.data()) {
    EXPECT_GE(v, 0.f);
    EXPECT_LE(v, 1.f);
  }
}

TEST(Fgsm, IteratedAttackFlipsPrediction) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  FgsmOptions opt;
  opt.epsilon = 0.05f;
  opt.max_iterations = 60;
  int successes = 0;
  int attempts = 0;
  for (std::int64_t i = 0; i < 10; ++i) {
    tensor::Tensor x = fx.mnist.test.sample(i);
    AttackOutcome out =
        fgsm_attack(fx.model, x, fx.mnist.test.labels[static_cast<std::size_t>(i)], opt, ctx);
    ++attempts;
    if (out.success) {
      ++successes;
      EXPECT_NE(out.final_class, out.source_class);
    }
  }
  EXPECT_GT(successes, attempts / 2) << "iterated FGSM should usually win";
}

TEST(Fgsm, RejectsBadArguments) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  tensor::Tensor x = fx.mnist.test.sample(0);
  FgsmOptions opt;
  opt.epsilon = 0.f;
  EXPECT_THROW(fgsm_attack(fx.model, x, 0, opt, ctx), dlbench::Error);
  opt.epsilon = 0.1f;
  opt.max_iterations = 0;
  EXPECT_THROW(fgsm_attack(fx.model, x, 0, opt, ctx), dlbench::Error);
  tensor::Tensor batch(Shape({2, 1, 28, 28}));
  opt.max_iterations = 1;
  EXPECT_THROW(fgsm_attack(fx.model, batch, 0, opt, ctx), dlbench::Error);
}

TEST(Jacobian, MatchesNumericDifferentiation) {
  // Tiny fc model so the full Jacobian is cheap to verify.
  util::Rng rng(8);
  nn::Sequential model;
  model.add(std::make_unique<nn::Flatten>());
  model.add(std::make_unique<nn::Linear>(16, 10,
                                         tensor::InitKind::kXavierUniform,
                                         rng));
  Context ctx = cpu_ctx();
  util::Rng xr(9);
  tensor::Tensor x = tensor::Tensor::randn(Shape({1, 1, 4, 4}), xr);

  tensor::Tensor jac = logit_jacobian(model, x, 10, ctx);
  ASSERT_EQ(jac.shape(), Shape({10, 16}));

  const float eps = 1e-2f;
  for (std::int64_t j = 0; j < 10; ++j) {
    for (std::int64_t i = 0; i < 16; ++i) {
      tensor::Tensor xp = x.clone(), xm = x.clone();
      xp.data()[i] += eps;
      xm.data()[i] -= eps;
      const float fp = model.forward(xp, ctx).at(j);
      const float fm = model.forward(xm, ctx).at(j);
      const float numeric = (fp - fm) / (2 * eps);
      ASSERT_NEAR(jac.at(j * 16 + i), numeric, 1e-3f)
          << "class " << j << " input " << i;
    }
  }
}

// The Jacobian the stacked pass replaces: one forward, then one batch-1
// backward per one-hot class seed, with parameter gradients on.
tensor::Tensor per_class_jacobian(nn::Sequential& model,
                                  const tensor::Tensor& x,
                                  std::int64_t classes, const Device& device) {
  Context ctx;
  ctx.device = device;
  (void)model.forward(x, ctx);
  const std::int64_t d = x.numel();
  tensor::Tensor jacobian(Shape({classes, d}));
  for (std::int64_t j = 0; j < classes; ++j) {
    tensor::Tensor seed(Shape({1, classes}));
    seed.raw()[j] = 1.f;
    model.zero_grads();
    tensor::Tensor dx = model.backward_from_logits(seed, ctx);
    std::memcpy(jacobian.raw() + j * d, dx.raw(),
                static_cast<std::size_t>(d) * sizeof(float));
  }
  return jacobian;
}

// Every default network, with the direct conv (Torch on the serial
// device) and the GEMM conv (the parallel device), row for row.
TEST(Jacobian, StackedRowsMatchPerClassBackward) {
  for (FrameworkKind kind : {FrameworkKind::kTensorFlow, FrameworkKind::kCaffe,
                             FrameworkKind::kTorch}) {
    for (DatasetId dataset : {DatasetId::kMnist, DatasetId::kCifar10}) {
      const auto spec = frameworks::default_network_spec(kind, dataset);
      for (const Device& device : {Device::cpu(), Device::parallel(2)}) {
        SCOPED_TRACE(spec.name + (device.is_parallel() ? " parallel" : " cpu"));
        util::Rng rng(11);
        nn::Sequential model =
            frameworks::make_framework(kind)->build_model(spec, device, rng);
        util::Rng xr(5);
        const tensor::Tensor x = tensor::Tensor::rand_uniform(
            Shape({1, spec.input_channels, spec.input_height,
                   spec.input_width}),
            xr, 0.f, 1.f);
        const tensor::Tensor expected =
            per_class_jacobian(model, x, 10, device);
        Context ctx;
        ctx.device = device;
        const tensor::Tensor actual = logit_jacobian(model, x, 10, ctx);
        ASSERT_EQ(actual.shape(), expected.shape());
        EXPECT_EQ(std::memcmp(actual.raw(), expected.raw(),
                              static_cast<std::size_t>(actual.numel()) *
                                  sizeof(float)),
                  0);
      }
    }
  }
}

TEST(Jsma, TargetedAttackIncreasesTargetLogit) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  tensor::Tensor x = fx.mnist.test.sample(2);
  const std::int64_t source = fx.mnist.test.labels[2];
  const std::int64_t target = (source + 3) % 10;

  const float before = fx.model.forward(x, ctx).at(target);
  JsmaOptions opt;
  opt.theta = 0.6f;
  opt.max_distortion = 0.08;
  AttackOutcome out = jsma_attack(fx.model, x, target, opt, ctx);
  const float after = fx.model.forward(out.adversarial_example, ctx).at(target);
  EXPECT_GT(after, before);
  EXPECT_GT(out.iterations, 0);
  EXPECT_LE(out.distortion_l0, opt.max_distortion + 1e-6);
  if (out.success) EXPECT_EQ(out.final_class, target);
}

TEST(Jsma, OnlyIncreasesPixelsAndRespectsClip) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  tensor::Tensor x = fx.mnist.test.sample(3);
  JsmaOptions opt;
  opt.theta = 1.0f;
  opt.max_distortion = 0.05;
  AttackOutcome out = jsma_attack(fx.model, x, 7, opt, ctx);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_GE(out.adversarial_example.at(i), x.at(i) - 1e-6f);
    EXPECT_LE(out.adversarial_example.at(i), 1.f);
  }
}

TEST(Jsma, AlreadyTargetClassIsTrivialSuccess) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  // Find a correctly classified sample and attack toward its own class.
  for (std::int64_t i = 0; i < fx.mnist.test.size(); ++i) {
    tensor::Tensor x = fx.mnist.test.sample(i);
    Context ectx = ctx;
    auto pred = fx.model.predict(x, ectx);
    if (pred[0] != fx.mnist.test.labels[static_cast<std::size_t>(i)]) continue;
    AttackOutcome out = jsma_attack(fx.model, x, pred[0], JsmaOptions{}, ctx);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.iterations, 0);
    EXPECT_DOUBLE_EQ(out.distortion_l0, 0.0);
    return;
  }
  GTEST_SKIP() << "model classified nothing correctly";
}

// An all-ones input has no pixel left to increase, so the saliency map
// is empty before any perturbation: the attack fails at once, and the
// final class is still the model's prediction.
TEST(Jsma, SaturatedInputReportsSourceClass) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  const tensor::Tensor ones(Shape({1, 1, 28, 28}), 1.f);
  const std::int64_t source = fx.model.predict(ones, ctx)[0];
  JsmaOptions opt;
  opt.classes = 10;
  AttackOutcome out = jsma_attack(fx.model, ones, (source + 1) % 10, opt, ctx);
  EXPECT_EQ(out.iterations, 0);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.source_class, source);
  EXPECT_EQ(out.final_class, source);
}

TEST(Sweeps, FgsmSweepBookkeeping) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  FgsmOptions opt;
  opt.epsilon = 0.05f;
  opt.max_iterations = 25;
  UntargetedSweep sweep =
      fgsm_sweep(fx.model, fx.mnist.test, opt, ctx, /*max_per_class=*/3);
  for (std::size_t c = 0; c < 10; ++c) {
    EXPECT_LE(sweep.attempts[c], 3);
    EXPECT_GE(sweep.success_rate[c], 0.0);
    EXPECT_LE(sweep.success_rate[c], 1.0);
    // Destinations only counted for successes, never the source class.
    EXPECT_EQ(sweep.destination_counts[c][c], 0);
    std::int64_t dest_total = 0;
    for (std::size_t t = 0; t < 10; ++t) dest_total += sweep.destination_counts[c][t];
    EXPECT_LE(dest_total, sweep.attempts[c]);
  }
  // Screening and crafting are timed separately now; both phases ran.
  EXPECT_GT(sweep.timing.screening_s, 0.0);
  EXPECT_GT(sweep.timing.craft_wall_s, 0.0);
  EXPECT_EQ(sweep.timing.craft_time.count(), sweep.total_attacks);
}

TEST(Sweeps, JsmaSweepBookkeeping) {
  auto& fx = fixture();
  Context ctx = cpu_ctx();
  JsmaOptions opt;
  opt.theta = 1.0f;
  opt.max_distortion = 0.03;  // keep the test fast
  TargetedSweep sweep = jsma_sweep(fx.model, fx.mnist.test, /*source=*/1, opt,
                                   ctx, /*samples_per_target=*/2);
  EXPECT_EQ(sweep.attempts[1], 0);  // no self-target
  EXPECT_GT(sweep.total_attacks, 0);
  EXPECT_GT(sweep.mean_craft_time_s, 0.0);
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_GE(sweep.success_rate[t], 0.0);
    EXPECT_LE(sweep.success_rate[t], 1.0);
  }
}


}  // namespace
}  // namespace dlbench::adversarial
