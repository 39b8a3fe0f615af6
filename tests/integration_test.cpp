// End-to-end integration tests crossing module boundaries: the
// train -> checkpoint -> reload -> attack pipeline, device-crossing
// evaluation, and a hand-written training loop.

#include <gtest/gtest.h>

#include <sstream>

#include "adversarial/attacks.hpp"
#include "core/harness.hpp"
#include "data/synthetic.hpp"
#include "nn/checkpoint.hpp"

namespace dlbench {
namespace {

using core::Harness;
using core::HarnessOptions;
using frameworks::DatasetId;
using frameworks::FrameworkKind;
using runtime::Device;

TEST(Integration, TrainCheckpointReloadAttack) {
  Harness harness(HarnessOptions::test_profile());
  auto trained = harness.train_model(FrameworkKind::kCaffe,
                                     FrameworkKind::kCaffe,
                                     DatasetId::kMnist, DatasetId::kMnist,
                                     Device::gpu());

  // Round-trip through a checkpoint into a freshly initialized model.
  std::stringstream buffer;
  nn::save_checkpoint(trained.model, buffer);
  auto framework = frameworks::make_framework(FrameworkKind::kCaffe);
  nn::NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kCaffe, DatasetId::kMnist);
  util::Rng rng(99);
  nn::Sequential restored =
      framework->build_model(spec, Device::gpu(), rng);
  nn::load_checkpoint(restored, buffer);

  // Restored model evaluates identically.
  auto e1 = framework->evaluate(trained.model, trained.test, Device::gpu());
  auto e2 = framework->evaluate(restored, trained.test, Device::gpu());
  EXPECT_EQ(e1.correct, e2.correct);

  // And is attackable: FGSM gradient flows through the restored net.
  nn::Context ctx;
  ctx.device = Device::gpu();
  adversarial::FgsmOptions fgsm;
  fgsm.epsilon = 0.05f;
  fgsm.max_iterations = 30;
  auto outcome = adversarial::fgsm_attack(
      restored, trained.test.sample(0), trained.test.labels[0], fgsm, ctx);
  EXPECT_GT(outcome.iterations, 0);
}

TEST(Integration, TrainOnGpuEvaluateOnCpuMatches) {
  // One code path, two devices: a GPU-trained model must classify
  // identically when evaluated serially (paper's CPU/GPU parity
  // observation for accuracy).
  Harness harness(HarnessOptions::test_profile());
  auto trained = harness.train_model(FrameworkKind::kCaffe,
                                     FrameworkKind::kCaffe,
                                     DatasetId::kMnist, DatasetId::kMnist,
                                     Device::gpu());
  auto framework = frameworks::make_framework(FrameworkKind::kCaffe);
  auto gpu_eval =
      framework->evaluate(trained.model, trained.test, Device::gpu());
  auto cpu_eval =
      framework->evaluate(trained.model, trained.test, Device::cpu());
  EXPECT_EQ(gpu_eval.correct, cpu_eval.correct);
  EXPECT_EQ(gpu_eval.total, cpu_eval.total);
}

TEST(Integration, ManualTrainingLoopLearns) {
  // Drive a training loop by hand from the public pieces (loader,
  // forward/backward, optimizer) instead of Framework::train.
  data::MnistOptions opt;
  opt.train_samples = 200;
  opt.test_samples = 80;
  data::DatasetPair mnist = data::synthetic_mnist(opt);

  auto framework = frameworks::make_framework(FrameworkKind::kCaffe);
  nn::NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kCaffe, DatasetId::kMnist);
  util::Rng rng(5);
  const Device dev = Device::gpu();
  nn::Sequential model = framework->build_model(spec, dev, rng);

  frameworks::TrainingConfig config = frameworks::default_training_config(
      FrameworkKind::kCaffe, DatasetId::kMnist);
  auto optimizer = framework->make_optimizer(config, 4, 60);

  nn::Context ctx;
  ctx.device = dev;
  ctx.training = true;
  util::Rng dropout_rng(6);
  ctx.rng = &dropout_rng;

  data::DataLoader loader(mnist.train, config.batch_size, true,
                          util::Rng(8));
  std::int64_t step = 0;
  data::Batch batch;
  while (step < 60) {
    loader.start_epoch();
    while (step < 60 && loader.next(batch)) {
      model.zero_grads();
      auto loss = model.forward_loss(batch.images, batch.labels, ctx);
      model.backward(loss, batch.labels, ctx);
      optimizer->step(model.params(), model.grads(), step, dev);
      ++step;
    }
  }
  auto eval = framework->evaluate(model, mnist.test, dev);
  EXPECT_GT(eval.accuracy_pct, 60.0);
}

TEST(Integration, SameSeedSameResultsAcrossHarnessInstances) {
  HarnessOptions opts = HarnessOptions::test_profile();
  Harness h1(opts), h2(opts);
  auto r1 = h1.run_default(FrameworkKind::kCaffe, DatasetId::kMnist,
                           Device::gpu());
  auto r2 = h2.run_default(FrameworkKind::kCaffe, DatasetId::kMnist,
                           Device::gpu());
  EXPECT_EQ(r1.eval.accuracy_pct, r2.eval.accuracy_pct);
  EXPECT_EQ(r1.train.final_loss, r2.train.final_loss);
  EXPECT_EQ(r1.train.steps, r2.train.steps);
}

}  // namespace
}  // namespace dlbench
