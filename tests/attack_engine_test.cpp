// Parallel crafting engine: the determinism contract (parallel sweeps
// bitwise-identical to serial at any thread count), replica
// independence of Sequential::clone, and engine bookkeeping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "adversarial/attacks.hpp"
#include "adversarial/engine.hpp"
#include "data/synthetic.hpp"
#include "frameworks/emulations.hpp"
#include "frameworks/registry.hpp"
#include "nn/layers.hpp"
#include "runtime/device.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace dlbench::adversarial {
namespace {

using frameworks::DatasetId;
using frameworks::FrameworkKind;
using runtime::Device;

Context gpu_ctx() {
  Context ctx;
  ctx.device = Device::gpu();  // engine must force serial inside units
  ctx.training = false;
  return ctx;
}

// One small trained model, for the sweeps that need a model that
// classifies well. Each ctest process trains it again, so only the
// Determinism tests use it.
struct TrainedFixture {
  data::DatasetPair mnist;
  nn::Sequential model;

  TrainedFixture() {
    data::MnistOptions d;
    d.train_samples = 400;
    d.test_samples = 120;
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

// Clone and engine bookkeeping hold for any weights: an untrained
// model builds in milliseconds.
nn::Sequential untrained_model() {
  const auto fw = frameworks::make_framework(FrameworkKind::kCaffe);
  util::Rng rng(3);
  return fw->build_model(frameworks::default_network_spec(
                             FrameworkKind::kCaffe, DatasetId::kMnist),
                         Device::cpu(), rng);
}

tensor::Tensor mnist_sample() {
  util::Rng rng(5);
  return tensor::Tensor::randn(tensor::Shape({1, 1, 28, 28}), rng);
}

TEST(SequentialClone, ReplicaMatchesOriginalBitwise) {
  nn::Sequential model = untrained_model();
  nn::Sequential replica = model.clone();
  Context ctx = gpu_ctx();
  ctx.device = Device::cpu();
  tensor::Tensor x = mnist_sample();
  tensor::Tensor a = model.forward(x, ctx);
  tensor::Tensor b = replica.forward(x, ctx);
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0);
}

TEST(SequentialClone, ReplicaWeightsAreIndependentStorage) {
  nn::Sequential model = untrained_model();
  nn::Sequential replica = model.clone();
  Context ctx = gpu_ctx();
  ctx.device = Device::cpu();
  tensor::Tensor x = mnist_sample();
  tensor::Tensor before = model.forward(x, ctx).clone();

  // Corrupt every replica parameter; the original must not notice.
  for (auto* param : replica.params())
    for (std::int64_t i = 0; i < param->numel(); ++i)
      param->raw()[i] += 1.f;
  tensor::Tensor after = model.forward(x, ctx);
  EXPECT_EQ(std::memcmp(before.raw(), after.raw(),
                        static_cast<std::size_t>(before.numel()) *
                            sizeof(float)),
            0);
}

// A replica of a model with cached activations and non-zero gradients
// starts fresh: zero gradients, and no cache to run backward from.
TEST(SequentialClone, ReplicaStartsWithZeroGradsAndEmptyCaches) {
  nn::Sequential source = untrained_model();
  Context ctx = gpu_ctx();
  ctx.device = Device::cpu();
  const std::vector<std::int64_t> labels{3};
  const nn::LossResult loss = source.forward_loss(mnist_sample(), labels, ctx);
  (void)source.backward(loss, labels, ctx);

  nn::Sequential replica = source.clone();
  for (tensor::Tensor* g : replica.grads())
    for (float v : g->data()) ASSERT_EQ(v, 0.f);
  for (std::size_t i = 0; i < replica.size(); ++i) {
    SCOPED_TRACE(replica.layer(i).describe());
    try {
      (void)replica.layer(i).backward(tensor::Tensor(tensor::Shape({1, 1})),
                                      ctx);
      ADD_FAILURE() << "backward ran without a forward";
    } catch (const dlbench::Error& e) {
      EXPECT_NE(std::string(e.what()).find("before forward"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CraftUnits, CoversEveryUnitOnceAndCountsThem) {
  const nn::Sequential model = untrained_model();
  const std::int64_t units = 23;
  std::vector<int> hits(static_cast<std::size_t>(units), 0);
  CraftTiming t = craft_units(
      model, gpu_ctx(), units, /*threads=*/4,
      [&](nn::Sequential&, const Context& ctx, std::int64_t u) {
        // The engine must hand units a serial device (determinism +
        // no pool re-entrancy) and an eval-mode context.
        EXPECT_FALSE(ctx.device.is_parallel());
        EXPECT_FALSE(ctx.training);
        ++hits[static_cast<std::size_t>(u)];  // one writer per slot
        return 1e-4;
      });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(t.craft_time.count(), units);
  EXPECT_GE(t.craft_wall_s, 0.0);
  EXPECT_EQ(t.screening_s, 0.0);  // screening belongs to the caller
}

TEST(CraftUnits, PropagatesUnitException) {
  const nn::Sequential model = untrained_model();
  EXPECT_THROW(
      craft_units(model, gpu_ctx(), 8, /*threads=*/2,
                  [&](nn::Sequential&, const Context&, std::int64_t u) {
                    if (u == 5) throw dlbench::Error("unit boom");
                    return 1e-4;
                  }),
      dlbench::Error);
}

// The contract the whole subsystem hangs on: sweeps at any thread
// count produce bitwise-identical tables. Compare full FGSM sweeps at
// 1, 2 and 8 threads field by field with exact equality.
TEST(Determinism, FgsmSweepIsBitwiseIdenticalAcrossThreadCounts) {
  auto& fx = fixture();
  FgsmOptions opt;
  opt.epsilon = 0.05f;
  opt.max_iterations = 10;
  const UntargetedSweep serial =
      fgsm_sweep(fx.model, fx.mnist.test, opt, gpu_ctx(),
                 /*max_per_class=*/3, /*threads=*/1);
  ASSERT_GT(serial.total_attacks, 0);
  for (int threads : {2, 8}) {
    const UntargetedSweep par =
        fgsm_sweep(fx.model, fx.mnist.test, opt, gpu_ctx(),
                   /*max_per_class=*/3, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par.total_attacks, serial.total_attacks);
    EXPECT_EQ(par.total_successes, serial.total_successes);
    EXPECT_EQ(par.total_iterations, serial.total_iterations);
    for (int c = 0; c < 10; ++c) {
      EXPECT_EQ(par.attempts[c], serial.attempts[c]);
      // Bitwise: rates are ratios of identical integers.
      EXPECT_EQ(std::memcmp(&par.success_rate[c], &serial.success_rate[c],
                            sizeof(double)),
                0);
      for (int t = 0; t < 10; ++t)
        EXPECT_EQ(par.destination_counts[c][t],
                  serial.destination_counts[c][t]);
    }
    EXPECT_EQ(par.timing.craft_time.count(),
              serial.timing.craft_time.count());
  }
}

TEST(Determinism, JsmaSweepIsBitwiseIdenticalAcrossThreadCounts) {
  auto& fx = fixture();
  JsmaOptions opt;
  opt.theta = 1.0f;
  opt.max_distortion = 0.03;  // keep the test fast
  const TargetedSweep serial =
      jsma_sweep(fx.model, fx.mnist.test, /*source=*/1, opt, gpu_ctx(),
                 /*samples_per_target=*/2, /*threads=*/1);
  ASSERT_GT(serial.total_attacks, 0);
  for (int threads : {2, 8}) {
    const TargetedSweep par =
        jsma_sweep(fx.model, fx.mnist.test, /*source=*/1, opt, gpu_ctx(),
                   /*samples_per_target=*/2, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par.total_attacks, serial.total_attacks);
    EXPECT_EQ(par.total_successes, serial.total_successes);
    EXPECT_EQ(par.total_iterations, serial.total_iterations);
    for (int t = 0; t < 10; ++t) {
      EXPECT_EQ(par.attempts[t], serial.attempts[t]);
      EXPECT_EQ(std::memcmp(&par.success_rate[t], &serial.success_rate[t],
                            sizeof(double)),
                0);
    }
    EXPECT_EQ(par.timing.craft_time.count(),
              serial.timing.craft_time.count());
    EXPECT_EQ(par.timing.threads, threads);
  }
}

// Crafting with more threads than units must clamp, not spawn idle
// replicas (each replica deep-copies all weights).
TEST(CraftUnits, ClampsWorkersToUnitCount) {
  CraftTiming t = craft_units(
      untrained_model(), gpu_ctx(), /*unit_count=*/2, /*threads=*/16,
      [&](nn::Sequential&, const Context&, std::int64_t) { return 1e-4; });
  EXPECT_LE(t.threads, 2);
  EXPECT_EQ(t.craft_time.count(), 2);
}

TEST(CraftUnits, ZeroUnitsIsANoop) {
  CraftTiming t = craft_units(
      untrained_model(), gpu_ctx(), 0, 4,
      [&](nn::Sequential&, const Context&, std::int64_t) {
        ADD_FAILURE() << "no units should run";
        return 0.0;
      });
  EXPECT_EQ(t.craft_time.count(), 0);
}

// Crafting fans out through the one process-wide Device::gpu() pool:
// with DLB_THREADS=3, a GPU kernel plus a 2-thread crafting call add 3
// threads to the process, not a second pool's 3 more. Under ctest each
// TEST runs in its own process, so both calls here create what they
// use.
TEST(CraftUnits, SharesTheDevicePool) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  const auto threads_now = [] {
    std::int64_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++n;
    }
    return n;
  };
  ::setenv("DLB_THREADS", "3", 1);
  const nn::Sequential model = untrained_model();
  // Sanitizer runtimes start a helper thread at the first thread
  // creation; create (and join) one before taking the baseline.
  std::thread([] {}).join();
  const std::int64_t before = threads_now();

  Device::gpu().parallel_for(64, [](std::size_t, std::size_t) {}, 1);
  CraftTiming t = craft_units(
      model, gpu_ctx(), /*unit_count=*/4, /*threads=*/2,
      [](nn::Sequential&, const Context&, std::int64_t) { return 1e-4; });
  ::unsetenv("DLB_THREADS");

  EXPECT_EQ(t.threads, 2);
  EXPECT_EQ(t.craft_time.count(), 4);
  EXPECT_EQ(threads_now() - before, 3);
#endif
}

}  // namespace
}  // namespace dlbench::adversarial
