// Fault-injection subsystem + guarded training loop: deterministic
// fault plans, NaN-gradient injection with rollback recovery, retry
// exhaustion degrading to a diverged record, watchdog timeouts on
// stalled workers, dataset sample drops, and checkpoint corruption.
// The guard-contract cases run through both gradient sources of the
// one loop: Framework::train and DataParallelTrainer.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"
#include "frameworks/data_parallel.hpp"
#include "frameworks/registry.hpp"
#include "nn/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "util/error.hpp"

namespace dlbench {
namespace {

namespace fault = runtime::fault;
using frameworks::DatasetId;
using frameworks::FrameworkKind;
using frameworks::TrainOptions;
using frameworks::TrainResult;
using frameworks::TrainingConfig;
using runtime::Device;

// The guarded loop's two gradient sources: Framework::train, and
// DataParallelTrainer with K = 2 workers over S = 4 shards. The guard
// contract cases below run on both.
enum class Path { kSerial, kDataParallel };
constexpr Path kPaths[] = {Path::kSerial, Path::kDataParallel};

const char* path_name(Path path) {
  return path == Path::kSerial ? "Framework::train"
                               : "DataParallelTrainer K=2 S=4";
}

// One small Caffe-MNIST training cell; cheap and reliably convergent
// within `step_cap` steps when nothing interferes.
struct Cell {
  data::DatasetPair mnist;
  std::unique_ptr<frameworks::Framework> fw;
  TrainingConfig config;
  nn::NetworkSpec spec;

  Cell() {
    data::MnistOptions d;
    d.train_samples = 300;
    d.test_samples = 100;
    mnist = data::synthetic_mnist(d);
    fw = frameworks::make_framework(FrameworkKind::kCaffe);
    config = frameworks::default_training_config(FrameworkKind::kCaffe,
                                                 DatasetId::kMnist);
    spec = frameworks::default_network_spec(FrameworkKind::kCaffe,
                                            DatasetId::kMnist);
  }

  TrainResult train(const TrainOptions& opts, const Device& dev,
                    Path path = Path::kSerial) {
    util::Rng rng(3);
    nn::Sequential model = fw->build_model(spec, dev, rng);
    if (path == Path::kSerial)
      return fw->train(model, mnist.train, config, dev, opts);
    frameworks::DataParallelOptions dp;
    dp.workers = 2;
    dp.shards = 4;
    dp.train = opts;
    return frameworks::DataParallelTrainer(*fw, dp).train(model, mnist.train,
                                                          config, dev);
  }
};

TrainOptions guarded_options(std::int64_t step_cap) {
  TrainOptions opts;
  opts.scale.max_step_cap = step_cap;
  opts.guard.max_recoveries = 2;
  opts.guard.snapshot_interval = 10;
  return opts;
}

// ---- plan / scope plumbing ----

TEST(FaultPlan, InactiveByDefault) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(fault::enabled());
}

TEST(FaultPlan, FromEnvReadsKnobs) {
  setenv("DLB_FAULT_NAN_STEP", "7", 1);
  setenv("DLB_FAULT_GRAD_FIRES", "3", 1);
  setenv("DLB_FAULT_DROP_RATE", "0.25", 1);
  fault::FaultPlan plan = fault::FaultPlan::from_env();
  unsetenv("DLB_FAULT_NAN_STEP");
  unsetenv("DLB_FAULT_GRAD_FIRES");
  unsetenv("DLB_FAULT_DROP_RATE");
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.grad_fault, fault::GradFault::kNaN);
  EXPECT_EQ(plan.grad_step, 7);
  EXPECT_EQ(plan.grad_max_fires, 3);
  EXPECT_DOUBLE_EQ(plan.sample_drop_rate, 0.25);
}

TEST(FaultScope, NestingThrows) {
  fault::FaultPlan plan;
  plan.sample_drop_rate = 0.1;
  fault::FaultScope outer(plan);
  EXPECT_TRUE(fault::enabled());
  EXPECT_THROW(fault::FaultScope inner(plan), dlbench::Error);
}

TEST(FaultScope, InjectionPointsAreNoOpsWithoutScope) {
  std::vector<float> grad(8, 1.0f);
  std::vector<std::span<float>> grads{std::span<float>(grad)};
  EXPECT_FALSE(fault::maybe_corrupt_gradients(0, grads));
  EXPECT_FALSE(fault::maybe_drop_sample(0));
  std::string bytes = "abcdef";
  EXPECT_EQ(fault::maybe_corrupt_stream(bytes), 0);
  EXPECT_EQ(bytes, "abcdef");
  for (float v : grad) EXPECT_EQ(v, 1.0f);
}

TEST(FaultScope, GradientCorruptionIsDeterministicAndBounded) {
  fault::FaultPlan plan;
  plan.grad_fault = fault::GradFault::kNaN;
  plan.grad_step = 4;
  plan.grad_max_fires = 1;
  plan.grad_fraction = 0.5;

  auto run = [&plan] {
    fault::FaultScope scope(plan);
    std::vector<float> grad(100, 1.0f);
    std::vector<std::span<float>> grads{std::span<float>(grad)};
    EXPECT_FALSE(fault::maybe_corrupt_gradients(3, grads));  // wrong step
    EXPECT_TRUE(fault::maybe_corrupt_gradients(4, grads));
    EXPECT_FALSE(fault::maybe_corrupt_gradients(4, grads));  // fires spent
    std::vector<bool> hit;
    for (float v : grad) hit.push_back(std::isnan(v));
    EXPECT_EQ(scope.stats().gradient_fires, 1);
    return hit;
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);  // same seed, same corrupted entries
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
}

TEST(GuardOptions, MalformedKnobThrowsInsteadOfDisablingRecovery) {
  // strtoll would read "two" as 0 and silently turn recovery off.
  setenv("DLB_GUARD_MAX_RECOVERIES", "two", 1);
  EXPECT_THROW(frameworks::GuardOptions::from_env(), dlbench::Error);
  unsetenv("DLB_GUARD_MAX_RECOVERIES");
  EXPECT_EQ(frameworks::GuardOptions::from_env().max_recoveries, 2);
}

// ---- guarded training: recovery and exhaustion ----

TEST(GuardedTraining, NanInjectionRecoversAndConverges) {
  Cell cell;
  TrainOptions opts = guarded_options(50);

  fault::FaultPlan plan;
  plan.grad_fault = fault::GradFault::kNaN;
  plan.grad_step = 20;
  plan.grad_max_fires = 1;  // transient fault
  fault::FaultScope scope(plan);

  TrainResult res = cell.train(opts, Device::gpu());
  EXPECT_EQ(scope.stats().gradient_fires, 1);
  EXPECT_EQ(res.divergence_step, 20);
  EXPECT_EQ(res.recovery_attempts, 1);
  EXPECT_FALSE(res.diverged);
  EXPECT_TRUE(res.converged) << "final loss " << res.final_loss;
  EXPECT_EQ(res.steps, 50);
}

TEST(GuardedTraining, PersistentFaultExhaustsRetriesGracefully) {
  Cell cell;
  TrainOptions opts = guarded_options(50);

  fault::FaultPlan plan;
  plan.grad_fault = fault::GradFault::kNaN;
  plan.grad_step = 20;
  plan.grad_max_fires = 1000;  // fault re-fires on every retry

  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    fault::FaultScope scope(plan);
    TrainResult res = cell.train(opts, Device::gpu(), path);
    EXPECT_TRUE(res.diverged);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.divergence_step, 20);
    EXPECT_EQ(res.recovery_attempts, 2);  // both retries consumed
    EXPECT_EQ(res.steps, 20);             // aborted at the faulty step
  }
}

TEST(GuardedTraining, InfInjectionIsAlsoDetected) {
  Cell cell;
  TrainOptions opts = guarded_options(30);
  opts.guard.max_recoveries = 0;  // detection only

  fault::FaultPlan plan;
  plan.grad_fault = fault::GradFault::kInf;
  plan.grad_step = 5;

  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    fault::FaultScope scope(plan);
    TrainResult res = cell.train(opts, Device::gpu(), path);
    EXPECT_TRUE(res.diverged);
    EXPECT_EQ(res.divergence_step, 5);
    EXPECT_EQ(res.recovery_attempts, 0);
  }
}

TEST(GuardedTraining, GradNormLimitCatchesExplosionBeforeNan) {
  Cell cell;
  cell.config.base_lr = 50.0;  // guaranteed blow-up
  TrainOptions opts = guarded_options(40);
  opts.guard.grad_norm_limit = 1e4;
  opts.guard.max_recoveries = 0;

  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    TrainResult res = cell.train(opts, Device::gpu(), path);
    EXPECT_TRUE(res.diverged);
    EXPECT_GE(res.divergence_step, 0);
    EXPECT_LT(res.steps, 40);
  }
}

TEST(GuardedTraining, UnfaultedRunMatchesGuardDisabledRun) {
  // The guard must be numerically invisible when nothing diverges.
  Cell cell;
  TrainOptions guarded = guarded_options(30);
  TrainOptions unguarded = guarded_options(30);
  unguarded.guard.max_recoveries = 0;

  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    TrainResult a = cell.train(guarded, Device::cpu(), path);
    TrainResult b = cell.train(unguarded, Device::cpu(), path);
    EXPECT_EQ(a.final_loss, b.final_loss);
    EXPECT_EQ(a.loss_curve, b.loss_curve);
    EXPECT_EQ(a.steps, b.steps);
  }
}

// ---- watchdog ----

TEST(Watchdog, FiresOnStalledPoolWorker) {
  Cell cell;
  TrainOptions opts = guarded_options(2000);
  opts.guard.timeout_s = 0.3;

  fault::FaultPlan plan;
  plan.stall_ms = 30000;  // would hang ~30 s without the watchdog
  plan.stall_scope = fault::StallScope::kPoolWorker;
  fault::FaultScope scope(plan);

  const auto t0 = std::chrono::steady_clock::now();
  TrainResult res = cell.train(opts, Device::gpu());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_EQ(scope.stats().stalls, 1);
  EXPECT_TRUE(res.timed_out);
  EXPECT_FALSE(res.converged);
  EXPECT_LT(res.steps, 2000);
  EXPECT_LT(elapsed, 10.0) << "stall was not cut short";
  EXPECT_FALSE(fault::abort_requested()) << "abort flag must be cleared";
}

TEST(Watchdog, FiresOnStalledTrainingStep) {
  Cell cell;
  TrainOptions opts = guarded_options(2000);
  opts.guard.timeout_s = 0.2;

  fault::FaultPlan plan;
  plan.stall_ms = 30000;
  plan.stall_step = 3;
  plan.stall_scope = fault::StallScope::kTrainStep;

  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    fault::FaultScope scope(plan);
    const auto t0 = std::chrono::steady_clock::now();
    TrainResult res = cell.train(opts, Device::gpu(), path);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_TRUE(res.timed_out);
    EXPECT_LT(elapsed, 10.0);
  }
}

TEST(Watchdog, DisarmedWatchdogNeverFires) {
  Cell cell;
  TrainOptions opts = guarded_options(20);
  ASSERT_EQ(opts.guard.timeout_s, 0.0);
  TrainResult res = cell.train(opts, Device::gpu());
  EXPECT_FALSE(res.timed_out);
  EXPECT_EQ(res.steps, 20);
}

// ---- dataset faults ----

TEST(DatasetFaults, LoaderDropsSamplesDeterministically) {
  data::MnistOptions d;
  d.train_samples = 200;
  d.test_samples = 10;
  data::DatasetPair mnist = data::synthetic_mnist(d);

  auto count_samples = [&mnist] {
    util::Rng rng(9);
    data::DataLoader loader(mnist.train, 32, /*shuffle=*/false, rng);
    loader.start_epoch();
    data::Batch batch;
    std::int64_t total = 0;
    while (loader.next(batch)) total += batch.size();
    return total;
  };

  fault::FaultPlan plan;
  plan.sample_drop_rate = 0.3;
  std::int64_t dropped_total = 0;
  {
    fault::FaultScope scope(plan);
    dropped_total = count_samples();
    EXPECT_EQ(scope.stats().samples_dropped, 200 - dropped_total);
  }
  std::int64_t dropped_again = 0;
  {
    fault::FaultScope scope(plan);
    dropped_again = count_samples();
  }
  EXPECT_EQ(count_samples(), 200);  // no scope: nothing dropped
  EXPECT_LT(dropped_total, 200);
  EXPECT_GT(dropped_total, 80);
  EXPECT_EQ(dropped_total, dropped_again);  // seeded, replayable
}

TEST(DatasetFaults, TotalStarvationEndsTrainingGracefully) {
  Cell cell;
  TrainOptions opts = guarded_options(20);
  fault::FaultPlan plan;
  plan.sample_drop_rate = 1.0;  // every sample dropped
  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    fault::FaultScope scope(plan);
    TrainResult res = cell.train(opts, Device::gpu(), path);
    EXPECT_TRUE(res.diverged);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.steps, 0);
  }
}

// ---- checkpoint faults ----

TEST(CheckpointFaults, InjectedByteFlipsAreCaughtByChecksum) {
  nn::NetworkSpec spec = frameworks::default_network_spec(
      FrameworkKind::kCaffe, DatasetId::kMnist);
  util::Rng rng(11);
  nn::Sequential model = nn::build_model(spec, rng);

  fault::FaultPlan plan;
  plan.ckpt_flip_bytes = 4;
  fault::FaultScope scope(plan);

  std::stringstream buffer;
  nn::save_checkpoint(model, buffer);
  EXPECT_EQ(scope.stats().checkpoint_bytes_flipped, 4);

  util::Rng rng2(12);
  nn::Sequential other = nn::build_model(spec, rng2);
  try {
    nn::load_checkpoint(other, buffer);
    FAIL() << "corrupt checkpoint must not load";
  } catch (const dlbench::Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

// ---- harness-level isolation (the acceptance scenario) ----

TEST(HarnessFaults, InjectedCellIsIsolatedFromTheRestOfTheSweep) {
  core::Harness harness(core::HarnessOptions::test_profile());

  // Baseline sweep, no faults.
  core::RunRecord clean_a = harness.run_default(
      FrameworkKind::kCaffe, DatasetId::kMnist, Device::gpu());
  core::RunRecord clean_b = harness.run_default(
      FrameworkKind::kCaffe, DatasetId::kCifar10, Device::gpu());
  ASSERT_EQ(clean_a.train.divergence_step, -1);

  // Same sweep with a single transient NaN fault armed: the first cell
  // to reach the step absorbs it, recovers, and later cells replay the
  // clean numbers exactly.
  fault::FaultPlan plan;
  plan.grad_fault = fault::GradFault::kNaN;
  plan.grad_step = 5;
  plan.grad_max_fires = 1;
  fault::FaultScope scope(plan);

  core::RunRecord faulted_a = harness.run_default(
      FrameworkKind::kCaffe, DatasetId::kMnist, Device::gpu());
  core::RunRecord faulted_b = harness.run_default(
      FrameworkKind::kCaffe, DatasetId::kCifar10, Device::gpu());

  EXPECT_FALSE(faulted_a.failed());
  EXPECT_EQ(faulted_a.train.divergence_step, 5);
  EXPECT_EQ(faulted_a.train.recovery_attempts, 1);
  EXPECT_FALSE(faulted_a.train.diverged);
  EXPECT_GT(faulted_a.train.steps, 5);

  EXPECT_EQ(faulted_b.train.divergence_step, -1);
  EXPECT_EQ(faulted_b.train.final_loss, clean_b.train.final_loss);
  EXPECT_EQ(faulted_b.eval.accuracy_pct, clean_b.eval.accuracy_pct);
  EXPECT_EQ(faulted_b.train.steps, clean_b.train.steps);
}

// ---- reporting ----

TEST(Reporting, StatusStringsSurfaceDivergenceAndRecovery) {
  core::RunRecord r;
  r.framework = "Caffe";
  r.train.converged = false;
  r.train.diverged = true;
  r.train.divergence_step = 120;
  r.train.recovery_attempts = 2;
  EXPECT_EQ(core::run_status(r), "NO (diverged@120, 2 recoveries)");
  EXPECT_NE(core::summarize(r).find("diverged at step 120"),
            std::string::npos);

  r.train.diverged = false;
  r.train.converged = true;
  EXPECT_EQ(core::run_status(r), "yes (recovered x2)");
  EXPECT_NE(core::summarize(r).find("RECOVERED"), std::string::npos);

  core::RunRecord t;
  t.train.timed_out = true;
  EXPECT_EQ(core::run_status(t), "NO (timed out)");

  core::RunRecord e;
  e.error = "disk on fire";
  EXPECT_EQ(core::run_status(e), "ERROR");
  EXPECT_NE(core::summarize(e).find("disk on fire"), std::string::npos);
}

}  // namespace
}  // namespace dlbench
