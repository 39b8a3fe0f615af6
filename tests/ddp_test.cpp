// Deterministic data-parallel training: the K-worker trainer must
// reproduce the 1-worker run bit for bit (params + loss curve) at any
// worker count, for every framework emulation, with or without an
// injected straggler — plus unit coverage of the shard-ordered comm
// collectives it is built on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "data/synthetic.hpp"
#include "frameworks/data_parallel.hpp"
#include "frameworks/registry.hpp"
#include "runtime/comm.hpp"
#include "runtime/fault.hpp"

namespace dlbench::frameworks {
namespace {

using runtime::Device;

// ---- comm collectives ----

TEST(Comm, WeightedSumWalksPartsInOrder) {
  const std::vector<float> a = {1.f, 2.f, 3.f};
  const std::vector<float> b = {10.f, 20.f, 30.f};
  const float* parts[] = {a.data(), b.data()};
  const double weights[] = {0.25, 0.75};
  std::vector<float> dst(3, -1.f);
  runtime::comm::reduce_weighted_sum(parts, weights, dst.data(), 3,
                                     Device::cpu());
  EXPECT_FLOAT_EQ(dst[0], 0.25f * 1.f + 0.75f * 10.f);
  EXPECT_FLOAT_EQ(dst[1], 0.25f * 2.f + 0.75f * 20.f);
  EXPECT_FLOAT_EQ(dst[2], 0.25f * 3.f + 0.75f * 30.f);
}

TEST(Comm, ReduceIsBitwiseInvariantToDeviceWorkers) {
  // The same reduction on a serial device and on pools of every width
  // must agree bit for bit: parallelism is over elements, and each
  // element's sum order is fixed by the part order alone.
  const std::size_t n = 10000;  // above the grain so pools really split
  util::Rng rng(99);
  std::vector<std::vector<float>> parts(5, std::vector<float>(n));
  std::vector<const float*> ptrs;
  std::vector<double> weights;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (auto& v : parts[s])
      v = static_cast<float>(rng.normal()) * static_cast<float>(s + 1);
    ptrs.push_back(parts[s].data());
    weights.push_back(1.0 / static_cast<double>(s + 1));
  }
  std::vector<float> serial(n), pooled(n);
  runtime::comm::reduce_weighted_sum(ptrs, weights, serial.data(), n,
                                     Device::cpu());
  for (const std::size_t workers : {2u, 3u, 7u}) {
    runtime::comm::reduce_weighted_sum(ptrs, weights, pooled.data(), n,
                                       Device::parallel(workers));
    EXPECT_EQ(0, std::memcmp(serial.data(), pooled.data(),
                             n * sizeof(float)))
        << "workers=" << workers;
  }
}

TEST(Comm, EmptyPartListZeroesDestination) {
  std::vector<float> dst(4, 7.f);
  runtime::comm::reduce_weighted_sum({}, {}, dst.data(), 4, Device::cpu());
  for (const float v : dst) EXPECT_EQ(v, 0.f);
}

TEST(Comm, BroadcastCopiesToEveryDestination) {
  const std::size_t n = 5000;
  std::vector<float> src(n);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<float>(i);
  std::vector<float> d1(n, -1.f), d2(n, -2.f);
  float* dsts[] = {d1.data(), d2.data()};
  runtime::comm::broadcast(src.data(), dsts, n, Device::parallel(3));
  EXPECT_EQ(0, std::memcmp(src.data(), d1.data(), n * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(src.data(), d2.data(), n * sizeof(float)));
}

// ---- the K-invariance contract ----

struct DpRun {
  std::vector<tensor::Tensor> params;
  TrainResult result;
};

DpRun run_dp(FrameworkKind kind, int workers, int shards,
             std::int64_t step_cap) {
  auto fw = make_framework(kind);
  data::MnistOptions d;
  d.train_samples = 200;
  d.test_samples = 50;
  data::DatasetPair mnist = data::synthetic_mnist(d);

  TrainingConfig config = default_training_config(kind, DatasetId::kMnist);
  nn::NetworkSpec spec = default_network_spec(kind, DatasetId::kMnist);
  util::Rng rng(7);  // same seed -> same initial weights for every K
  nn::Sequential model = fw->build_model(spec, Device::gpu(), rng);

  DataParallelOptions opts;
  opts.workers = workers;
  opts.shards = shards;
  opts.train.scale.max_step_cap = step_cap;
  opts.train.loss_record_interval = 1;
  DataParallelTrainer trainer(*fw, opts);

  DpRun out;
  out.result = trainer.train(model, mnist.train, config, Device::gpu());
  for (const tensor::Tensor* p : model.params()) out.params.push_back(p->clone());
  return out;
}

void expect_bitwise_equal(const DpRun& a, const DpRun& b,
                          const std::string& label) {
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t p = 0; p < a.params.size(); ++p) {
    ASSERT_EQ(a.params[p].numel(), b.params[p].numel());
    EXPECT_EQ(0, std::memcmp(a.params[p].raw(), b.params[p].raw(),
                             static_cast<std::size_t>(a.params[p].numel()) *
                                 sizeof(float)))
        << label << ": param " << p << " differs";
  }
  ASSERT_EQ(a.result.loss_curve.size(), b.result.loss_curve.size()) << label;
  for (std::size_t i = 0; i < a.result.loss_curve.size(); ++i) {
    EXPECT_EQ(a.result.loss_curve[i].first, b.result.loss_curve[i].first);
    // Exact double equality: the loss is accumulated in shard order in
    // double on every path, so there is no tolerance to grant.
    EXPECT_EQ(a.result.loss_curve[i].second, b.result.loss_curve[i].second)
        << label << ": loss curve entry " << i;
  }
  EXPECT_EQ(a.result.final_loss, b.result.final_loss) << label;
  EXPECT_EQ(a.result.steps, b.result.steps) << label;
}

class DdpBitwise : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(DdpBitwise, KWorkersMatchOneWorkerBitForBit) {
  const FrameworkKind kind = GetParam();
  // Torch trains with batch 10 -> shards of 3/3/2/2: uneven shard rows
  // and the weighted reduce are exercised, not just the easy split.
  const std::int64_t cap = 12;
  const DpRun k1 = run_dp(kind, /*workers=*/1, /*shards=*/4, cap);
  EXPECT_GT(k1.result.steps, 0);
  for (const int k : {2, 4}) {
    const DpRun kk = run_dp(kind, k, /*shards=*/4, cap);
    expect_bitwise_equal(k1, kk,
                         std::string(to_string(kind)) + " K=" +
                             std::to_string(k));
  }
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, DdpBitwise,
                         ::testing::ValuesIn(kAllFrameworks),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Ddp, DefaultShardCountIsKInvariantUpToFour) {
  // Default S = max(K, 4): K <= 4 must resolve to the same S, which is
  // what makes unpinned sweeps bit-comparable.
  auto fw = make_framework(FrameworkKind::kCaffe);
  for (const int k : {1, 2, 4}) {
    DataParallelOptions opts;
    opts.workers = k;
    DataParallelTrainer trainer(*fw, opts);
    EXPECT_EQ(trainer.shards(), 4) << "K=" << k;
  }
  DataParallelOptions wide;
  wide.workers = 8;
  EXPECT_EQ(DataParallelTrainer(*fw, wide).shards(), 8);
}

TEST(Ddp, TrainsToConvergenceLikeSerialTrainer) {
  auto fw = make_framework(FrameworkKind::kCaffe);
  data::MnistOptions d;
  d.train_samples = 300;
  d.test_samples = 100;
  data::DatasetPair mnist = data::synthetic_mnist(d);
  TrainingConfig config =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kMnist);
  nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kCaffe, DatasetId::kMnist);
  util::Rng rng(3);
  nn::Sequential model = fw->build_model(spec, Device::gpu(), rng);

  DataParallelOptions opts;
  opts.workers = 2;
  opts.train.scale.max_step_cap = 50;
  DataParallelTrainer trainer(*fw, opts);
  TrainResult res = trainer.train(model, mnist.train, config, Device::gpu());
  EXPECT_GT(res.steps, 0);
  EXPECT_TRUE(res.converged) << "final loss " << res.final_loss;
  EXPECT_GT(res.phases.comm_s, 0.0);

  EvalResult eval = fw->evaluate(model, mnist.test, Device::gpu());
  EXPECT_GT(eval.accuracy_pct, 60.0);
}

// ---- straggler injection ----

TEST(Ddp, InjectedStragglerSlowsButNeverChangesBits) {
  const std::int64_t cap = 8;
  const DpRun clean = run_dp(FrameworkKind::kCaffe, 2, 4, cap);

  runtime::fault::FaultPlan plan;
  plan.dp_stall_ms = 2;
  plan.dp_stall_worker = 0;
  plan.dp_stall_every = 1;
  std::int64_t stalls = 0;
  {
    runtime::fault::FaultScope scope(plan);
    const DpRun slow = run_dp(FrameworkKind::kCaffe, 2, 4, cap);
    stalls = scope.stats().dp_stalls;
    // The straggler costs time, never bits: dynamic shard assignment
    // reroutes work, the shard-ordered reduce keeps the arithmetic.
    expect_bitwise_equal(clean, slow, "straggler");
  }
  EXPECT_EQ(stalls, cap * 2 / 2);  // worker 0 stalls once per step
}

TEST(Ddp, StragglerFiresOnCadence) {
  runtime::fault::FaultPlan plan;
  plan.dp_stall_ms = 1;
  plan.dp_stall_worker = 1;
  plan.dp_stall_every = 3;
  runtime::fault::FaultScope scope(plan);
  for (std::int64_t step = 0; step < 9; ++step)
    for (int w = 0; w < 2; ++w)
      runtime::fault::maybe_stall_dp_worker(step, w);
  // Worker 1 at steps 0, 3, 6 only.
  EXPECT_EQ(scope.stats().dp_stalls, 3);
}

// ---- guarded recovery through the DP loop ----

TEST(Ddp, RecoversFromInjectedGradientFault) {
  runtime::fault::FaultPlan plan;
  plan.grad_fault = runtime::fault::GradFault::kNaN;
  plan.grad_step = 5;
  runtime::fault::FaultScope scope(plan);

  const DpRun run = run_dp(FrameworkKind::kCaffe, 2, 4, 20);
  EXPECT_EQ(run.result.divergence_step, 5);
  EXPECT_EQ(run.result.recovery_attempts, 1);
  EXPECT_FALSE(run.result.diverged);
  EXPECT_EQ(run.result.steps, 20);
  EXPECT_EQ(scope.stats().gradient_fires, 1);
}

// ---- phase timing ----

// PhaseBreakdown is measured in every build, tracing compiled in or
// out: every phase of a short run reads above zero, comm only on the
// data-parallel run, and the disjoint phases never sum past wall time.
TEST(Ddp, PhaseBreakdownIsMeasuredInEveryBuild) {
  auto fw = make_framework(FrameworkKind::kCaffe);
  data::MnistOptions d;
  d.train_samples = 100;
  d.test_samples = 10;
  const data::DatasetPair mnist = data::synthetic_mnist(d);
  const TrainingConfig config =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kMnist);
  const nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kCaffe, DatasetId::kMnist);
  TrainOptions options;
  options.scale.max_step_cap = 4;

  const auto expect_measured = [](const TrainResult& res, bool dp) {
    const PhaseBreakdown& p = res.phases;
    EXPECT_EQ(res.steps, 4);
    EXPECT_GT(p.data_s, 0.0);
    EXPECT_GT(p.forward_s, 0.0);
    EXPECT_GT(p.backward_s, 0.0);
    EXPECT_GT(p.optimizer_s, 0.0);
    if (dp) {
      EXPECT_GT(p.comm_s, 0.0);
    } else {
      EXPECT_EQ(p.comm_s, 0.0);
    }
    EXPECT_LE(p.total(), res.train_time_s);
  };

  util::Rng rng(11);
  nn::Sequential serial = fw->build_model(spec, Device::cpu(), rng);
  {
    SCOPED_TRACE("Framework::train");
    expect_measured(
        fw->train(serial, mnist.train, config, Device::cpu(), options),
        /*dp=*/false);
  }

  DataParallelOptions dp_options;
  dp_options.workers = 2;
  dp_options.train = options;
  nn::Sequential replicated = fw->build_model(spec, Device::cpu(), rng);
  {
    SCOPED_TRACE("DataParallelTrainer::train K=2");
    expect_measured(DataParallelTrainer(*fw, dp_options)
                        .train(replicated, mnist.train, config, Device::cpu()),
                    /*dp=*/true);
  }
}

}  // namespace
}  // namespace dlbench::frameworks
