// Execution-plan compiler tests (DESIGN.md §15): lifetime packing,
// measure/replay arenas, StepPlanner lifecycle + spill fallback,
// plan-vs-heap bitwise training parity, zero-allocation steady-state
// steps (train and serve), frozen-graph conv+relu fusion and fc weight
// panels, and the DataLoader batch-buffer reuse that keeps the data
// phase off the heap.

#include "nn/plan.hpp"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "frameworks/emulations.hpp"
#include "frameworks/predictor.hpp"
#include "frameworks/registry.hpp"
#include "nn/frozen.hpp"
#include "serve/server.hpp"
#include "tensor/arena.hpp"
#include "util/rng.hpp"

namespace {

namespace arena = dlbench::tensor::arena;
using dlbench::data::DataLoader;
using dlbench::frameworks::DatasetId;
using dlbench::frameworks::default_network_spec;
using dlbench::frameworks::default_training_config;
using dlbench::frameworks::FrameworkKind;
using dlbench::frameworks::kAllFrameworks;
using dlbench::frameworks::make_framework;
using dlbench::frameworks::TrainOptions;
using dlbench::frameworks::TrainResult;
using dlbench::nn::PlanOptions;
using dlbench::nn::StepPlanner;
using dlbench::runtime::Device;
using dlbench::tensor::Tensor;
using dlbench::tensor::arena::Event;

// Buffer events counted since construction, read from the always-on
// totals (tensor/arena.hpp), so the checks hold with tracing compiled
// out.
class EventsSince {
 public:
  EventsSince() {
    for (std::size_t e = 0; e < kEvents; ++e)
      start_[e] = dlbench::tensor::arena::total(Event(e));
  }
  std::int64_t operator()(Event e) const {
    return dlbench::tensor::arena::total(e) -
           start_[static_cast<std::size_t>(e)];
  }

 private:
  static constexpr auto kEvents = static_cast<std::size_t>(Event::kCount);
  std::int64_t start_[kEvents] = {};
};

// ---- pack_slots: lifetime analysis + aliasing rules --------------------

TEST(PackSlots, OverlappingLifetimesGetDisjointRanges) {
  std::vector<arena::Slot> slots;
  slots.push_back({/*bytes=*/100, -1, /*def=*/0, /*death=*/4, false});
  slots.push_back({/*bytes=*/100, -1, /*def=*/1, /*death=*/5, false});
  const std::int64_t high = arena::pack_slots(slots);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_GE(slots[0].offset, 0);
  EXPECT_GE(slots[1].offset, 0);
  // Both live at once: byte ranges must not intersect (64B-aligned).
  const auto lo = std::min(slots[0].offset, slots[1].offset);
  const auto hi = std::max(slots[0].offset, slots[1].offset);
  EXPECT_GE(hi - lo, 100);
  EXPECT_EQ(lo % 64, 0);
  EXPECT_EQ(hi % 64, 0);
  EXPECT_GE(high, hi + 100);
}

TEST(PackSlots, DisjointLifetimesShareMemory) {
  std::vector<arena::Slot> slots;
  slots.push_back({100, -1, /*def=*/0, /*death=*/1, false});
  slots.push_back({100, -1, /*def=*/2, /*death=*/3, false});
  const std::int64_t high = arena::pack_slots(slots);
  // Second slot reuses the first's freed bytes: one slot of capacity.
  EXPECT_EQ(slots[0].offset, slots[1].offset);
  EXPECT_EQ(high, 128);  // 100 rounded up to the 64B grid
}

TEST(PackSlots, NeverDyingSlotIsNeverReused) {
  std::vector<arena::Slot> slots;
  slots.push_back({64, -1, 0, arena::kNeverDies, false});  // cache-like
  slots.push_back({64, -1, 1, /*death=*/2, false});
  slots.push_back({64, -1, 3, arena::kNeverDies, false});
  arena::pack_slots(slots);
  // Slot 2 may take slot 1's place but never slot 0's.
  EXPECT_NE(slots[2].offset, slots[0].offset);
  EXPECT_EQ(slots[2].offset, slots[1].offset);
}

TEST(PackSlots, PackedCapacityNeverExceedsNaiveSum) {
  std::vector<arena::Slot> slots;
  std::int64_t seq = 0;
  for (int i = 0; i < 16; ++i) {
    const std::int64_t def = seq++;
    const std::int64_t death = (i % 3 == 0) ? arena::kNeverDies : seq++;
    slots.push_back({64 * (i + 1), -1, def, death, false});
  }
  const std::int64_t high = arena::pack_slots(slots);
  std::int64_t naive = 0;
  for (const auto& s : slots) naive += (s.bytes + 63) / 64 * 64;
  EXPECT_LE(high, naive);
  EXPECT_GT(high, 0);
}

// ---- Measurement / Arena / scopes --------------------------------------

TEST(ArenaScopes, MeasureThenReplayServesRecordedSlots) {
  arena::Measurement m;
  {
    arena::MeasureScope scope(m);
    Tensor a({64});                     // zero-filled
    Tensor b = Tensor::uninit({128});
    b.raw()[0] = 42.f;
  }  // both die inside the measured step
  const std::int64_t cap = m.seal_and_pack();
  ASSERT_TRUE(m.sealed());
  ASSERT_EQ(m.slots().size(), 2u);
  EXPECT_GT(cap, 0);
  EXPECT_LE(cap, m.naive_bytes());
  EXPECT_TRUE(m.slots()[0].zeroed);
  EXPECT_FALSE(m.slots()[1].zeroed);

  arena::Arena pool(m);
  EXPECT_EQ(pool.capacity_bytes(), cap);
  const float* first_ptr = nullptr;
  {
    arena::ReplayScope replay(pool);
    Tensor a({64});
    Tensor b = Tensor::uninit({128});
    first_ptr = a.raw();
    // The zeroed slot is re-zeroed on every replay even though the
    // block is reused.
    for (float v : a.data()) EXPECT_EQ(v, 0.f);
    a.raw()[3] = 7.f;  // dirty it for the next replay to scrub
    EXPECT_EQ(replay.served(), 2);
    EXPECT_FALSE(replay.spilled());
  }
  {
    arena::ReplayScope replay(pool);
    Tensor a({64});
    EXPECT_EQ(a.raw(), first_ptr);  // same offset, same block
    EXPECT_EQ(a.raw()[3], 0.f);     // scrubbed
  }
}

TEST(ArenaScopes, TraceDivergenceSpillsToHeapAndStaysCorrect) {
  arena::Measurement m;
  {
    arena::MeasureScope scope(m);
    Tensor a = Tensor::uninit({32});
  }
  m.seal_and_pack();
  arena::Arena pool(m);
  {
    arena::ReplayScope replay(pool);
    Tensor wrong = Tensor::uninit({99});  // size mismatch at seq 0
    EXPECT_TRUE(replay.spilled());
    wrong.raw()[98] = 1.f;  // heap-backed and fully usable
    EXPECT_EQ(wrong.raw()[98], 1.f);
  }
}

// ---- StepPlanner lifecycle ----------------------------------------------

PlanOptions fast_options() {
  PlanOptions opt;
  opt.enabled = true;
  opt.warmup_steps = 2;
  return opt;
}

void planned_step(StepPlanner& planner, std::int64_t rows) {
  auto guard = planner.step(rows);
  Tensor t = Tensor::uninit({rows, 16});
  Tensor u({rows, 8});
  u.raw()[0] = 1.f;
}

TEST(StepPlannerTest, WarmupMeasureReplayLifecycle) {
  StepPlanner planner(fast_options());
  planned_step(planner, 4);
  planned_step(planner, 4);
  EXPECT_EQ(planner.plan(4), nullptr);  // still warming up
  planned_step(planner, 4);             // measured
  ASSERT_NE(planner.plan(4), nullptr);
  EXPECT_EQ(planner.measured_steps(), 1);
  EXPECT_GT(planner.plan(4)->arena_bytes, 0);
  EXPECT_EQ(planner.plan(4)->slots.size(), 2u);
  EXPECT_GT(planner.arena_bytes(), 0);
  EXPECT_EQ(planner.plan_count(), 1);
  planned_step(planner, 4);             // replayed
  EXPECT_EQ(planner.replayed_steps(), 1);
  EXPECT_EQ(planner.spilled_steps(), 0);
  // A second signature gets its own independent plan.
  for (int i = 0; i < 3; ++i) planned_step(planner, 9);
  EXPECT_EQ(planner.plan_count(), 2);
  ASSERT_NE(planner.plan(9), nullptr);
  EXPECT_NE(planner.plan(9)->arena_bytes, planner.plan(4)->arena_bytes);
}

TEST(StepPlannerTest, SpilledReplayInvalidatesAndRemeasures) {
  StepPlanner planner(fast_options());
  for (int i = 0; i < 3; ++i) planned_step(planner, 4);
  ASSERT_NE(planner.plan(4), nullptr);
  {
    auto guard = planner.step(4);
    Tensor t = Tensor::uninit({4, 16});
    Tensor u({4, 8});
    Tensor extra({4, 32});  // overruns the recorded trace
    extra.raw()[0] = 2.f;
  }
  EXPECT_EQ(planner.spilled_steps(), 1);
  EXPECT_EQ(planner.plan(4), nullptr);  // dropped
  // The signature re-warms and re-measures with the new trace.
  for (int i = 0; i < 3; ++i) {
    auto guard = planner.step(4);
    Tensor t = Tensor::uninit({4, 16});
    Tensor u({4, 8});
    Tensor extra({4, 32});
    extra.raw()[0] = 2.f;
  }
  ASSERT_NE(planner.plan(4), nullptr);
  EXPECT_EQ(planner.plan(4)->slots.size(), 3u);
}

TEST(StepPlannerTest, DisabledPlannerStaysOnHeap) {
  PlanOptions opt = fast_options();
  opt.enabled = false;
  StepPlanner planner(opt);
  for (int i = 0; i < 6; ++i) planned_step(planner, 4);
  EXPECT_EQ(planner.plan(4), nullptr);
  EXPECT_EQ(planner.measured_steps(), 0);
  EXPECT_EQ(planner.replayed_steps(), 0);
  EXPECT_EQ(planner.arena_bytes(), 0);
}

TEST(StepPlannerTest, ArenaCapDisablesOversizedPlans) {
  PlanOptions opt = fast_options();
  opt.arena_cap_bytes = 64;  // smaller than any step here
  StepPlanner planner(opt);
  for (int i = 0; i < 6; ++i) planned_step(planner, 4);
  EXPECT_EQ(planner.measured_steps(), 1);  // compiled once, then rejected
  EXPECT_EQ(planner.plan(4), nullptr);
  EXPECT_EQ(planner.replayed_steps(), 0);
  EXPECT_EQ(planner.arena_bytes(), 0);
}

// ---- plan-vs-heap bitwise training parity -------------------------------

/// Scoped environment override that restores the prior value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_value_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

class PlanParityTest : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(PlanParityTest, PlannedTrainingIsBitwiseIdenticalToHeap) {
  const FrameworkKind kind = GetParam();
  auto fw = make_framework(kind);
  dlbench::data::MnistOptions d;
  d.train_samples = 96;
  d.test_samples = 16;
  auto mnist = dlbench::data::synthetic_mnist(d);
  auto config = default_training_config(kind, DatasetId::kMnist);
  auto spec = default_network_spec(kind, DatasetId::kMnist);
  const Device dev = Device::gpu();

  TrainOptions opts;
  opts.scale.max_step_cap = 12;  // past warmup+measure: replays happen

  const auto run = [&](bool planned) {
    ScopedEnv plan_env("DLB_PLAN", planned ? "1" : "0");
    dlbench::util::Rng rng(11);
    dlbench::nn::Sequential model = fw->build_model(spec, dev, rng);
    TrainResult result = fw->train(model, mnist.train, config, dev, opts);
    std::vector<float> params;
    for (dlbench::tensor::Tensor* p : model.params())
      params.insert(params.end(), p->data().begin(), p->data().end());
    return std::make_tuple(result, params);
  };

  const auto [heap_result, heap_params] = run(false);
  const auto [plan_result, plan_params] = run(true);

  EXPECT_GT(plan_result.plan_replayed_steps, 0) << "plan never replayed";
  EXPECT_GT(plan_result.plan_arena_bytes, 0);
  EXPECT_EQ(heap_result.plan_replayed_steps, 0);

  // The arena changes where tensors live, never what is written to
  // them: identical steps, losses and final parameters, bit for bit.
  EXPECT_EQ(heap_result.steps, plan_result.steps);
  ASSERT_EQ(heap_result.loss_curve.size(), plan_result.loss_curve.size());
  for (std::size_t i = 0; i < heap_result.loss_curve.size(); ++i) {
    EXPECT_EQ(heap_result.loss_curve[i].first, plan_result.loss_curve[i].first);
    EXPECT_EQ(heap_result.loss_curve[i].second,
              plan_result.loss_curve[i].second);
  }
  ASSERT_EQ(heap_params.size(), plan_params.size());
  EXPECT_EQ(0, std::memcmp(heap_params.data(), plan_params.data(),
                           heap_params.size() * sizeof(float)));
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, PlanParityTest,
                         ::testing::ValuesIn(kAllFrameworks),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- zero-allocation steady state ---------------------------------------

TEST(PlanZeroAlloc, SteadyStateTrainStepsAllocateNoTensors) {
  auto fw = make_framework(FrameworkKind::kCaffe);
  dlbench::data::MnistOptions d;
  d.train_samples = 32;
  d.test_samples = 8;
  auto mnist = dlbench::data::synthetic_mnist(d);
  auto config = default_training_config(FrameworkKind::kCaffe,
                                        DatasetId::kMnist);
  const Device dev = Device::gpu();
  dlbench::util::Rng rng(7);
  dlbench::nn::Sequential model =
      fw->build_model(default_network_spec(FrameworkKind::kCaffe,
                                           DatasetId::kMnist),
                      dev, rng);
  auto optimizer = fw->make_optimizer(config, /*steps_per_epoch=*/1,
                                      /*total_steps=*/16);
  dlbench::util::Rng dropout_rng(8);
  dlbench::nn::Context ctx;
  ctx.device = dev;
  ctx.training = true;
  ctx.rng = &dropout_rng;

  const Tensor& x = mnist.train.images;  // one fixed full batch
  const auto& y = mnist.train.labels;
  StepPlanner planner(fast_options());
  const auto one_step = [&](std::int64_t step) {
    auto guard = planner.step(x.dim(0));
    model.zero_grads();
    dlbench::nn::LossResult loss = model.forward_loss(x, y, ctx);
    model.backward(loss, y, ctx);
    optimizer->step(model.params(), model.grads(), step, dev);
  };

  for (std::int64_t s = 0; s < 4; ++s) one_step(s);  // warmup+measure+replay
  ASSERT_NE(planner.plan(x.dim(0)), nullptr);

  // From here every step replays the plan: zero tensor heap traffic.
  const EventsSince events;
  for (std::int64_t s = 4; s < 8; ++s) one_step(s);
  EXPECT_EQ(events(Event::kHeapAllocs), 0);
  EXPECT_GT(events(Event::kArenaAllocs), 0);
  EXPECT_EQ(events(Event::kArenaSpills), 0);
  EXPECT_EQ(events(Event::kPlanReplays), 4);
  EXPECT_EQ(planner.spilled_steps(), 0);
}

TEST(PlanZeroAlloc, ServeSteadyStateReplaysWithoutSpills) {
  dlbench::frameworks::PredictorConfig config;
  config.framework = FrameworkKind::kCaffe;
  config.dataset = DatasetId::kMnist;
  const auto model = dlbench::frameworks::make_predictor(config);

  dlbench::serve::ServerOptions opts;
  opts.sample_shape = dlbench::frameworks::sample_shape(DatasetId::kMnist);
  opts.replicas = 1;
  opts.max_batch = 1;  // sync predicts: every batch has the same shape
  opts.max_batch_delay_s = 0.0;

  dlbench::util::Rng rng(21);
  const Tensor sample = Tensor::randn(opts.sample_shape, rng);

  const EventsSince events;
  std::int64_t arena_bytes = 0;
  {
    dlbench::serve::ModelServer server(model, opts);
    for (int i = 0; i < 8; ++i) {
      const auto p = server.predict(sample);
      ASSERT_EQ(p.status, dlbench::serve::RequestStatus::kOk);
    }
    arena_bytes = server.stats().plan_arena_bytes;
    server.shutdown(true);
  }
  EXPECT_GT(arena_bytes, 0);  // the per-replica memory the report shows
  EXPECT_EQ(events(Event::kArenaSpills), 0);
  EXPECT_GT(events(Event::kPlanReplays), 0);
  EXPECT_GT(events(Event::kArenaAllocs), 0);
}

// ---- frozen-graph fusion -------------------------------------------------

class FrozenFusionTest : public ::testing::TestWithParam<FrameworkKind> {};

// Fusion and the freeze-time fc weight panels must leave every output
// bit unchanged. Batch sizes straddle the 6-row panel height: below it
// (1, 5), equal (6), and two panels with an edge (8, 13).
TEST_P(FrozenFusionTest, FusedFrozenForwardMatchesEvalForwardBitwise) {
  const FrameworkKind kind = GetParam();
  auto fw = make_framework(kind);
  for (const DatasetId dataset : {DatasetId::kMnist, DatasetId::kCifar10}) {
    const auto sample = dlbench::frameworks::sample_shape(dataset);
    // The build device picks Torch's conv kernel (direct on cpu, GEMM
    // on a parallel device), so each device gets its own model.
    for (const Device& dev : {Device::cpu(), Device::parallel(2)}) {
      dlbench::util::Rng rng(5);
      dlbench::nn::Sequential model =
          fw->build_model(default_network_spec(kind, dataset), dev, rng);
      const auto frozen = dlbench::nn::FrozenModel::freeze(model);
      dlbench::nn::Context ctx;
      ctx.device = dev;
      ctx.training = false;
      for (const std::int64_t batch : {1, 5, 6, 8, 13}) {
        dlbench::util::Rng data_rng(6 + batch);
        const Tensor x = Tensor::randn(
            {batch, sample.dim(0), sample.dim(1), sample.dim(2)}, data_rng);
        const Tensor reference = model.forward(x, ctx);
        const Tensor fused = frozen.forward(x, dev);
        ASSERT_EQ(reference.numel(), fused.numel());
        EXPECT_EQ(0, std::memcmp(reference.raw(), fused.raw(),
                                 static_cast<std::size_t>(reference.numel()) *
                                     sizeof(float)))
            << to_string(dataset) << " batch " << batch
            << (dev.is_parallel() ? " parallel(2)\n" : " cpu\n")
            << frozen.describe();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, FrozenFusionTest,
                         ::testing::ValuesIn(kAllFrameworks),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(FrozenFusion, ConvReluPeepholeFiresOnConvModels) {
  // TF's MNIST net interleaves conv and ReLU (Table IV); Caffe's LeNet
  // has no conv-side ReLU to fuse, so it keeps its unfused stream.
  auto fw = make_framework(FrameworkKind::kTensorFlow);
  dlbench::util::Rng rng(5);
  dlbench::nn::Sequential model =
      fw->build_model(default_network_spec(FrameworkKind::kTensorFlow,
                                           DatasetId::kMnist),
                      Device::cpu(), rng);
  const auto frozen = dlbench::nn::FrozenModel::freeze(model);
  EXPECT_NE(frozen.describe().find("conv+relu"), std::string::npos)
      << frozen.describe();
}

TEST(FrozenFusion, CopiesShareOneSetOfFcPanels) {
  auto fw = make_framework(FrameworkKind::kTensorFlow);
  dlbench::util::Rng rng(5);
  dlbench::nn::Sequential model =
      fw->build_model(default_network_spec(FrameworkKind::kTensorFlow,
                                           DatasetId::kMnist),
                      Device::cpu(), rng);
  const auto frozen = dlbench::nn::FrozenModel::freeze(model);
  const auto replica = frozen;  // what ModelServer hands each replica
  const std::vector<const float*> panels = frozen.fc_panels();
  // Both fc weights are kept as panels only, on every SIMD tier.
  EXPECT_EQ(panels.size(), std::size_t{2});
  EXPECT_EQ(replica.fc_panels(), panels);
}

TEST(FrozenFusion, NumParamsAndDescribeFollowTheLayerList) {
  struct Case {
    FrameworkKind kind;
    DatasetId dataset;
    std::int64_t params;
    const char* describe;
  };
  const Case cases[] = {
      {FrameworkKind::kTensorFlow, DatasetId::kMnist, 3274640,
       "  (0) conv+relu5x5 1->32 [frozen]\n"
       "  (1) maxpool2x2 [frozen]\n"
       "  (2) conv+relu5x5 32->64 [frozen]\n"
       "  (3) maxpool2x2 [frozen]\n"
       "  (4) Flatten [frozen]\n"
       "  (5) fc+relu 3136->1024 [frozen]\n"
       "  (6) fc 1024->10 [frozen]\n"},
      {FrameworkKind::kCaffe, DatasetId::kCifar10, 145588,
       "  (0) conv5x5 3->32 [frozen]\n"
       "  (1) maxpool3x3 [frozen]\n"
       "  (2) ReLU [frozen]\n"
       "  (3) conv+relu5x5 32->32 [frozen]\n"
       "  (4) avgpool3x3 [frozen]\n"
       "  (5) conv+relu5x5 32->64 [frozen]\n"
       "  (6) avgpool3x3 [frozen]\n"
       "  (7) Flatten [frozen]\n"
       "  (8) fc 1024->64 [frozen]\n"
       "  (9) fc 64->10 [frozen]\n"},
  };
  for (const Case& c : cases) {
    auto fw = make_framework(c.kind);
    dlbench::util::Rng rng(5);
    dlbench::nn::Sequential model = fw->build_model(
        default_network_spec(c.kind, c.dataset), Device::cpu(), rng);
    const auto frozen = dlbench::nn::FrozenModel::freeze(model);
    EXPECT_EQ(frozen.num_params(), c.params) << to_string(c.kind);
    EXPECT_EQ(frozen.describe(), c.describe) << to_string(c.kind);
  }
}

// ---- data loader buffer reuse -------------------------------------------

TEST(DataLoaderReuse, SameShapeBatchesReuseTheBuffer) {
  dlbench::data::MnistOptions d;
  d.train_samples = 32;
  d.test_samples = 8;
  auto mnist = dlbench::data::synthetic_mnist(d);
  dlbench::util::Rng rng(3);
  DataLoader loader(mnist.train, /*batch_size=*/8, /*shuffle=*/true, rng);
  dlbench::data::Batch batch;
  ASSERT_TRUE(loader.next(batch));
  const float* buffer = batch.images.raw();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(loader.next(batch));
    EXPECT_EQ(batch.images.raw(), buffer) << "batch " << i + 1;
  }
  EXPECT_FALSE(loader.next(batch));
  loader.start_epoch();  // new epoch, same shape: still the same buffer
  ASSERT_TRUE(loader.next(batch));
  EXPECT_EQ(batch.images.raw(), buffer);
}

}  // namespace
