// FleetManager: registry lifecycle, deficit-round-robin fairness,
// SLO-class admission (gold sheds last), autoscale hysteresis,
// retire-after-drain scale-down, and decision-log determinism.

#include "serve/fleet.hpp"

#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "frameworks/predictor.hpp"
#include "nn/frozen.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using dlbench::frameworks::DatasetId;
using dlbench::frameworks::FrameworkKind;
using dlbench::frameworks::make_predictor;
using dlbench::frameworks::PredictorConfig;
using dlbench::serve::FleetDecision;
using dlbench::serve::FleetDecisionKind;
using dlbench::serve::FleetManager;
using dlbench::serve::FleetModelConfig;
using dlbench::serve::FleetOptions;
using dlbench::serve::FleetPolicy;
using dlbench::serve::FleetStats;
using dlbench::serve::FleetTenantConfig;
using dlbench::serve::MixedArrival;
using dlbench::serve::ModelServer;
using dlbench::serve::Prediction;
using dlbench::serve::RequestStatus;
using dlbench::serve::ServerOptions;
using dlbench::serve::SloClass;
using dlbench::serve::TenantStream;
using dlbench::tensor::Shape;
using dlbench::tensor::Tensor;

Shape mnist_shape() {
  return dlbench::frameworks::sample_shape(DatasetId::kMnist);
}

dlbench::nn::FrozenModel mnist_model(FrameworkKind framework) {
  PredictorConfig config;
  config.framework = framework;
  config.dataset = DatasetId::kMnist;
  return make_predictor(config);
}

std::vector<Tensor> random_samples(const Shape& shape, int count,
                                   std::uint64_t seed) {
  dlbench::util::Rng rng(seed);
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    samples.push_back(Tensor::randn(shape, rng));
  return samples;
}

/// Scheduler-test defaults: admission wide open, autoscaler off, no
/// batch lingering so drains finish fast.
FleetOptions fast_options() {
  FleetOptions options;
  options.core_budget = 4;
  options.tenant_queue_capacity = 64;
  options.global_queue_budget = 1024;
  options.autoscale = false;
  return options;
}

FleetModelConfig fast_model(const std::string& name) {
  FleetModelConfig config;
  config.name = name;
  config.sample_shape = mnist_shape();
  config.min_replicas = 1;
  config.max_replicas = 2;
  config.max_batch = 4;
  config.max_batch_delay_s = 0.0;
  return config;
}

FleetTenantConfig tenant(const std::string& name, const std::string& model,
                         SloClass slo = SloClass::kSilver, int weight = 1) {
  FleetTenantConfig config;
  config.name = name;
  config.model = model;
  config.slo = slo;
  config.weight = weight;
  return config;
}

/// Tenant names of the kDispatch entries, in decision order.
std::vector<std::string> dispatch_order(const std::vector<FleetDecision>& log) {
  std::vector<std::string> order;
  for (const auto& d : log)
    if (d.kind == FleetDecisionKind::kDispatch) order.push_back(d.tenant);
  return order;
}

// ---- registry lifecycle -------------------------------------------------

TEST(FleetRegistryTest, RegistersModelsAndTenantsAndServes) {
  FleetManager fleet(fast_options());
  fleet.register_model(fast_model("mnist_tf"),
                       mnist_model(FrameworkKind::kTensorFlow));
  fleet.register_model(fast_model("mnist_torch"),
                       mnist_model(FrameworkKind::kTorch));
  fleet.register_tenant(tenant("alpha", "mnist_tf"));
  fleet.register_tenant(tenant("beta", "mnist_torch", SloClass::kGold));
  fleet.start();

  EXPECT_EQ(fleet.tenant_index("alpha"), 0);
  EXPECT_EQ(fleet.tenant_index("beta"), 1);
  EXPECT_EQ(fleet.replica_target("mnist_tf"), 1);
  EXPECT_EQ(fleet.replica_target("mnist_torch"), 1);

  const auto samples = random_samples(mnist_shape(), 4, 11);
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(fleet.submit(i % 2 == 0 ? "alpha" : "beta",
                                   samples[static_cast<std::size_t>(i) % 4]));
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);

  const FleetStats stats = fleet.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].tenant, "alpha");
  EXPECT_EQ(stats.tenants[0].submitted, 4);
  EXPECT_EQ(stats.tenants[0].ok, 4);
  EXPECT_EQ(stats.tenants[1].tenant, "beta");
  EXPECT_EQ(stats.tenants[1].ok, 4);
  ASSERT_EQ(stats.models.size(), 2u);
  EXPECT_EQ(stats.models[0].dispatched, 4);
  EXPECT_EQ(stats.models[1].dispatched, 4);
  fleet.stop();
  EXPECT_EQ(fleet.stats().inflight, 0);
}

TEST(FleetRegistryTest, RejectsBadRegistrations) {
  FleetManager fleet(fast_options());
  fleet.register_model(fast_model("m"), mnist_model(FrameworkKind::kCaffe));
  EXPECT_THROW(fleet.register_model(fast_model("m"),
                                    mnist_model(FrameworkKind::kCaffe)),
               dlbench::Error);
  EXPECT_THROW(fleet.register_tenant(tenant("t", "no_such_model")),
               dlbench::Error);
  fleet.register_tenant(tenant("t", "m"));
  EXPECT_THROW(fleet.register_tenant(tenant("t", "m")), dlbench::Error);
  EXPECT_THROW(fleet.submit("t", Tensor::zeros(mnist_shape())),
               dlbench::Error);  // before start()
  fleet.start();
  EXPECT_THROW(fleet.register_model(fast_model("late"),
                                    mnist_model(FrameworkKind::kCaffe)),
               dlbench::Error);
  EXPECT_THROW(fleet.register_tenant(tenant("late", "m")), dlbench::Error);
  EXPECT_THROW(fleet.tenant_index("nobody"), dlbench::Error);
  EXPECT_THROW(fleet.replica_target("nothing"), dlbench::Error);
  fleet.stop();
}

TEST(FleetRegistryTest, MinReplicasMustFitCoreBudget) {
  FleetOptions options = fast_options();
  options.core_budget = 1;
  FleetManager fleet(options);
  auto big = fast_model("big");
  big.min_replicas = 2;
  big.max_replicas = 2;
  fleet.register_model(std::move(big), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("t", "big"));
  EXPECT_THROW(fleet.start(), dlbench::Error);
}

// A wrong-shaped request is refused on the caller's thread, before it
// is counted; the inner server's check would otherwise throw on the
// dispatcher thread and end the process.
TEST(FleetAdmissionTest, WrongShapedRequestThrowsOnTheCallersThread) {
  FleetManager fleet(fast_options());
  fleet.register_model(fast_model("m"), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("t", "m"));
  fleet.start();
  EXPECT_THROW(fleet.submit("t", Tensor::zeros(Shape({3, 32, 32}))),
               dlbench::Error);
  EXPECT_EQ(fleet.submit("t", Tensor::zeros(mnist_shape())).get().status,
            RequestStatus::kOk);
  EXPECT_EQ(fleet.stats().tenants[0].submitted, 1);
  fleet.stop();
}

// ---- weighted-fair scheduling -------------------------------------------

TEST(FleetSchedulerTest, DeficitRoundRobinHonorsExactWeightShares) {
  FleetOptions options = fast_options();
  options.drr_quantum = 1;
  FleetManager fleet(options);
  fleet.register_model(fast_model("m"), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("heavy", "m", SloClass::kSilver, /*weight=*/2));
  fleet.register_tenant(tenant("light", "m", SloClass::kSilver, /*weight=*/1));
  fleet.start(/*paused=*/true);

  const auto samples = random_samples(mnist_shape(), 4, 5);
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 18; ++i) {
    futures.push_back(fleet.submit("heavy", samples[0]));
    futures.push_back(fleet.submit("light", samples[1]));
  }
  fleet.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);

  // Both tenants stayed backlogged through the first 18 dispatches, so
  // DRR with quantum 1 and weights 2:1 must produce the exact repeating
  // pattern heavy, heavy, light — determinism makes this a strict
  // equality, not a ratio tolerance.
  const auto order = dispatch_order(fleet.decision_log());
  ASSERT_EQ(order.size(), 36u);
  for (std::size_t i = 0; i < 18; ++i) {
    const std::string expected = i % 3 == 2 ? "light" : "heavy";
    EXPECT_EQ(order[i], expected) << "dispatch " << i;
  }
  fleet.stop();
}

TEST(FleetSchedulerTest, FifoPolicyDispatchesInArrivalOrder) {
  FleetOptions options = fast_options();
  options.policy = FleetPolicy::kFifo;
  FleetManager fleet(options);
  fleet.register_model(fast_model("m"), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("a", "m", SloClass::kSilver, /*weight=*/8));
  fleet.register_tenant(tenant("b", "m"));
  fleet.start(/*paused=*/true);

  const auto samples = random_samples(mnist_shape(), 2, 6);
  std::vector<std::string> arrival_order;
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 12; ++i) {
    // Lopsided burst: FIFO must ignore weights entirely.
    const std::string who = i < 8 ? "a" : "b";
    arrival_order.push_back(who);
    futures.push_back(fleet.submit(who, samples[static_cast<std::size_t>(i % 2)]));
  }
  fleet.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  EXPECT_EQ(dispatch_order(fleet.decision_log()), arrival_order);
  fleet.stop();
}

// ---- SLO admission ------------------------------------------------------

TEST(FleetAdmissionTest, GoldShedsLastBronzeFirst) {
  FleetOptions options = fast_options();
  options.global_queue_budget = 16;  // bronze sheds at 8, silver 12, gold 16
  options.bronze_watermark = 0.5;
  options.silver_watermark = 0.75;
  options.gold_watermark = 1.0;
  FleetManager fleet(options);
  fleet.register_model(fast_model("m"), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("bronze", "m", SloClass::kBronze));
  fleet.register_tenant(tenant("silver", "m", SloClass::kSilver));
  fleet.register_tenant(tenant("gold", "m", SloClass::kGold));
  fleet.start(/*paused=*/true);  // nothing drains: backlog only grows

  const auto sample = Tensor::zeros(mnist_shape());
  std::vector<std::future<Prediction>> admitted;
  // An admitted future is pending (it resolves once the drain runs); a
  // shed future resolves immediately — readiness distinguishes them
  // without ever blocking on a paused fleet.
  auto submit_admitted = [&](const std::string& who) {
    admitted.push_back(fleet.submit(who, sample));
    EXPECT_EQ(admitted.back().wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << who << " should have been admitted, not resolved";
  };
  auto submit_shed = [&](const std::string& who) {
    auto future = fleet.submit(who, sample);
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << who << " should have been shed immediately";
    EXPECT_EQ(future.get().status, RequestStatus::kShed) << who;
  };

  for (int i = 0; i < 8; ++i) submit_admitted("bronze");
  submit_shed("bronze");  // backlog 8 >= bronze watermark
  for (int i = 0; i < 4; ++i) submit_admitted("silver");
  submit_shed("bronze");  // still shed
  submit_shed("silver");  // backlog 12 >= silver watermark
  for (int i = 0; i < 4; ++i) submit_admitted("gold");
  submit_shed("gold");  // backlog 16 = the full budget: gold sheds last

  const FleetStats mid = fleet.stats();
  EXPECT_EQ(mid.queued, 16);
  EXPECT_EQ(mid.tenants[0].shed, 2);
  EXPECT_EQ(mid.tenants[1].shed, 1);
  EXPECT_EQ(mid.tenants[2].shed, 1);
  EXPECT_EQ(mid.tenants[0].admitted, 8);
  EXPECT_EQ(mid.tenants[1].admitted, 4);
  EXPECT_EQ(mid.tenants[2].admitted, 4);

  // Nothing admitted is lost: the drain serves all 16.
  fleet.drain();
  for (auto& f : admitted) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  fleet.stop();
}

TEST(FleetAdmissionTest, TenantQueueCapacityRejects) {
  FleetOptions options = fast_options();
  options.slo_admission = false;  // isolate the per-tenant bound
  options.tenant_queue_capacity = 4;
  FleetManager fleet(options);
  fleet.register_model(fast_model("m"), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("t", "m"));
  fleet.start(/*paused=*/true);

  const auto sample = Tensor::zeros(mnist_shape());
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(fleet.submit("t", sample));
  EXPECT_EQ(futures[4].get().status, RequestStatus::kRejected);
  EXPECT_EQ(futures[5].get().status, RequestStatus::kRejected);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.tenants[0].admitted, 4);
  EXPECT_EQ(stats.tenants[0].rejected, 2);
  fleet.drain();
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status,
              RequestStatus::kOk);
  fleet.stop();
}

// ---- autoscaling --------------------------------------------------------

TEST(FleetAutoscaleTest, ScalesUpUnderBacklogAndDownOnlyAfterHysteresis) {
  FleetOptions options = fast_options();
  options.autoscale = true;
  options.autoscale_every = 1;  // evaluate after every dispatch
  options.scale_up_backlog = 4.0;
  options.scale_down_backlog = 0.9;
  options.hysteresis_evals = 3;
  options.core_budget = 2;
  FleetManager fleet(options);
  auto model = fast_model("m");
  model.min_replicas = 1;
  model.max_replicas = 2;
  fleet.register_model(std::move(model), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("t", "m"));
  fleet.start(/*paused=*/true);

  // Wave 1: 12 preloaded requests. Backlog per replica at the first
  // evaluation is 11/1, far over the up threshold: one replica is
  // added, then the model rides at its max. The final two evaluations
  // (backlog 1 then 0 against 2 replicas) are scale-down candidates —
  // two consecutive lows, one short of the hysteresis requirement.
  const auto sample = Tensor::zeros(mnist_shape());
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 12; ++i) futures.push_back(fleet.submit("t", sample));
  fleet.drain();
  FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.models[0].scale_ups, 1);
  EXPECT_EQ(stats.models[0].replicas_peak, 2);
  EXPECT_EQ(stats.models[0].scale_downs, 0)
      << "two low evaluations must not beat hysteresis_evals=3";
  EXPECT_EQ(stats.models[0].replicas, 2);
  EXPECT_EQ(fleet.replica_target("m"), 2);

  // Wave 2: a single request makes the third consecutive low
  // evaluation — now the replica retires.
  fleet.pause();
  futures.push_back(fleet.submit("t", sample));
  fleet.drain();
  stats = fleet.stats();
  EXPECT_EQ(stats.models[0].scale_downs, 1);
  EXPECT_EQ(stats.models[0].replicas, 1);
  EXPECT_EQ(fleet.replica_target("m"), 1);

  // The timeline records both moves, up before down.
  ASSERT_EQ(stats.timeline.size(), 2u);
  EXPECT_EQ(stats.timeline[0].from, 1);
  EXPECT_EQ(stats.timeline[0].to, 2);
  EXPECT_EQ(stats.timeline[1].from, 2);
  EXPECT_EQ(stats.timeline[1].to, 1);
  EXPECT_LT(stats.timeline[0].ordinal, stats.timeline[1].ordinal);

  // Scaling never dropped anything.
  for (auto& fut : futures) EXPECT_EQ(fut.get().status, RequestStatus::kOk);
  fleet.stop();
}

// ---- trace counters -----------------------------------------------------

// Each counted fleet event moves its stats field and its "fleet.*"
// trace counter at one site, so the two agree on every kind: sheds,
// queue rejections, dispatches and both scale directions.
TEST(FleetTrace, FleetCountersEqualFleetStats) {
  FleetOptions options = fast_options();
  options.global_queue_budget = 16;  // bronze sheds at a backlog of 8
  options.bronze_watermark = 0.5;
  options.tenant_queue_capacity = 6;
  options.autoscale = true;
  options.autoscale_every = 1;
  options.scale_up_backlog = 4.0;
  options.scale_down_backlog = 0.9;
  options.hysteresis_evals = 1;
  options.core_budget = 2;
  dlbench::runtime::trace::TraceScope trace;
  FleetStats stats;
  {
    FleetManager fleet(options);
    auto model = fast_model("m");
    model.min_replicas = 1;
    model.max_replicas = 2;
    fleet.register_model(std::move(model), mnist_model(FrameworkKind::kCaffe));
    fleet.register_tenant(tenant("bronze", "m", SloClass::kBronze));
    fleet.register_tenant(tenant("gold", "m", SloClass::kGold));
    fleet.start(/*paused=*/true);
    const auto sample = Tensor::zeros(mnist_shape());
    std::vector<std::future<Prediction>> futures;
    // 6 bronze admitted, 2 rejected (queue full), 4 gold admitted, then
    // 1 bronze shed (backlog 10 >= 8).
    for (int i = 0; i < 8; ++i) futures.push_back(fleet.submit("bronze", sample));
    for (int i = 0; i < 4; ++i) futures.push_back(fleet.submit("gold", sample));
    futures.push_back(fleet.submit("bronze", sample));
    fleet.drain();
    for (auto& f : futures) f.wait();
    stats = fleet.stats();
    fleet.stop();
  }
  std::map<std::string, std::int64_t> expected = {
      {"fleet.submitted", 0}, {"fleet.shed", 0},      {"fleet.rejected", 0},
      {"fleet.dispatches", 0}, {"fleet.scale_ups", 0}, {"fleet.scale_downs", 0}};
  std::int64_t model_dispatches = 0;
  for (const auto& t : stats.tenants) {
    expected["fleet.submitted"] += t.submitted;
    expected["fleet.shed"] += t.shed;
    expected["fleet.rejected"] += t.rejected;
    expected["fleet.dispatches"] += t.dispatched;
  }
  for (const auto& m : stats.models) {
    model_dispatches += m.dispatched;
    expected["fleet.scale_ups"] += m.scale_ups;
    expected["fleet.scale_downs"] += m.scale_downs;
  }
  EXPECT_EQ(model_dispatches, expected["fleet.dispatches"]);
  for (const auto& [name, value] : expected)
    EXPECT_GT(value, 0) << name << " never happened: the test lost coverage";

  // fleet.queued and fleet.replicas are gauges, not event counts.
  std::map<std::string, std::int64_t> traced;
  for (const auto& c : trace.report().counters)
    if (c.name.rfind("fleet.", 0) == 0 && c.name != "fleet.queued" &&
        c.name != "fleet.replicas")
      traced[c.name] = c.value;
  for (const auto& [name, value] : traced)
    EXPECT_EQ(expected.count(name), 1u) << "unmapped counter " << name;
  for (const auto& [name, value] : expected)
    EXPECT_EQ(traced[name], value) << name;
}

TEST(FleetAutoscaleTest, RespectsGlobalCoreBudgetAcrossModels) {
  FleetOptions options = fast_options();
  options.autoscale = true;
  options.autoscale_every = 1;
  options.scale_up_backlog = 2.0;
  options.scale_down_backlog = -1.0;  // never a scale-down candidate
  options.core_budget = 3;            // 2 models, max 2 each: one must lose
  FleetManager fleet(options);
  auto first = fast_model("first");
  first.max_replicas = 2;
  auto second = fast_model("second");
  second.max_replicas = 2;
  fleet.register_model(std::move(first), mnist_model(FrameworkKind::kCaffe));
  fleet.register_model(std::move(second), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("ta", "first"));
  fleet.register_tenant(tenant("tb", "second"));
  fleet.start(/*paused=*/true);

  const auto sample = Tensor::zeros(mnist_shape());
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(fleet.submit("ta", sample));
    futures.push_back(fleet.submit("tb", sample));
  }
  fleet.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);
  const FleetStats stats = fleet.stats();
  const int total = stats.models[0].replicas + stats.models[1].replicas;
  EXPECT_LE(total, 3);
  EXPECT_EQ(total, 3) << "budget headroom should have been used";
  // Registration order breaks the tie deterministically: "first" gets
  // the spare replica.
  EXPECT_EQ(stats.models[0].replicas, 2);
  EXPECT_EQ(stats.models[1].replicas, 1);
  fleet.stop();
}

// ---- retire-after-drain scale-down --------------------------------------

TEST(FleetScaleDownTest, ResizeReplicasNeverDropsInFlightWork) {
  PredictorConfig config;
  config.framework = FrameworkKind::kCaffe;
  config.dataset = DatasetId::kMnist;
  const auto model = make_predictor(config);

  ServerOptions opts;
  opts.sample_shape = mnist_shape();
  opts.replicas = 4;
  opts.max_batch = 4;
  opts.max_batch_delay_s = 0.0;
  opts.queue_capacity = 2048;
  opts.reject_watermark = 2048;
  ModelServer server(model, opts);

  const auto samples = random_samples(mnist_shape(), 4, 21);
  std::vector<std::future<Prediction>> futures;
  for (int i = 0; i < 120; ++i)
    futures.push_back(server.submit(samples[static_cast<std::size_t>(i % 4)]));
  // Shrink hard mid-flight, twice, then grow again — every in-flight
  // batch must finish and scatter before its replica exits.
  server.resize_replicas(2);
  EXPECT_EQ(server.replica_target(), 2);
  server.resize_replicas(1);
  EXPECT_EQ(server.replica_target(), 1);
  for (int i = 0; i < 60; ++i)
    futures.push_back(server.submit(samples[static_cast<std::size_t>(i % 4)]));
  server.resize_replicas(3);
  EXPECT_EQ(server.replica_target(), 3);
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::kOk);

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 180);
  EXPECT_EQ(stats.crashes, 0);
  EXPECT_THROW(server.resize_replicas(0), dlbench::Error);
}

// ---- completion routing -------------------------------------------------

// A fleet request resolves when its server finishes it, not in dispatch
// order: with the first dispatch stalled on one replica, the second,
// served by the other replica, must resolve (and free its window slot)
// while the first is still held.
TEST(FleetCompletionTest, LaterRequestResolvesWhileEarlierIsStalled) {
  dlbench::runtime::fault::FaultPlan plan;
  plan.serve_stall_every = 1;
  plan.serve_stall_ms = 2000;
  plan.serve_stall_max = 1;  // only the first batch stalls
  dlbench::runtime::fault::FaultScope scope(plan);

  FleetManager fleet(fast_options());
  auto model = fast_model("m");
  model.min_replicas = 2;
  model.max_replicas = 2;
  model.max_batch = 1;
  fleet.register_model(std::move(model), mnist_model(FrameworkKind::kCaffe));
  fleet.register_tenant(tenant("t", "m"));
  fleet.start();
  const auto sample = Tensor::zeros(mnist_shape());

  auto first = fleet.submit("t", sample);
  while (scope.stats().serve_stalls == 0) std::this_thread::yield();
  // The first dispatch is now stalled on one replica.
  auto second = fleet.submit("t", sample);
  ASSERT_EQ(second.wait_for(std::chrono::milliseconds(1500)),
            std::future_status::ready)
      << "the second request waited behind the stalled first one";
  EXPECT_EQ(second.get().status, RequestStatus::kOk);
  EXPECT_EQ(first.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.tenants[0].ok, 1);
  EXPECT_EQ(stats.inflight, 1);

  EXPECT_EQ(first.get().status, RequestStatus::kOk);
  fleet.stop();
  EXPECT_EQ(fleet.stats().tenants[0].ok, 2);
}

// ---- determinism --------------------------------------------------------

/// One full drained replay: mixed trace over two models and three
/// tenants with admission pressure and the autoscaler on. Returns the
/// formatted decision log.
std::vector<std::string> replay_decision_log(FleetPolicy policy,
                                             std::uint64_t seed) {
  FleetOptions options;
  options.policy = policy;
  options.core_budget = 3;
  options.tenant_queue_capacity = 24;
  options.global_queue_budget = 48;
  options.autoscale = true;
  options.autoscale_every = 8;
  options.scale_up_backlog = 4.0;
  options.scale_down_backlog = 0.5;
  options.hysteresis_evals = 2;
  FleetManager fleet(options);
  auto mnist_tf = fast_model("mnist_tf");
  mnist_tf.max_replicas = 2;
  auto mnist_torch = fast_model("mnist_torch");
  mnist_torch.max_replicas = 2;
  fleet.register_model(std::move(mnist_tf),
                       mnist_model(FrameworkKind::kTensorFlow));
  fleet.register_model(std::move(mnist_torch),
                       mnist_model(FrameworkKind::kTorch));
  fleet.register_tenant(
      tenant("gold_tf", "mnist_tf", SloClass::kGold, /*weight=*/2));
  fleet.register_tenant(tenant("silver_torch", "mnist_torch",
                               SloClass::kSilver, /*weight=*/1));
  fleet.register_tenant(
      tenant("bronze_tf", "mnist_tf", SloClass::kBronze, /*weight=*/1));
  fleet.start(/*paused=*/true);

  const std::vector<TenantStream> streams = {
      {"gold_tf", 40.0}, {"silver_torch", 40.0}, {"bronze_tf", 120.0}};
  const auto trace =
      dlbench::serve::make_mixed_trace(streams, /*duration_s=*/1.0, seed);
  const std::vector<std::vector<Tensor>> inputs = {
      random_samples(mnist_shape(), 2, seed + 1),
      random_samples(mnist_shape(), 2, seed + 2),
      random_samples(mnist_shape(), 2, seed + 3)};
  dlbench::serve::FleetLoadOptions load;
  load.realtime = false;  // pause → preload → resume drain
  dlbench::serve::run_fleet_trace(fleet, streams, trace, inputs, load);

  std::vector<std::string> lines;
  for (const auto& d : fleet.decision_log())
    lines.push_back(dlbench::serve::format_decision(d));
  fleet.stop();
  return lines;
}

TEST(FleetDeterminismTest, SameSeedAndTraceGiveIdenticalDecisionLogs) {
  const auto first = replay_decision_log(FleetPolicy::kWeightedFair, 99);
  const auto second = replay_decision_log(FleetPolicy::kWeightedFair, 99);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    ASSERT_EQ(first[i], second[i]) << "decision " << i;
  EXPECT_GT(first.size(), 100u) << "replay should exercise real load";

  // A different seed must actually change the trace (the log is a
  // function of the trace, not a constant).
  const auto other = replay_decision_log(FleetPolicy::kWeightedFair, 100);
  EXPECT_NE(first, other);
  // And the policy is load-bearing: FIFO replays differently.
  const auto fifo = replay_decision_log(FleetPolicy::kFifo, 99);
  EXPECT_NE(first, fifo);
}

}  // namespace
