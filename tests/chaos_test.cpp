// Serving-path chaos suite: injected replica crashes, stalls, forward
// errors, response corruption and deadline expiry against the
// supervised ModelServer fleet. Every fault decision is keyed on the
// fault plan's seed and stable ordinals (DESIGN.md §13), so the suite
// asserts exact counts where the determinism contract applies and
// recovery invariants (no stranded future, bounded shutdown) elsewhere.

#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "frameworks/predictor.hpp"
#include "runtime/fault.hpp"
#include "runtime/histogram.hpp"
#include "runtime/trace.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace {

using dlbench::frameworks::DatasetId;
using dlbench::frameworks::FrameworkKind;
using dlbench::frameworks::make_predictor;
using dlbench::frameworks::PredictorConfig;
using dlbench::runtime::fault::FaultPlan;
using dlbench::runtime::fault::FaultScope;
using dlbench::runtime::trace::TraceReport;
using dlbench::runtime::trace::TraceScope;
using dlbench::serve::ModelServer;
using dlbench::serve::Prediction;
using dlbench::serve::RequestStatus;
using dlbench::serve::ServerOptions;
using dlbench::serve::ServerStats;
using dlbench::tensor::Shape;
using dlbench::tensor::Tensor;

dlbench::nn::FrozenModel mnist_model() {
  PredictorConfig config;
  config.framework = FrameworkKind::kCaffe;
  config.dataset = DatasetId::kMnist;
  return make_predictor(config);
}

std::vector<Tensor> mnist_samples(int count, std::uint64_t seed = 42) {
  dlbench::util::Rng rng(seed);
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    samples.push_back(Tensor::randn(
        dlbench::frameworks::sample_shape(DatasetId::kMnist), rng));
  return samples;
}

ServerOptions chaos_options() {
  ServerOptions opts;
  opts.sample_shape = dlbench::frameworks::sample_shape(DatasetId::kMnist);
  opts.replicas = 2;
  opts.max_batch = 4;
  opts.max_batch_delay_s = 0.001;
  opts.supervise = true;
  opts.heartbeat_s = 0.001;
  return opts;
}

/// Submits `count` requests and collects every prediction. The fixed
/// sequential id set {0..count-1} is what makes id-keyed fault
/// decisions identical run-to-run.
std::vector<Prediction> drive(ModelServer& server,
                              const std::vector<Tensor>& samples,
                              int count) {
  std::vector<std::future<Prediction>> futures;
  futures.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    futures.push_back(
        server.submit(samples[static_cast<std::size_t>(i) % samples.size()]));
  std::vector<Prediction> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

std::int64_t count_status(const std::vector<Prediction>& preds,
                          RequestStatus status) {
  std::int64_t n = 0;
  for (const auto& p : preds) n += p.status == status ? 1 : 0;
  return n;
}

// ---- crash + restart --------------------------------------------------

TEST(ChaosCrash, SupervisedFleetRestartsAndStrandsNoFuture) {
  FaultPlan plan;
  plan.serve_crash_every = 3;
  plan.serve_crash_max = 4;
  FaultScope scope(plan);

  const auto samples = mnist_samples(8);
  ServerOptions opts = chaos_options();
  ModelServer server(mnist_model(), opts);
  const auto preds = drive(server, samples, 64);

  // Every future resolves OK: dying replicas requeue their in-flight
  // batch and the supervisor restaffs the slot.
  EXPECT_EQ(count_status(preds, RequestStatus::kOk), 64);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.crashes, 4);  // cap reached exactly (determinism)
  EXPECT_EQ(scope.stats().serve_crashes, stats.crashes);
  EXPECT_GE(stats.crash_requeues, 1);
  EXPECT_GE(stats.restarts, 1);
  server.shutdown(true);
  EXPECT_EQ(server.stats().live_replicas, opts.replicas);
}

TEST(ChaosCrash, UnsupervisedFleetDiesAndFailsFastInsteadOfHanging) {
  FaultPlan plan;
  plan.serve_crash_every = 1;  // every batch, unlimited
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.supervise = false;
  ModelServer server(mnist_model(), opts);

  // Both replicas crash on their first batch. Every outstanding and
  // subsequent request must resolve kError — never hang.
  const auto preds = drive(server, samples, 16);
  EXPECT_EQ(count_status(preds, RequestStatus::kOk), 0);
  EXPECT_EQ(count_status(preds, RequestStatus::kError), 16);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.live_replicas, 0);
  EXPECT_EQ(stats.crashes, opts.replicas);
  EXPECT_EQ(stats.restarts, 0);

  // A fresh submission on the dead fleet also fails immediately.
  EXPECT_EQ(server.predict(samples[0]).status, RequestStatus::kError);
}

// Completions run with no server lock held (DESIGN.md §14). The
// all-dead drain fails every queued request from the last crashing
// replica; each completion here reads stats(), which takes the server's
// own locks, so a drain that resolved under mu_ would self-deadlock.
TEST(ChaosCrash, AllDeadDrainRunsCompletionsOutsideServerLocks) {
  FaultPlan plan;
  plan.serve_crash_every = 1;  // every batch, unlimited
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.supervise = false;
  ModelServer server(mnist_model(), opts);

  constexpr int kRequests = 16;
  std::vector<std::promise<Prediction>> results(kRequests);
  std::vector<std::future<Prediction>> futures;
  std::vector<std::int64_t> errors_seen(kRequests, 0);
  for (auto& result : results) futures.push_back(result.get_future());
  for (int i = 0; i < kRequests; ++i) {
    const auto k = static_cast<std::size_t>(i);
    server.submit(samples[k % samples.size()], {},
                  [&server, &results, &errors_seen, k](Prediction p) {
                    errors_seen[k] = server.stats().errors;
                    results[k].set_value(std::move(p));
                  });
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(futures[k].get().status, RequestStatus::kError) << i;
    // Counter-before-resolve: the completion already sees its error.
    EXPECT_GE(errors_seen[k], 1) << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors, kRequests);
  EXPECT_EQ(stats.live_replicas, 0);
}

// ---- stall watchdog ---------------------------------------------------

TEST(ChaosStall, StalledReplicaIsAbandonedAndReplaced) {
  FaultPlan plan;
  plan.serve_stall_every = 1;
  plan.serve_stall_ms = 500;
  plan.serve_stall_max = 1;
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.stall_timeout_s = 0.02;  // abandon after 20 ms of a 500 ms stall
  ModelServer server(mnist_model(), opts);
  const auto preds = drive(server, samples, 24);

  EXPECT_EQ(count_status(preds, RequestStatus::kOk), 24);
  const ServerStats stats = server.stats();
  EXPECT_EQ(scope.stats().serve_stalls, 1);
  EXPECT_GE(stats.stalls_replaced, 1);
  EXPECT_EQ(stats.live_replicas, opts.replicas);
}

// ---- deadlines --------------------------------------------------------

TEST(ChaosDeadline, QueuedRequestPastDeadlineIsShedBeforeForward) {
  // One replica, its first batch stalled 100 ms: a request with a 5 ms
  // deadline queued behind it must be shed at dequeue, never forwarded.
  FaultPlan plan;
  plan.serve_stall_every = 1;
  plan.serve_stall_ms = 100;
  plan.serve_stall_max = 1;
  FaultScope scope(plan);

  const auto samples = mnist_samples(2);
  ServerOptions opts = chaos_options();
  opts.replicas = 1;
  opts.max_batch = 1;
  ModelServer server(mnist_model(), opts);

  auto first = server.submit(samples[0]);  // rides the stalled batch
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  dlbench::serve::SubmitOptions deadline_opts;
  deadline_opts.deadline_s = 0.005;
  auto second = server.submit(samples[1], deadline_opts);

  EXPECT_EQ(first.get().status, RequestStatus::kOk);
  EXPECT_EQ(second.get().status, RequestStatus::kExpired);
  EXPECT_EQ(server.stats().expired, 1);
}

TEST(ChaosDeadline, InjectedExpiryIsExactAndReproducible) {
  const auto samples = mnist_samples(4);
  auto run = [&]() {
    FaultPlan plan;
    plan.serve_expire_rate = 0.3;
    FaultScope scope(plan);
    ModelServer server(mnist_model(), chaos_options());
    const auto preds = drive(server, samples, 100);
    const std::int64_t expired =
        count_status(preds, RequestStatus::kExpired);
    EXPECT_EQ(expired, scope.stats().serve_expirations);
    EXPECT_EQ(expired, server.stats().expired);
    EXPECT_EQ(count_status(preds, RequestStatus::kOk), 100 - expired);
    return expired;
  };
  const std::int64_t first = run();
  EXPECT_GT(first, 0);
  EXPECT_LT(first, 100);
  EXPECT_EQ(first, run());  // same seed, same id set ⇒ same decisions
}

// ---- retries ----------------------------------------------------------

TEST(ChaosRetry, MarkedRequestsRecoverWithExactlyOneRetry) {
  FaultPlan plan;
  plan.serve_error_rate = 0.3;
  plan.serve_error_attempts = 1;  // attempt 0 fails, attempt 1 succeeds
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.max_retries = 2;
  ModelServer server(mnist_model(), opts);
  const auto preds = drive(server, samples, 100);

  EXPECT_EQ(count_status(preds, RequestStatus::kOk), 100);
  std::int64_t retried = 0;
  for (const auto& p : preds) retried += p.attempts > 1 ? 1 : 0;
  const ServerStats stats = server.stats();
  EXPECT_GT(retried, 0);
  EXPECT_EQ(stats.retries, retried);
  EXPECT_EQ(stats.retries, scope.stats().serve_errors);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ChaosRetry, ExhaustionFailsWithErrorAfterConfiguredAttempts) {
  FaultPlan plan;
  plan.serve_error_rate = 1.0;
  plan.serve_error_attempts = 10;  // fails attempts 0..9
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.max_retries = 1;
  ModelServer server(mnist_model(), opts);
  const auto preds = drive(server, samples, 20);

  EXPECT_EQ(count_status(preds, RequestStatus::kError), 20);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors, 20);
  EXPECT_EQ(stats.retries, 20);  // exactly one re-dispatch each
}

TEST(ChaosRetry, UnsupervisedServerNeverRetries) {
  FaultPlan plan;
  plan.serve_error_rate = 1.0;
  plan.serve_error_attempts = 1;
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.supervise = false;
  opts.max_retries = 3;  // ignored without supervision
  ModelServer server(mnist_model(), opts);
  const auto preds = drive(server, samples, 12);

  EXPECT_EQ(count_status(preds, RequestStatus::kError), 12);
  EXPECT_EQ(server.stats().retries, 0);
}

// ---- hedging ----------------------------------------------------------

TEST(ChaosHedge, StragglersAreHedgedAndEveryRequestResolvesOnce) {
  FaultPlan plan;
  plan.serve_stall_every = 1;
  plan.serve_stall_ms = 80;
  plan.serve_stall_max = 1;
  FaultScope scope(plan);

  const auto samples = mnist_samples(8);
  ServerOptions opts = chaos_options();
  opts.hedge_delay_s = 0.005;  // hedge anything in flight > 5 ms
  ModelServer server(mnist_model(), opts);
  const auto preds = drive(server, samples, 32);

  EXPECT_EQ(count_status(preds, RequestStatus::kOk), 32);
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.hedges, 1);  // the stalled batch got hedged
  std::int64_t hedged = 0;
  for (const auto& p : preds) hedged += p.hedged ? 1 : 0;
  EXPECT_GE(hedged, 1);
}

// ---- circuit breaker --------------------------------------------------

TEST(ChaosBreaker, OpensOnFailuresShedsLowPriorityThenCloses) {
  FaultPlan plan;
  plan.serve_error_rate = 1.0;
  plan.serve_error_attempts = 10;
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.breaker_threshold = 0.5;
  opts.breaker_window = 4;
  opts.breaker_probe_s = 0.05;
  ModelServer server(mnist_model(), opts);

  // Four straight failures fill the window and trip the breaker.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(server.predict(samples[0]).status, RequestStatus::kError);
  ServerStats stats = server.stats();
  EXPECT_GE(stats.breaker_opens, 1);
  EXPECT_TRUE(stats.breaker_open);

  // Bronze-class load is shed while open; silver still flows.
  dlbench::serve::SubmitOptions low;
  low.slo = dlbench::serve::SloClass::kBronze;
  EXPECT_EQ(server.predict(samples[1], low).status, RequestStatus::kShed);
  EXPECT_EQ(server.predict(samples[1]).status, RequestStatus::kError);
  EXPECT_GE(server.stats().shed_breaker, 1);

  // After the probe window the breaker re-closes: the same low-priority
  // request is admitted again (it still fails — the fault is persistent
  // — but it is no longer shed).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_NE(server.predict(samples[1], low).status, RequestStatus::kShed);
  EXPECT_GE(server.stats().breaker_closes, 1);
}

// ---- response corruption ---------------------------------------------

TEST(ChaosCorruption, CorruptedResponsesAreClientDetectable) {
  FaultPlan plan;
  plan.serve_corrupt_rate = 1.0;
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ModelServer server(mnist_model(), chaos_options());
  const auto preds = drive(server, samples, 12);

  EXPECT_EQ(count_status(preds, RequestStatus::kOk), 12);
  for (const auto& p : preds) {
    double sum = 0.0;
    for (const float v : p.probabilities) sum += v;
    // A doubled softmax row sums to ~2 — the integrity check clients
    // (and the loadgen) use to detect delivered corruption.
    EXPECT_GT(sum, 1.5);
  }
  EXPECT_EQ(server.stats().corrupted, 12);
  EXPECT_EQ(scope.stats().serve_corruptions, 12);
}

// ---- bounded shutdown (regression: stop() under a permanent stall) ----

TEST(ChaosShutdown, ShutdownIsBoundedUnderPermanentlyStalledReplica) {
  FaultPlan plan;
  plan.serve_stall_every = 1;
  plan.serve_stall_ms = 60000;  // effectively forever
  FaultScope scope(plan);

  const auto samples = mnist_samples(4);
  ServerOptions opts = chaos_options();
  opts.replicas = 1;
  opts.shutdown_deadline_s = 0.2;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Prediction>> futures;
  {
    ModelServer server(mnist_model(), opts);
    for (int i = 0; i < 6; ++i) futures.push_back(server.submit(samples[0]));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.shutdown(true);  // must return despite the 60 s stall
  }  // destructor must also return promptly
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0) << "shutdown not bounded by shutdown_deadline_s";

  // No future hangs: everything resolved as served or shut down.
  for (auto& f : futures) {
    const RequestStatus status = f.get().status;
    EXPECT_TRUE(status == RequestStatus::kOk ||
                status == RequestStatus::kShutdown)
        << dlbench::serve::to_string(status);
  }
}

// ---- the determinism contract end-to-end ------------------------------

TEST(ChaosDeterminism, MixedFaultCountsAreIdenticalRunToRun) {
  const auto samples = mnist_samples(8);
  struct Counts {
    std::int64_t expired, retries, corrupted, crashes, ok;
    bool operator==(const Counts& o) const {
      return expired == o.expired && retries == o.retries &&
             corrupted == o.corrupted && crashes == o.crashes && ok == o.ok;
    }
  };
  auto run = [&]() {
    FaultPlan plan;
    plan.serve_crash_every = 2;
    plan.serve_crash_max = 3;
    plan.serve_error_rate = 0.2;
    plan.serve_error_attempts = 1;
    plan.serve_corrupt_rate = 0.15;
    plan.serve_expire_rate = 0.1;
    FaultScope scope(plan);
    ServerOptions opts = chaos_options();
    opts.max_retries = 2;
    ModelServer server(mnist_model(), opts);
    const auto preds = drive(server, samples, 120);
    const ServerStats stats = server.stats();
    return Counts{stats.expired, stats.retries, stats.corrupted,
                  stats.crashes, count_status(preds, RequestStatus::kOk)};
  };
  const Counts a = run();
  const Counts b = run();
  EXPECT_TRUE(a == b) << "fault decisions leaked timing dependence: "
                      << a.expired << "/" << a.retries << "/" << a.corrupted
                      << "/" << a.crashes << "/" << a.ok << " vs "
                      << b.expired << "/" << b.retries << "/" << b.corrupted
                      << "/" << b.crashes << "/" << b.ok;
  EXPECT_EQ(a.crashes, 3);  // cap reached exactly
  EXPECT_GT(a.expired, 0);
  EXPECT_GT(a.retries, 0);
  EXPECT_GT(a.corrupted, 0);
}

// ---- trace counters agree with ServerStats ----------------------------

/// Every "serve.*" trace counter equals the ServerStats field it names,
/// and a field that counted something has its trace counter.
void expect_counters_match(const TraceReport& report,
                           const ServerStats& stats) {
  const std::map<std::string, std::int64_t> expected = {
      {"serve.requests", stats.submitted},
      {"serve.rejected", stats.rejected},
      {"serve.batches", stats.batches},
      {"serve.expired", stats.expired},
      {"serve.errors", stats.errors},
      {"serve.shed", stats.shed_breaker},
      {"serve.retries", stats.retries},
      {"serve.hedges", stats.hedges},
      {"serve.hedge_wins", stats.hedge_wins},
      {"serve.corrupted", stats.corrupted},
      {"serve.crashes", stats.crashes},
      {"serve.restarts", stats.restarts},
      {"serve.stalls_replaced", stats.stalls_replaced},
      {"serve.crash_requeues", stats.crash_requeues},
      {"serve.breaker_opens", stats.breaker_opens},
      {"serve.breaker_closes", stats.breaker_closes},
  };
  std::map<std::string, std::int64_t> traced;
  for (const auto& c : report.counters)
    if (c.name.rfind("serve.", 0) == 0 && c.name != "serve.queue_depth")
      traced[c.name] = c.value;
  for (const auto& [name, value] : traced)
    EXPECT_TRUE(expected.count(name) == 1) << "unmapped counter " << name;
  for (const auto& [name, value] : expected) {
    const auto it = traced.find(name);
    EXPECT_EQ(it == traced.end() ? 0 : it->second, value) << name;
  }
}

TEST(ChaosTrace, ServeCountersEqualServerStats) {
  const auto samples = mnist_samples(8);
  {
    SCOPED_TRACE("unsupervised fleet dies, then shuts down");
    TraceScope trace;
    ServerStats stats;
    {
      FaultPlan plan;
      plan.serve_crash_every = 1;
      FaultScope faults(plan);
      ServerOptions opts = chaos_options();
      opts.supervise = false;
      ModelServer server(mnist_model(), opts);
      drive(server, samples, 16);
      EXPECT_EQ(server.predict(samples[0]).status, RequestStatus::kError);
      server.shutdown(true);
      EXPECT_EQ(server.predict(samples[0]).status, RequestStatus::kShutdown);
      stats = server.stats();
    }  // server joined: no instrumented work in flight
    EXPECT_EQ(stats.errors, 17);
    EXPECT_EQ(stats.submitted, 18);
    expect_counters_match(trace.report(), stats);
  }
  {
    SCOPED_TRACE("mixed faults");
    TraceScope trace;
    ServerStats stats;
    {
      FaultPlan plan;
      plan.serve_crash_every = 2;
      plan.serve_crash_max = 3;
      plan.serve_error_rate = 0.2;
      plan.serve_error_attempts = 1;
      plan.serve_corrupt_rate = 0.15;
      plan.serve_expire_rate = 0.1;
      FaultScope faults(plan);
      ServerOptions opts = chaos_options();
      opts.max_retries = 2;
      ModelServer server(mnist_model(), opts);
      drive(server, samples, 120);
      server.shutdown(true);
      stats = server.stats();
    }
    EXPECT_GT(stats.crash_requeues, 0);
    EXPECT_GT(stats.retries, 0);
    EXPECT_GT(stats.expired, 0);
    expect_counters_match(trace.report(), stats);
  }
}

// ---- ChaosRecord reporting -------------------------------------------

TEST(ChaosReport, EmptyPercentilesSerializeAsNullNeverGarbage) {
  dlbench::core::ChaosRecord record;
  record.scenario = "smoke";
  // Latencies taken from an *empty* histogram carry the NaN sentinel —
  // JSON must render them as null, and the table as "n/a", never as a
  // number (the pre-sentinel histogram returned garbage like 0 or
  // whatever the last merge left behind).
  dlbench::runtime::LatencyHistogram empty;
  record.latency_p50_s = empty.percentile(50.0);
  record.latency_p99_s = empty.percentile(99.0);
  record.latency_max_s = empty.max_s();
  record.baseline_p99_s = empty.percentile(99.0);
  record.faulted_p99_s = empty.percentile(99.0);
  record.p99_inflation = record.faulted_p99_s / record.baseline_p99_s;
  ASSERT_TRUE(std::isnan(record.latency_p99_s));
  const std::string json = dlbench::core::record_json(record);
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("null"), std::string::npos) << json;
  const std::string table =
      dlbench::core::chaos_table("chaos", {record}).to_string();
  EXPECT_EQ(table.find("nan"), std::string::npos) << table;
}

}  // namespace
