// Chaos gauntlet: the serving path under injected faults, supervised
// vs unsupervised, with bounded and *measured* degradation.
//
// Open-loop Poisson traffic (fixed request count, so every id-keyed
// fault decision replays identically — the determinism contract,
// DESIGN.md §13) is driven through four fault schedules:
//
//   crash   — replica slots crash on a batch cadence (capped); the
//             supervised fleet requeues + restarts, the unsupervised
//             fleet bleeds out and eventually fails everything.
//   stall   — replicas freeze mid-batch; the supervised stall watchdog
//             abandons and restaffs the slot, unsupervised traffic
//             queues behind the frozen replica.
//   error   — a deterministic subset of requests hits a transient
//             forward error; supervised retry-with-backoff absorbs it,
//             unsupervised serving surfaces every error to the client.
//   breaker — a persistent error burn with mixed-priority traffic; the
//             hardened config's circuit breaker sheds low-priority load
//             and re-closes after its probe window.
//
// Each scenario reports a ChaosRecord: goodput, p99 inflation over the
// no-fault baseline, and a recovery time computed from windowed p99s of
// per-request samples (a window is "degraded" while its p99 exceeds 2x
// the baseline p99 — or while it has no successful traffic at all; the
// run "recovers" at the first window after the last degraded one).
// A final pass re-runs the supervised crash cell and cross-checks that
// every deterministic event count is identical run-to-run.
//
// Flags: session flags plus --quick and --requests=N per cell.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "frameworks/predictor.hpp"
#include "runtime/fault.hpp"
#include "runtime/histogram.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace {

using dlbench::core::ChaosRecord;
using dlbench::frameworks::DatasetId;
using dlbench::frameworks::FrameworkKind;
using dlbench::runtime::Device;
using dlbench::runtime::LatencyHistogram;
using dlbench::runtime::fault::FaultPlan;
using dlbench::runtime::fault::FaultScope;
using dlbench::serve::LoadGenOptions;
using dlbench::serve::LoadGenResult;
using dlbench::serve::ModelServer;
using dlbench::serve::RequestStatus;
using dlbench::serve::ServerOptions;
using dlbench::serve::ServerStats;
using dlbench::tensor::Tensor;

std::vector<Tensor> make_inputs(DatasetId dataset, int count) {
  dlbench::util::Rng rng(99);
  const auto shape = dlbench::frameworks::sample_shape(dataset);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    inputs.push_back(Tensor::randn(shape, rng));
  return inputs;
}

/// Windowed-p99 timeline over per-request samples. A window is degraded
/// while its ok-latency p99 exceeds `degraded_threshold_s` or while it
/// completed no request at all (service absent counts as degraded, not
/// as healthy silence).
struct Timeline {
  double faulted_p99_s = 0.0;  // worst finite window p99
  double recovery_s = -1.0;    // onset -> first window past the last
                               // degraded one; -1 = never recovered,
                               // 0 = never degraded
};

Timeline analyze_timeline(const std::vector<LoadGenResult::Sample>& samples,
                          double window_s, double degraded_threshold_s) {
  Timeline t;
  t.faulted_p99_s = std::numeric_limits<double>::quiet_NaN();
  if (samples.empty() || window_s <= 0.0) return t;
  double span_s = 0.0;
  for (const auto& s : samples) span_s = std::max(span_s, s.issue_offset_s);
  const auto windows = static_cast<std::size_t>(span_s / window_s) + 1;
  std::vector<LatencyHistogram> hist(windows);
  for (const auto& s : samples) {
    if (s.status != RequestStatus::kOk) continue;
    hist[static_cast<std::size_t>(s.issue_offset_s / window_s)].record_s(
        s.total_s);
  }
  std::ptrdiff_t first_bad = -1, last_bad = -1;
  for (std::size_t w = 0; w < windows; ++w) {
    const double p99 = hist[w].percentile(99.0);
    if (std::isfinite(p99) &&
        (std::isnan(t.faulted_p99_s) || p99 > t.faulted_p99_s))
      t.faulted_p99_s = p99;
    const bool degraded = !std::isfinite(p99) || p99 > degraded_threshold_s;
    if (degraded) {
      if (first_bad < 0) first_bad = static_cast<std::ptrdiff_t>(w);
      last_bad = static_cast<std::ptrdiff_t>(w);
    }
  }
  if (first_bad < 0) {
    t.recovery_s = 0.0;  // never degraded
  } else if (last_bad == static_cast<std::ptrdiff_t>(windows) - 1) {
    t.recovery_s = -1.0;  // still degraded when the run ended
  } else {
    t.recovery_s = static_cast<double>(last_bad + 1 - first_bad) * window_s;
  }
  return t;
}

/// One gauntlet cell: fresh server, optional fault scope for the whole
/// run, ChaosRecord assembled from the client + server views.
ChaosRecord run_cell(const std::string& scenario,
                     const std::optional<FaultPlan>& plan,
                     const ServerOptions& sopts, const LoadGenOptions& lopts,
                     const std::vector<Tensor>& inputs,
                     double baseline_p99_s,
                     dlbench::runtime::fault::FaultStats* fault_stats) {
  const FrameworkKind framework = FrameworkKind::kCaffe;
  const DatasetId dataset = DatasetId::kMnist;
  dlbench::frameworks::PredictorConfig pconfig;
  pconfig.framework = framework;
  pconfig.dataset = dataset;
  pconfig.device = sopts.device;

  std::optional<FaultScope> scope;
  if (plan.has_value()) scope.emplace(*plan);
  ModelServer server(dlbench::frameworks::make_predictor(pconfig), sopts);
  const LoadGenResult load = run_load(server, inputs, lopts);
  server.shutdown();
  const ServerStats stats = server.stats();
  if (scope.has_value() && fault_stats) *fault_stats = scope->stats();

  ChaosRecord r;
  r.framework = to_string(framework);
  r.dataset = to_string(dataset);
  r.device = sopts.device.name();
  r.scenario = scenario;
  r.supervised = sopts.supervise;
  r.replicas = sopts.replicas;
  r.max_batch = sopts.max_batch;
  r.offered_rps = load.offered_rps;
  r.duration_s = load.duration_s;
  r.seed = plan.has_value() ? plan->seed : 0;
  r.issued = load.issued;
  r.ok = load.ok;
  r.rejected = load.rejected;
  r.expired = load.expired;
  r.errors = load.errors + load.shutdown;
  r.shed = load.shed;
  r.goodput_rps = load.achieved_rps;
  r.latency_p50_s = load.latency.percentile(50.0);
  r.latency_p99_s = load.latency.percentile(99.0);
  r.latency_max_s = load.latency.max_s();
  r.crashes = stats.crashes;
  r.restarts = stats.restarts;
  r.stalls_replaced = stats.stalls_replaced;
  r.retries = stats.retries;
  r.hedges = stats.hedges;
  r.hedge_wins = stats.hedge_wins;
  r.corrupted = stats.corrupted;
  r.breaker_opens = stats.breaker_opens;
  r.breaker_closes = stats.breaker_closes;

  r.baseline_p99_s = baseline_p99_s;
  const double window_s = std::max(0.05, load.duration_s / 12.0);
  const Timeline timeline =
      analyze_timeline(load.samples, window_s, 2.0 * baseline_p99_s);
  r.faulted_p99_s = timeline.faulted_p99_s;
  r.p99_inflation = r.faulted_p99_s / baseline_p99_s;
  r.recovery_s = timeline.recovery_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using dlbench::bench::BenchSession;
  std::int64_t requests = 800;
  BenchSession session(
      argc, argv, "bench_gauntlet",
      "serving under injected faults: crash, stall, error, breaker",
      [&requests](const std::string& arg) {
        if (arg == "--quick") {
          requests = 250;
          return true;
        }
        if (arg.rfind("--requests=", 0) == 0) {
          requests = dlbench::util::parse_i64(arg.substr(11), "--requests");
          if (requests < 1) throw dlbench::Error("--requests must be >= 1");
          return true;
        }
        return false;
      });

  const DatasetId dataset = DatasetId::kMnist;
  const std::vector<Tensor> inputs = make_inputs(dataset, 64);

  ServerOptions hardened;
  hardened.sample_shape = dlbench::frameworks::sample_shape(dataset);
  hardened.replicas = 2;
  hardened.max_batch = 4;
  hardened.max_batch_delay_s = 0.001;
  hardened.device = Device::cpu();
  hardened.supervise = true;
  hardened.heartbeat_s = 0.001;

  ServerOptions bare = hardened;  // no supervision, no recovery features
  bare.supervise = false;

  // Calibrate capacity so the offered rate tracks the host instead of a
  // hardcoded machine-dependent number; the gauntlet runs at 60% of the
  // measured closed-loop peak — loaded, but not saturated, so latency
  // inflation is attributable to faults rather than queueing collapse.
  LoadGenOptions probe;
  probe.mode = LoadGenOptions::Mode::kClosedLoop;
  probe.clients = 4;
  probe.duration_s = 0.2;
  double capacity_rps;
  {
    dlbench::frameworks::PredictorConfig pconfig;
    pconfig.framework = FrameworkKind::kCaffe;
    pconfig.dataset = dataset;
    ModelServer server(dlbench::frameworks::make_predictor(pconfig),
                       hardened);
    capacity_rps = run_load(server, inputs, probe).achieved_rps;
  }
  std::cout << "calibration: closed-loop capacity "
            << static_cast<long long>(capacity_rps) << " r/s\n";

  LoadGenOptions open;
  open.mode = LoadGenOptions::Mode::kOpenLoop;
  open.offered_rps = std::max(200.0, 0.6 * capacity_rps);
  open.duration_s = 60.0;  // count-bound; duration is only a backstop
  open.max_requests = requests;
  open.seed = 7;
  open.record_samples = true;

  // No-fault baseline (supervised config, supervision idle): the p99
  // every faulted cell is compared against.
  const ChaosRecord baseline =
      session.add(run_cell("baseline", std::nullopt, hardened, open, inputs,
                           /*baseline_p99_s=*/
                           std::numeric_limits<double>::quiet_NaN(),
                           nullptr));
  const double base_p99 = baseline.latency_p99_s;
  std::cout << "\n";

  // --- crash ---
  FaultPlan crash;
  crash.serve_crash_every = 6;
  crash.serve_crash_max = 4;
  {
    dlbench::runtime::fault::FaultStats fs;
    const ChaosRecord sup = session.add(run_cell(
        "crash", crash, hardened, open, inputs, base_p99, &fs));
    dlbench::bench::shape_check(
        "supervised crash: every injected crash was restarted",
        sup.crashes == crash.serve_crash_max &&
            sup.restarts == sup.crashes && sup.crashes == fs.serve_crashes);
    dlbench::bench::shape_check(
        "supervised crash: full goodput (no request lost to a crash)",
        sup.ok == sup.issued);
    dlbench::bench::shape_check(
        "supervised crash: p99 recovered to the pre-fault band",
        sup.recovery_s >= 0.0);
    const ChaosRecord unsup = session.add(run_cell(
        "crash", crash, bare, open, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "unsupervised crash: fleet death costs goodput and never recovers",
        unsup.ok < unsup.issued && unsup.restarts == 0 &&
            unsup.recovery_s < 0.0);
  }
  std::cout << "\n";

  // --- stall ---
  FaultPlan stall;
  stall.serve_stall_every = 10;
  stall.serve_stall_ms = 120;
  stall.serve_stall_max = 3;
  {
    ServerOptions watched = hardened;
    watched.stall_timeout_s = 0.015;
    watched.hedge_delay_s = 0.03;
    const ChaosRecord sup = session.add(run_cell(
        "stall", stall, watched, open, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "supervised stall: watchdog replaced the frozen replicas",
        sup.stalls_replaced >= 1);
    const ChaosRecord unsup = session.add(run_cell(
        "stall", stall, bare, open, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "stall: supervision bounds the p99 inflation below the bare fleet",
        !(sup.faulted_p99_s > unsup.faulted_p99_s));
  }
  std::cout << "\n";

  // --- transient forward errors ---
  FaultPlan flaky;
  flaky.serve_error_rate = 0.15;
  flaky.serve_error_attempts = 1;  // attempt 0 fails, the retry succeeds
  {
    ServerOptions retrying = hardened;
    retrying.max_retries = 2;
    const ChaosRecord sup = session.add(run_cell(
        "error", flaky, retrying, open, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "supervised error: retries absorb every transient failure",
        sup.errors == 0 && sup.retries > 0 && sup.ok == sup.issued);
    const ChaosRecord unsup = session.add(run_cell(
        "error", flaky, bare, open, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "unsupervised error: every marked request surfaces to the client",
        unsup.errors == sup.retries && unsup.ok == unsup.issued - unsup.errors);
  }
  std::cout << "\n";

  // --- persistent errors + circuit breaker ---
  FaultPlan burn;
  burn.serve_error_rate = 0.5;
  burn.serve_error_attempts = 100;  // effectively permanent per marked id
  {
    LoadGenOptions mixed = open;
    mixed.low_priority_fraction = 0.3;
    ServerOptions breaker = hardened;
    breaker.breaker_threshold = 0.5;
    breaker.breaker_window = 32;
    breaker.breaker_probe_s = 0.05;
    const ChaosRecord sup = session.add(run_cell(
        "breaker", burn, breaker, mixed, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "breaker: opened under the burn and shed low-priority load",
        sup.breaker_opens >= 1 && sup.shed > 0);
    dlbench::bench::shape_check(
        "breaker: re-closed after its probe window",
        sup.breaker_closes >= 1);
    const ChaosRecord unsup = session.add(run_cell(
        "breaker", burn, bare, mixed, inputs, base_p99, nullptr));
    dlbench::bench::shape_check(
        "breaker: bare fleet sheds nothing and eats every failure",
        unsup.shed == 0 && unsup.errors >= sup.errors);
  }
  std::cout << "\n";

  // --- determinism: the supervised crash cell, replayed ---
  {
    const ChaosRecord again = run_cell("crash(replay)", crash, hardened,
                                       open, inputs, base_p99, nullptr);
    // crash, supervised
    const ChaosRecord& first = session.records<ChaosRecord>()[1];
    dlbench::bench::shape_check(
        "gauntlet replay: deterministic event counts are identical",
        again.crashes == first.crashes && again.expired == first.expired &&
            again.retries == first.retries &&
            again.corrupted == first.corrupted && again.ok == first.ok);
  }

  std::cout << "\n"
            << dlbench::core::chaos_table("bench_gauntlet — all cells",
                                          session.records<ChaosRecord>())
            << "\n";
  session.flush();
  return 0;
}
