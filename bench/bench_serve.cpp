// Serving benchmark: dynamic batching, replica scaling, backpressure.
//
// The paper measures training and offline testing time; this bench
// covers the deployment side those metrics stop short of — an
// inference server under load. Four experiments:
//
//   1. Batching ablation (open loop). Offered load is fixed at 2x the
//      measured (warm) max_batch=32 capacity, then max_batch sweeps
//      1 -> 8 -> 32 on the parallel device. Larger batches spread each
//      forward across more cores, so throughput rises and the p99
//      (queueing collapse at batch=1) falls.
//   2. Replica scaling (closed loop, serial device): 1 -> 2 -> 4
//      replicas, throughput from concurrency instead of batch width;
//      each count's median of three interleaved rounds.
//   3. Overload shedding (open loop at 4x the batch<=8 server's own
//      capacity, small queue): admission control rejects past the
//      watermark while queue depth stays bounded.
//   4. Framework emulation sweep (closed loop): the TF / Caffe / Torch
//      default MNIST nets served under one policy — the conv kernel and
//      network defaults shift the whole latency distribution.
//   5. Multi-tenant fleet (serve/fleet): mixed MNIST + CIFAR models
//      behind one FleetManager, the bronze flood at 2x the fully
//      staffed MNIST pool's capacity. An isolated gold-tenant baseline,
//      then the weighted-fair + SLO-admission control plane against the
//      FIFO/no-admission ablation (gold p99 stays within a bounded
//      factor of isolated while FIFO head-of-line blocking collapses
//      it), plus a drained decision-log replay demonstrating the fleet
//      determinism contract (DESIGN.md §14). The three fleet cells run
//      interleaved for three rounds and the checks compare medians.
//
// Flags: session flags plus --quick (shorter cells) and
// --duration=SECONDS per cell.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "frameworks/predictor.hpp"
#include "runtime/fault.hpp"
#include "serve/fleet.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace {

using dlbench::core::ServeRecord;
using dlbench::core::TenantRecord;
using dlbench::frameworks::DatasetId;
using dlbench::frameworks::FrameworkKind;
using dlbench::runtime::Device;
using dlbench::serve::LoadGenOptions;
using dlbench::serve::LoadGenResult;
using dlbench::serve::ModelServer;
using dlbench::serve::ServerOptions;
using dlbench::serve::ServerStats;
using dlbench::tensor::Tensor;

/// Synthetic request pool: serving cost does not depend on pixel
/// values, so N(0,1) samples of the dataset's shape suffice.
std::vector<Tensor> make_inputs(DatasetId dataset, int count) {
  dlbench::util::Rng rng(99);
  const auto shape = dlbench::frameworks::sample_shape(dataset);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    inputs.push_back(Tensor::randn(shape, rng));
  return inputs;
}

/// Runs one load-gen cell against a fresh server and flattens the
/// client + server views into a ServeRecord.
ServeRecord run_cell(FrameworkKind framework, DatasetId dataset,
                     const ServerOptions& sopts, const LoadGenOptions& lopts,
                     const std::vector<Tensor>& inputs) {
  dlbench::frameworks::PredictorConfig pconfig;
  pconfig.framework = framework;
  pconfig.dataset = dataset;
  pconfig.device = sopts.device;
  ModelServer server(dlbench::frameworks::make_predictor(pconfig), sopts);
  const LoadGenResult load = run_load(server, inputs, lopts);
  server.shutdown();
  const ServerStats stats = server.stats();

  ServeRecord r;
  r.framework = to_string(framework);
  r.dataset = to_string(dataset);
  r.mode = to_string(lopts.mode);
  r.device = sopts.device.name();
  r.replicas = sopts.replicas;
  r.max_batch = sopts.max_batch;
  r.max_batch_delay_s = sopts.max_batch_delay_s;
  r.duration_s = load.duration_s;
  r.offered_rps = load.offered_rps;
  r.achieved_rps = load.achieved_rps;
  r.issued = load.issued;
  r.ok = load.ok;
  r.rejected = load.rejected;
  r.mean_batch = load.mean_batch;
  r.latency_mean_s = load.latency.mean_s();
  r.latency_p50_s = load.latency.percentile(50);
  r.latency_p95_s = load.latency.percentile(95);
  r.latency_p99_s = load.latency.percentile(99);
  r.latency_p999_s = load.latency.percentile(99.9);
  r.latency_max_s = load.latency.max_s();
  r.max_queue_depth = stats.max_queue_depth;
  r.busy_s = stats.busy_s;
  r.queue_wait_p50_s = stats.latency.queue_wait.percentile(50);
  r.queue_wait_p99_s = stats.latency.queue_wait.percentile(99);
  r.assemble_mean_s = stats.latency.assemble.mean_s();
  r.forward_mean_s = stats.latency.forward.mean_s();
  r.scatter_mean_s = stats.latency.scatter.mean_s();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using dlbench::bench::BenchSession;
  namespace fault = dlbench::runtime::fault;
  // Arm env-requested serve faults (DLB_CHAOS_*, DESIGN.md §13) for the
  // whole sweep, mirroring the Harness idiom for DLB_FAULT_*: e.g.
  //   DLB_CHAOS_ERROR_RATE=0.2 ./bench_serve --quick
  // measures every cell under a 20% transient-error burn.
  std::optional<fault::FaultScope> chaos_scope;
  {
    fault::FaultPlan plan = fault::FaultPlan::from_env();
    if (!fault::enabled() && plan.active()) chaos_scope.emplace(plan);
  }
  double duration_s = 0.4;
  BenchSession session(
      argc, argv, "bench_serve",
      "inference serving: dynamic batching, replicas, backpressure",
      [&duration_s](const std::string& arg) {
        if (arg == "--quick") {
          duration_s = 0.15;
          return true;
        }
        if (arg.rfind("--duration=", 0) == 0) {
          duration_s = dlbench::util::parse_f64(arg.substr(11), "--duration");
          if (!(duration_s > 0.0 && std::isfinite(duration_s)))
            throw dlbench::Error("--duration must be finite and > 0");
          return true;
        }
        return false;
      });

  const DatasetId dataset = DatasetId::kMnist;
  const FrameworkKind framework = FrameworkKind::kTensorFlow;
  const std::vector<Tensor> inputs = make_inputs(dataset, 64);

  // Calibrate: peak closed-loop throughput of each configuration an
  // open-loop cell overloads, so offered load is pinned relative to
  // that configuration's capacity instead of a machine-dependent rate.
  // The first probe of a configuration runs cold (pool threads, plan
  // arenas, caches) and under-reads its capacity, so every probe runs
  // once unmeasured first.
  const auto capacity = [&](const ServerOptions& sopts, int clients) {
    LoadGenOptions probe;
    probe.mode = LoadGenOptions::Mode::kClosedLoop;
    probe.clients = clients;
    probe.duration_s = duration_s;
    (void)run_cell(framework, dataset, sopts, probe, inputs);
    return run_cell(framework, dataset, sopts, probe, inputs).achieved_rps;
  };
  ServerOptions base;
  base.sample_shape = dlbench::frameworks::sample_shape(dataset);
  base.replicas = 1;
  base.max_batch = 1;
  base.max_batch_delay_s = 0.0;
  base.device = Device::gpu();
  base.compute_probabilities = false;
  const double capacity_rps = capacity(base, 2);
  std::cout << "calibration: max_batch=1 capacity "
            << static_cast<long long>(capacity_rps) << " r/s\n\n";

  // 1. Batching ablation at a fixed offered load: 2x the capacity of
  // the widest batch, so every cell is overloaded and serves at its own
  // capacity. (At 2x the batch-1 rate, batch 8 already absorbs the
  // whole load and batch 32 cannot show more.)
  ServerOptions widest = base;
  widest.max_batch = 32;
  widest.max_batch_delay_s = 0.002;
  const double widest_rps =
      capacity(widest, static_cast<int>(2 * widest.max_batch));
  std::cout << "--- batching ablation (open loop, offered = 2x the batch<=32 "
               "capacity of "
            << static_cast<long long>(widest_rps) << " r/s) ---\n";
  std::vector<ServeRecord> ablation;
  LoadGenOptions open;
  open.mode = LoadGenOptions::Mode::kOpenLoop;
  open.offered_rps = 2.0 * widest_rps;
  open.duration_s = duration_s;
  for (const std::int64_t max_batch : {1, 8, 32}) {
    ServerOptions sopts = widest;
    sopts.max_batch = max_batch;
    ablation.push_back(
        session.add(run_cell(framework, dataset, sopts, open, inputs)));
  }
  // On a parallel host each extra batch slot is another core for the
  // forward, so throughput rises through 32 and p99 falls with it.
  // Single-core hosts only get the fixed-cost amortization, which
  // saturates (and can regress) past batch 8 — there the claim is that
  // the best batched cell beats unbatched serving.
  const auto& best_batched =
      ablation[1].achieved_rps >= ablation[2].achieved_rps ? ablation[1]
                                                           : ablation[2];
  if (std::thread::hardware_concurrency() >= 4) {
    dlbench::bench::shape_check(
        "throughput rises with max batch 1 -> 8 -> 32",
        ablation[0].achieved_rps < ablation[1].achieved_rps &&
            ablation[1].achieved_rps < ablation[2].achieved_rps);
    dlbench::bench::shape_check(
        "p99 latency falls once batching absorbs the overload",
        ablation[2].latency_p99_s < ablation[0].latency_p99_s);
  } else {
    dlbench::bench::shape_check(
        "batching raises throughput over batch=1 (single-core host)",
        best_batched.achieved_rps > ablation[0].achieved_rps);
    dlbench::bench::shape_check(
        "p99 latency falls once batching absorbs the overload",
        best_batched.latency_p99_s < ablation[0].latency_p99_s);
  }

  // 2. Replica scaling on the serial device (closed loop). The counts
  // run interleaved for three rounds (1, 2, 4, 1, 2, 4, ...) so host
  // drift lands on every count alike; each count keeps its median-rps
  // round, and the check compares medians.
  std::cout << "\n--- replica scaling (closed loop, serial device, median "
               "of 3 interleaved rounds) ---\n";
  LoadGenOptions closed;
  closed.mode = LoadGenOptions::Mode::kClosedLoop;
  closed.clients = 8;
  closed.duration_s = duration_s;
  constexpr int kRounds = 3;
  const std::vector<int> replica_counts = {1, 2, 4};
  std::vector<std::vector<ServeRecord>> rounds(replica_counts.size());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < replica_counts.size(); ++i) {
      ServerOptions sopts = base;
      sopts.device = Device::cpu();
      sopts.replicas = replica_counts[i];
      sopts.max_batch = 4;
      // No lingering: a replica-scaling cell measures concurrency, and
      // a batch-fill delay would throttle the closed loop as replicas
      // grow.
      sopts.max_batch_delay_s = 0.0;
      rounds[i].push_back(run_cell(framework, dataset, sopts, closed, inputs));
    }
  }
  std::vector<ServeRecord> scaling;
  for (auto& cells : rounds) {
    std::sort(cells.begin(), cells.end(),
              [](const ServeRecord& a, const ServeRecord& b) {
                return a.achieved_rps < b.achieved_rps;
              });
    scaling.push_back(session.add(cells[kRounds / 2]));
  }
  // Replicas buy throughput only when there are cores to run them on;
  // on a single-core host the honest claim is merely that replica
  // fan-out does not collapse under contention.
  if (std::thread::hardware_concurrency() >= 4) {
    dlbench::bench::shape_check(
        "throughput rises with replicas 1 -> 2 -> 4",
        scaling[0].achieved_rps < scaling[1].achieved_rps &&
            scaling[1].achieved_rps < scaling[2].achieved_rps);
  } else {
    dlbench::bench::shape_check(
        "replica fan-out does not collapse throughput (single-core host)",
        scaling[2].achieved_rps > 0.5 * scaling[0].achieved_rps);
  }

  // 3. Overload shedding: 4x the batched server's own capacity into a
  // small queue. Batching multiplies capacity, so 4x the batch-1 rate
  // does not overload a max_batch=8 server. The probe's clients stay
  // below the admission watermark, so it measures service, not
  // shedding.
  ServerOptions overload = base;
  overload.max_batch = 8;
  overload.max_batch_delay_s = 0.002;
  overload.queue_capacity = 64;  // watermark defaults to 48
  const double overload_capacity_rps =
      capacity(overload, static_cast<int>(4 * overload.max_batch));
  std::cout << "\n--- overload shedding (open loop, offered = 4x the "
               "batch<=8 capacity of "
            << static_cast<long long>(overload_capacity_rps) << " r/s) ---\n";
  LoadGenOptions storm = open;
  storm.offered_rps = 4.0 * overload_capacity_rps;
  const ServeRecord shed =
      session.add(run_cell(framework, dataset, overload, storm, inputs));
  dlbench::bench::shape_check("overload sheds load (rejections observed)",
                              shed.rejected > 0);
  dlbench::bench::shape_check(
      "queue depth stays bounded by the watermark",
      shed.max_queue_depth <=
          static_cast<std::int64_t>(overload.queue_capacity -
                                    overload.queue_capacity / 4));

  // 4. Framework emulation sweep under one serving policy.
  std::cout << "\n--- framework emulations (closed loop, shared policy) "
               "---\n";
  for (const FrameworkKind kind :
       {FrameworkKind::kTensorFlow, FrameworkKind::kCaffe,
        FrameworkKind::kTorch}) {
    ServerOptions sopts = base;
    sopts.device = Device::cpu();
    sopts.replicas = 2;
    sopts.max_batch = 8;
    sopts.max_batch_delay_s = 0.001;
    LoadGenOptions lopts = closed;
    lopts.clients = 4;
    session.add(run_cell(kind, dataset, sopts, lopts, inputs));
  }

  // 5. Multi-tenant fleet: two models, three SLO classes, aggregate
  // offered load pinned far past the calibrated capacity. Three cells
  // share one mixed trace (gold is stream 0 in both traces, so its
  // marginal arrival schedule is bit-identical across cells):
  //   gold_isolated — the gold tenant alone, the latency it would see
  //                   with the machine to itself;
  //   drr_slo       — weighted-fair scheduling + SLO-class admission
  //                   under the full overload mix;
  //   fifo_noadm    — the ablation: one arrival-order queue, no
  //                   watermark shedding (head-of-line blocking).
  // As in §2 the cells run interleaved for kRounds rounds; each keeps
  // its median-gold-p99 round for the session and every check compares
  // medians over the rounds.
  std::cout << "\n--- multi-tenant fleet (SLO classes under aggregate "
               "overload, median of 3 interleaved rounds) ---\n";
  namespace serve = dlbench::serve;
  // Quick cells are too short for stable per-tenant tails; floor the
  // fleet trace length instead of inheriting --quick verbatim.
  const double fleet_duration_s = std::max(duration_s, 0.25);
  const std::vector<Tensor> cifar_inputs = make_inputs(DatasetId::kCifar10, 32);

  dlbench::frameworks::PredictorConfig mnist_cfg;
  mnist_cfg.framework = framework;
  mnist_cfg.dataset = DatasetId::kMnist;
  mnist_cfg.device = Device::gpu();
  const auto mnist_frozen = dlbench::frameworks::make_predictor(mnist_cfg);
  dlbench::frameworks::PredictorConfig cifar_cfg = mnist_cfg;
  cifar_cfg.dataset = DatasetId::kCifar10;
  const auto cifar_frozen = dlbench::frameworks::make_predictor(cifar_cfg);

  // The MNIST model's pool at full staffing; the bronze flood is sized
  // from its warm capacity.
  ServerOptions mnist_pool = base;
  mnist_pool.replicas = 3;
  mnist_pool.max_batch = 4;
  mnist_pool.max_batch_delay_s = 0.001;
  const double mnist_pool_rps = capacity(
      mnist_pool,
      static_cast<int>(2 * mnist_pool.replicas * mnist_pool.max_batch));
  std::cout << "calibration: fleet mnist pool (" << mnist_pool.replicas
            << " replicas, batch<=" << mnist_pool.max_batch << ") capacity "
            << static_cast<long long>(mnist_pool_rps) << " r/s\n";

  const auto make_fleet = [&](serve::FleetPolicy policy, bool slo_admission,
                              bool isolated) {
    serve::FleetOptions fo;
    fo.policy = policy;
    fo.slo_admission = slo_admission;
    fo.core_budget = 4;
    fo.tenant_queue_capacity = 128;
    fo.global_queue_budget = 256;
    fo.autoscale_every = 32;
    auto fleet = std::make_unique<serve::FleetManager>(fo);
    serve::FleetModelConfig mnist_model;
    mnist_model.name = "mnist";
    mnist_model.sample_shape =
        dlbench::frameworks::sample_shape(DatasetId::kMnist);
    mnist_model.min_replicas = 1;
    mnist_model.max_replicas = mnist_pool.replicas;
    mnist_model.window_per_replica = 4;
    mnist_model.max_batch = mnist_pool.max_batch;
    mnist_model.max_batch_delay_s = mnist_pool.max_batch_delay_s;
    mnist_model.device = Device::gpu();
    fleet->register_model(mnist_model, mnist_frozen);
    serve::FleetModelConfig cifar_model = mnist_model;
    cifar_model.name = "cifar";
    cifar_model.sample_shape =
        dlbench::frameworks::sample_shape(DatasetId::kCifar10);
    cifar_model.max_replicas = 1;
    fleet->register_model(cifar_model, cifar_frozen);
    fleet->register_tenant({"gold_mnist", "mnist", serve::SloClass::kGold, 4});
    if (!isolated) {
      fleet->register_tenant(
          {"silver_cifar", "cifar", serve::SloClass::kSilver, 2});
      fleet->register_tenant(
          {"bronze_mnist", "mnist", serve::SloClass::kBronze, 1});
    }
    return fleet;
  };

  // The bronze flood alone offers 2x what the fully staffed MNIST pool
  // serves, so the mix overloads the fleet wherever it runs. Gold and
  // silver are light streams, a fraction of one unbatched replica's
  // capacity, well inside their weighted shares.
  const serve::TenantStream gold_stream{"gold_mnist", 0.3 * capacity_rps};
  const std::vector<serve::TenantStream> iso_streams{gold_stream};
  const std::vector<serve::TenantStream> mixed_streams{
      gold_stream,
      {"silver_cifar", 0.1 * capacity_rps},
      {"bronze_mnist", 2.0 * mnist_pool_rps}};
  const std::vector<std::vector<Tensor>> iso_inputs{inputs};
  const std::vector<std::vector<Tensor>> mixed_inputs{inputs, cifar_inputs,
                                                      inputs};
  const auto iso_trace =
      serve::make_mixed_trace(iso_streams, fleet_duration_s, 4242, 10000);
  const auto mixed_trace =
      serve::make_mixed_trace(mixed_streams, fleet_duration_s, 4242, 10000);

  // One fleet cell: its stats plus the TenantRecords it would report.
  struct FleetCell {
    serve::FleetStats stats;
    std::vector<TenantRecord> records;
  };
  const auto run_fleet_cell = [&](const std::string& scenario,
                                  serve::FleetPolicy policy,
                                  bool slo_admission, bool isolated) {
    auto fleet = make_fleet(policy, slo_admission, isolated);
    fleet->start();
    const auto& streams = isolated ? iso_streams : mixed_streams;
    const auto& trace = isolated ? iso_trace : mixed_trace;
    const auto& cell_inputs = isolated ? iso_inputs : mixed_inputs;
    const serve::FleetLoadResult load =
        serve::run_fleet_trace(*fleet, streams, trace, cell_inputs);
    fleet->stop();
    FleetCell cell{fleet->stats(), {}};
    const serve::FleetStats& fs = cell.stats;
    for (const auto& t : fs.tenants) {
      TenantRecord r;
      r.scenario = scenario;
      r.tenant = t.tenant;
      r.model = t.model;
      r.slo = to_string(t.slo);
      r.weight = t.weight;
      for (const auto& s : streams)
        if (s.tenant == t.tenant) r.offered_rps = s.offered_rps;
      r.duration_s = load.duration_s;
      r.submitted = t.submitted;
      r.admitted = t.admitted;
      r.shed = t.shed;
      r.rejected = t.rejected;
      r.ok = t.ok;
      r.failed = t.failed;
      r.goodput_rps = load.duration_s > 0.0
                          ? static_cast<double>(t.ok) / load.duration_s
                          : 0.0;
      r.latency_p50_s = t.latency.percentile(50);
      r.latency_p99_s = t.latency.percentile(99);
      r.latency_max_s = t.latency.max_s();
      r.queue_wait_p99_s = t.queue_wait.percentile(99);
      for (const auto& m : fs.models)
        if (m.model == t.model) {
          r.replicas_min = m.replicas_low;
          r.replicas_max = m.replicas_peak;
          r.scale_ups = m.scale_ups;
          r.scale_downs = m.scale_downs;
          r.replica_arena_bytes =
              m.replicas > 0 ? m.plan_arena_bytes / m.replicas
                             : m.plan_arena_bytes;
        }
      cell.records.push_back(std::move(r));
    }
    std::cout << scenario << ": decisions " << fs.decisions << ", gold p99 "
              << fs.tenants[0].latency.percentile(99) * 1e3 << " ms\n";
    return cell;
  };

  std::vector<FleetCell> iso_rounds;
  std::vector<FleetCell> drr_rounds;
  std::vector<FleetCell> fifo_rounds;
  for (int round = 0; round < kRounds; ++round) {
    iso_rounds.push_back(run_fleet_cell(
        "gold_isolated", serve::FleetPolicy::kWeightedFair, true, true));
    drr_rounds.push_back(run_fleet_cell(
        "drr_slo", serve::FleetPolicy::kWeightedFair, true, false));
    fifo_rounds.push_back(
        run_fleet_cell("fifo_noadm", serve::FleetPolicy::kFifo, false, false));
  }
  // Median over the rounds of one quantity of a cell.
  const auto median = [](const std::vector<FleetCell>& rounds,
                         const auto& quantity) {
    std::vector<double> values;
    for (const FleetCell& cell : rounds)
      values.push_back(static_cast<double>(quantity(cell.stats)));
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  const auto gold_p99 = [](const serve::FleetStats& fs) {
    return fs.tenants[0].latency.percentile(99);
  };
  // The session keeps each scenario's median-gold-p99 round.
  for (auto* rounds : {&iso_rounds, &drr_rounds, &fifo_rounds}) {
    std::sort(rounds->begin(), rounds->end(),
              [&](const FleetCell& a, const FleetCell& b) {
                return gold_p99(a.stats) < gold_p99(b.stats);
              });
    for (const TenantRecord& r : (*rounds)[kRounds / 2].records)
      session.add(r);
  }

  const double iso_p99 = median(iso_rounds, gold_p99);
  const double drr_p99 = median(drr_rounds, gold_p99);
  const double fifo_p99 = median(fifo_rounds, gold_p99);
  dlbench::bench::shape_check(
      "SLO admission sheds bronze under overload and never sheds gold",
      median(drr_rounds,
             [](const serve::FleetStats& fs) { return fs.tenants[2].shed; }) >
              0 &&
          median(drr_rounds, [](const serve::FleetStats& fs) {
            return fs.tenants[0].shed;
          }) == 0);
  // Gold shares replicas with the flood, so some inflation over the
  // isolated baseline is expected — the claim is a bounded factor, not
  // isolation-grade latency (the absolute bound catches a vanishingly
  // small isolated p99 making the ratio noisy).
  dlbench::bench::shape_check(
      "weighted-fair + SLO keeps gold p99 within a bounded factor of isolated",
      drr_p99 <= 25.0 * iso_p99 || drr_p99 < 0.25);
  dlbench::bench::shape_check(
      "FIFO/no-admission head-of-line blocking collapses gold p99",
      fifo_p99 > 3.0 * drr_p99);
  dlbench::bench::shape_check(
      "autoscaler staffs the flooded model up under sustained backlog",
      median(drr_rounds, [](const serve::FleetStats& fs) {
        return fs.models[0].scale_ups;
      }) >= 1);

  // Determinism contract (DESIGN.md §14): pause -> preload -> drain the
  // same fixed-length trace twice; the decision logs must be
  // bit-identical however this machine schedules the replica threads.
  const std::vector<serve::TenantStream> replay_streams{
      {"gold_mnist", 300.0},
      {"silver_cifar", 120.0},
      {"bronze_mnist", 900.0}};
  const auto replay_trace =
      serve::make_mixed_trace(replay_streams, 0.0, 7, 256);
  const auto replay_log = [&]() {
    auto fleet =
        make_fleet(serve::FleetPolicy::kWeightedFair, true, false);
    fleet->start(/*paused=*/true);
    serve::FleetLoadOptions lo;
    lo.realtime = false;
    serve::run_fleet_trace(*fleet, replay_streams, replay_trace, mixed_inputs,
                           lo);
    const std::vector<serve::FleetDecision> log = fleet->decision_log();
    fleet->stop();
    std::vector<std::string> lines;
    lines.reserve(log.size());
    for (const auto& d : log) lines.push_back(serve::format_decision(d));
    return lines;
  };
  const std::vector<std::string> log_a = replay_log();
  const std::vector<std::string> log_b = replay_log();
  dlbench::bench::shape_check(
      "drained decision log replays bit-identically (same seed + trace)",
      !log_a.empty() && log_a == log_b);
  std::cout << "determinism replay: " << log_a.size()
            << " decisions, identical across runs\n";

  std::cout << "\n"
            << dlbench::core::serve_table("bench_serve — all cells",
                                          session.records<ServeRecord>())
            << "\n";
  std::cout << dlbench::core::tenant_table("bench_serve — multi-tenant fleet",
                                           session.records<TenantRecord>())
            << "\n";
  session.flush();
  return 0;
}
