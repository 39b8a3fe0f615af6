// serve_mnist: a TF-MNIST make_predictor model behind one ModelServer
// with default ServerOptions (2 serial replicas, max batch 8, 2 ms
// linger), driven by the benchmark's own open-loop Poisson generator
// from one thread.
//
// The generator times every request from its scheduled send time, so a
// stall that delays later sends shows up in their latency, and it
// records how late it ran. The end-to-end run alternates windows at a
// fixed high rate (600 r/s) with windows of peak throughput, measured by
// a closed loop that keeps 32 requests in flight. The traced run adds a
// low rate (100 r/s), where batches hold about one request and the
// linger timer dominates.

#include <algorithm>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/predictor.hpp"
#include "frameworks/registry.hpp"
#include "nn/layers.hpp"
#include "probes.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

namespace fw = dlbench::frameworks;
namespace nn = dlbench::nn;
namespace serve = dlbench::serve;
using dlbench::runtime::Device;
using dlbench::tensor::Tensor;

constexpr std::int64_t kInputs = 256;  // distinct request samples
constexpr double kLowRps = 100.0;
constexpr double kHighRps = 600.0;
// Peak throughput: a closed loop that keeps this many requests in
// flight, enough to fill every replica's batch with a queue behind it,
// yet far below the admission watermark, so nothing is shed.
constexpr int kInFlight = 32;
constexpr double kPeakWindowSeconds = 0.5;
// The fixed-rate phase is measured in windows of this length (600
// requests at the high rate, so p90 has sixty beyond it). On a shared
// host, interference from other tenants slows whole windows, while a
// slower server slows every window, the quiet ones included; so each
// metric takes the quieter quartile of its windows: the lower quartile
// of latencies, the upper quartile of rates.
constexpr double kWindowSeconds = 1.0;
// A window is valid while the generator sends on schedule: its own p99
// lateness stays within this.
constexpr double kMaxLateMs = 1.0;

struct ServeSetup {
  nn::FrozenModel model;
  std::vector<Tensor> inputs;         // [1, 28, 28] each
  std::vector<std::int64_t> expected; // single-sample argmax per input
  Tensor batch8;                      // the first 8 inputs, for probes
  std::unique_ptr<serve::ModelServer> server;
  double synth_s = 0.0;
};

fw::PredictorConfig predictor_config(std::uint64_t seed) {
  fw::PredictorConfig config;
  config.framework = fw::FrameworkKind::kTensorFlow;
  config.dataset = fw::DatasetId::kMnist;
  config.device = Device::cpu();
  config.seed = derive_seed(seed, 2);
  return config;
}

serve::ServerOptions pinned_server_options() {
  serve::ServerOptions o;  // the defaults, spelled out
  o.sample_shape = fw::sample_shape(fw::DatasetId::kMnist);
  o.replicas = 2;
  o.max_batch = 8;
  o.max_batch_delay_s = 0.002;
  o.device = Device::cpu();
  o.compute_probabilities = true;
  o.supervise = true;
  return o;
}

ServeSetup make_setup(std::uint64_t seed) {
  ServeSetup s;
  const auto t0 = Clock::now();
  dlbench::data::MnistOptions opt;
  opt.train_samples = 1;
  opt.test_samples = kInputs;
  opt.seed = derive_seed(seed, 1);
  const dlbench::data::Dataset test = dlbench::data::synthetic_mnist(opt).test;
  s.synth_s = seconds_since(t0);

  s.model = fw::make_predictor(predictor_config(seed));
  const Device cpu = Device::cpu();
  for (std::int64_t i = 0; i < test.size(); ++i) {
    const Tensor x = test.sample(i);  // [1, C, H, W]
    s.expected.push_back(
        dlbench::tensor::argmax_row(s.model.forward(x, cpu), 0));
    s.inputs.push_back(x.reshape(pinned_server_options().sample_shape));
  }
  s.batch8 = head_rows(test.images, 8);
  s.server =
      std::make_unique<serve::ModelServer>(s.model, pinned_server_options());
  return s;
}

struct PhaseResult {
  std::vector<double> latency_ms;  // ok requests, from scheduled send time
  std::vector<double> late_ms;     // how late each send was
  std::vector<double> submit_us;   // ModelServer::submit call time
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_size;
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;      // any status but kOk
  std::int64_t mismatched = 0;  // ok, but not the single-sample label
  std::int64_t rejected = 0;
  std::int64_t backlog = 0;     // queue depth when sending stopped
  double busy_s = 0.0;          // replica busy time during the phase
  double wall_s = 0.0;

};

// Open-loop Poisson load at `rate` for `seconds`, on an absolute
// schedule; blocks until every request has resolved.
PhaseResult run_phase(ServeSetup& s, double rate, double seconds,
                      dlbench::util::Rng& rng, Tracer& tracer,
                      std::int64_t& next_id) {
  struct Pending {
    std::future<serve::Prediction> future;
    std::size_t input;
    Clock::time_point scheduled, sent, submitted;
    std::int64_t id;
  };
  serve::ModelServer& server = *s.server;
  const serve::ServerStats before = server.stats();
  PhaseResult r;
  std::vector<Pending> pending;
  pending.reserve(static_cast<std::size_t>(rate * seconds * 1.2) + 16);

  const auto start = Clock::now();
  const auto stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto next = start;
  while (next < stop) {
    std::this_thread::sleep_until(next);
    const std::size_t input = rng.uniform_index(s.inputs.size());
    const auto sent = Clock::now();
    auto future = server.submit(s.inputs[input]);
    const auto submitted = Clock::now();
    pending.push_back({std::move(future), input, next, sent, submitted,
                       next_id++});
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(serve::poisson_gap_s(rng, rate)));
  }
  r.backlog = static_cast<std::int64_t>(server.queue_depth());
  r.wall_s = seconds_since(start);

  for (Pending& p : pending) {
    const serve::Prediction pred = p.future.get();
    ++r.issued;
    r.late_ms.push_back(1e3 * seconds_between(p.scheduled, p.sent));
    r.submit_us.push_back(1e6 * seconds_between(p.sent, p.submitted));
    if (pred.status != serve::RequestStatus::kOk) {
      ++r.failed;
      continue;
    }
    ++r.ok;
    if (pred.label != s.expected[p.input]) ++r.mismatched;
    const auto done =
        p.sent + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(pred.total_s));
    r.latency_ms.push_back(1e3 * seconds_between(p.scheduled, done));
    r.queue_wait_ms.push_back(1e3 * pred.queue_wait_s);
    r.batch_size.push_back(static_cast<double>(pred.batch_size));
    const std::int64_t uid = tracer.add("loadgen.request", p.id, p.scheduled,
                                        done);
    tracer.add_child("serve.submit", p.id, uid, p.sent, p.submitted);
  }
  const serve::ServerStats after = server.stats();
  r.busy_s = after.busy_s - before.busy_s;
  r.rejected = after.rejected - before.rejected;
  return r;
}

void account(const PhaseResult& r, Outcome& out) {
  out.attempted += r.issued;
  out.failed += r.failed;
  out.check(r.mismatched == 0, std::to_string(r.mismatched) +
                                   " served labels differ from the "
                                   "single-sample forward");
}

// Completions per second over one window of kPeakWindowSeconds, with
// kInFlight requests outstanding: each time the oldest request resolves,
// the next one is sent. The window opens once the loop has cycled every
// slot, and every request is resolved when it returns.
double peak_window(ServeSetup& s, dlbench::util::Rng& rng, Outcome& out) {
  std::deque<std::pair<std::future<serve::Prediction>, std::size_t>> inflight;
  auto send = [&] {
    const std::size_t input = rng.uniform_index(s.inputs.size());
    inflight.emplace_back(s.server->submit(s.inputs[input]), input);
  };
  std::int64_t completed = 0, failed = 0, mismatched = 0;
  auto resolve = [&] {
    const serve::Prediction pred = inflight.front().first.get();
    const std::size_t input = inflight.front().second;
    inflight.pop_front();
    if (pred.status != serve::RequestStatus::kOk)
      ++failed;
    else if (pred.label != s.expected[input])
      ++mismatched;
    ++completed;
  };
  for (int i = 0; i < kInFlight; ++i) send();
  for (int i = 0; i < kInFlight; ++i) {
    resolve();
    send();
  }
  const std::int64_t before = completed;
  const auto start = Clock::now();
  double window_s = 0.0;
  while (window_s < kPeakWindowSeconds) {
    resolve();
    send();
    window_s = seconds_since(start);
  }
  const double rate = static_cast<double>(completed - before) / window_s;
  while (!inflight.empty()) resolve();
  out.attempted += completed;
  out.failed += failed;
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " served labels differ from the "
                                 "single-sample forward");
  return rate;
}

void record_counters(const serve::ServerStats& st, Outcome& out) {
  out.counter("serve.submitted", static_cast<double>(st.submitted));
  out.counter("serve.completed", static_cast<double>(st.completed));
  out.counter("serve.rejected", static_cast<double>(st.rejected));
  out.counter("serve.batches", static_cast<double>(st.batches));
  out.counter("serve.mean_batch_size", st.mean_batch_size());
  out.counter("serve.busy_s", st.busy_s);
  out.counter("serve.max_queue_depth", static_cast<double>(st.max_queue_depth));
  out.counter("serve.plan_arena_bytes",
              static_cast<double>(st.plan_arena_bytes));
  out.counter("serve.latency.total_p99_s", st.latency.total.percentile(99));
  out.counter("serve.latency.forward_p50_s", st.latency.forward.percentile(50));
}

void run_end_to_end(const Options& options, Outcome& out) {
  MetricTable table(end_to_end_schema());
  auto [s, setup_s] = timed_setup([&] { return make_setup(options.seed); });
  table.set("setup_s", setup_s);

  Tracer off(false);
  dlbench::util::Rng rng(derive_seed(options.seed, 4));
  std::int64_t next_id = 0;
  // Warm-up (plans seal, caches fill); not measured.
  account(run_phase(s, kHighRps, 0.3, rng, off, next_id), out);

  // Each fixed-rate window is followed by one peak-throughput window, so
  // both sample the whole run.
  struct Window {
    double p50, p90, infer, late;
  };
  std::vector<Window> all;
  std::vector<double> peak;
  const int windows =
      std::max(4, static_cast<int>(0.6 * options.seconds / kWindowSeconds));
  for (int w = 0; w < windows; ++w) {
    const PhaseResult r =
        run_phase(s, kHighRps, kWindowSeconds, rng, off, next_id);
    account(r, out);
    peak.push_back(peak_window(s, rng, out));
    all.push_back({percentile(r.latency_ms, 50), percentile(r.latency_ms, 90),
                   static_cast<double>(r.ok) / r.busy_s,
                   percentile(r.late_ms, 99)});
    std::cout << "window " << w << ": p50 " << all.back().p50 << " ms, p90 "
              << all.back().p90 << " ms, generator late p99 "
              << all.back().late << " ms\n";
  }
  // A window in which the generator itself fell behind its schedule was
  // disturbed by the host, so its numbers are not valid for the server.
  // The valid windows are kept, but never fewer than the quarter in which
  // the generator was least late.
  std::stable_sort(all.begin(), all.end(), [](const Window& a, const Window& b) {
    return a.late < b.late;
  });
  const auto valid = std::count_if(all.begin(), all.end(), [](const Window& w) {
    return w.late <= kMaxLateMs;
  });
  const std::size_t kept = std::max<std::size_t>(
      static_cast<std::size_t>(valid), all.size() / 4);
  std::vector<double> p50, p90, infer;
  for (std::size_t i = 0; i < kept; ++i) {
    p50.push_back(all[i].p50);
    p90.push_back(all[i].p90);
    infer.push_back(all[i].infer);
  }
  std::cout << "valid windows: " << valid << " of " << windows << ", kept "
            << kept << "\n";
  std::cout << "peak throughput per window (r/s):";
  for (const double r : peak) std::cout << " " << r;
  std::cout << "\n";

  table.set("throughput_per_s", percentile(peak, 75));
  table.set("latency_p50_ms", percentile(p50, 25));
  table.set("latency_tail_ms", percentile(p90, 25));
  table.set("infer_per_s", percentile(infer, 75));
  table.set("peak_rss_mib", peak_rss_mib());
  s.server->shutdown(true);
  table.emit(out, /*require_all=*/true);
}

// conv2d_forward per conv layer and matmul at the first fc layer, at
// batch 8 on the serial device: the kernels a serving forward runs
// (TF-MNIST's convs are followed by ReLU, which serving fuses).
void kernel_probe(const ServeSetup& s, std::uint64_t seed, Tracer& tracer,
                  MetricTable& table) {
  const fw::PredictorConfig config = predictor_config(seed);
  const auto framework = fw::make_framework(config.framework);
  dlbench::util::Rng rng(config.seed);
  nn::Sequential model = framework->build_model(
      fw::default_network_spec(config.framework, config.dataset),
      config.device, rng);
  nn::Context ctx;
  ctx.device = config.device;
  double conv_flops = 0.0, matmul_flops = 0.0;
  int convs = 0;
  for (int r = 0; r < 20; ++r) {
    Tensor h = s.batch8;
    bool matmul_done = false;
    convs = 0;
    for (std::size_t i = 0; i < model.size(); ++i) {
      nn::Layer& layer = model.layer(i);
      if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
        const auto& g = conv->geom();
        auto span =
            tracer.span("tensor.conv_fwd." + std::to_string(convs++), r);
        (void)dlbench::tensor::conv2d_forward(h, conv->weight(), conv->bias(),
                                              g, ctx.device, true);
        if (r == 0)
          conv_flops += 2.0 * 8 * static_cast<double>(g.out_c) *
                        static_cast<double>(g.out_h() * g.out_w()) *
                        static_cast<double>(g.patch_size());
      } else if (const Tensor* w = fc_weight(layer); w && !matmul_done) {
        auto span = tracer.span("tensor.matmul", r);
        (void)dlbench::tensor::matmul(h, *w, ctx.device);
        if (r == 0)
          matmul_flops = 2.0 * 8 * static_cast<double>(w->dim(0)) *
                         static_cast<double>(w->dim(1));
        matmul_done = true;
      }
      h = layer.forward(h, ctx);
    }
  }
  // Per forward pass: the sum over conv layers of their median times.
  double conv_ms = 0.0;
  for (int k = 0; k < convs; ++k)
    conv_ms += tracer.median_ms("tensor.conv_fwd." + std::to_string(k));
  table.set("tensor.conv_fwd_ms", conv_ms);
  table.set("tensor.conv_fwd_gflops", conv_flops / (conv_ms * 1e6));
  table.set("tensor.matmul_gflops",
            matmul_flops / (tracer.median_ms("tensor.matmul") * 1e6));
}

void run_traced(const Options& options, Outcome& out) {
  MetricTable table(per_layer_schema());
  Tracer tracer(true);
  ServeSetup s = make_setup(options.seed);
  table.set("data.synth_s", s.synth_s);
  frozen_probe(s.model, s.batch8, Device::cpu(), 50, tracer, table);
  kernel_probe(s, options.seed, tracer, table);
  pool_probe(200, tracer, table);

  dlbench::util::Rng rng(derive_seed(options.seed, 4));
  std::int64_t next_id = 0;
  tracer.set_enabled(false);
  account(run_phase(s, kHighRps, 0.3, rng, tracer, next_id), out);
  const PhaseResult untraced =
      run_phase(s, kHighRps, 0.2 * options.seconds, rng, tracer, next_id);
  account(untraced, out);
  tracer.set_enabled(true);
  const PhaseResult low =
      run_phase(s, kLowRps, 0.35 * options.seconds, rng, tracer, next_id);
  account(low, out);
  const PhaseResult high =
      run_phase(s, kHighRps, 0.2 * options.seconds, rng, tracer, next_id);
  account(high, out);

  std::vector<double> late = low.late_ms;
  late.insert(late.end(), high.late_ms.begin(), high.late_ms.end());
  table.set("loadgen.late_p99_ms", percentile(late, 99));
  table.set("serve.low_p50_ms", percentile(low.latency_ms, 50));
  table.set("serve.low_p99_ms", percentile(low.latency_ms, 99));
  table.set("serve.submit_us", median(high.submit_us));
  table.set("serve.queue_wait_ms.p50", percentile(high.queue_wait_ms, 50));
  table.set("serve.queue_wait_ms.p99", percentile(high.queue_wait_ms, 99));
  table.set("serve.batch_mean", mean(high.batch_size));
  table.set("serve.busy_share",
            high.busy_s / (pinned_server_options().replicas * high.wall_s));
  table.set("serve.rejected", static_cast<double>(high.rejected));
  table.set("serve.failed", static_cast<double>(high.failed));

  const serve::ServerStats stats = s.server->stats();
  record_counters(stats, out);
  table.set("nn.arena_mib",
            static_cast<double>(stats.plan_arena_bytes) / (1 << 20));
  s.server->shutdown(true);
  finish_trace(options, tracer, percentile(untraced.latency_ms, 50),
               percentile(high.latency_ms, 50), table, out);
}

}  // namespace

void run_serve_mnist(const Options& options, Outcome& out) {
  if (options.trace)
    run_traced(options, out);
  else
    run_end_to_end(options, out);
}

}  // namespace perfbench
