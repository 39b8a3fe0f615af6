#include "serve/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <utility>

#include "runtime/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::serve {

namespace {

using runtime::now_ns;
using runtime::seconds_since;

// The open-loop schedule's time points, for sleep_until.
using Clock = std::chrono::steady_clock;

/// Per-thread tallies, merged after the run (no locking while driving).
struct ClientTally {
  /// Wall clock of the *dispatch* window, excluding the final drain of
  /// in-flight futures — offered load is issued / this, else an
  /// overloaded server's slow drain would deflate the offered rate it
  /// was in fact subjected to.
  double dispatch_s = 0.0;
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;
  std::int64_t shutdown = 0;
  std::int64_t expired = 0;
  std::int64_t errors = 0;
  std::int64_t shed = 0;
  std::int64_t retried = 0;
  std::int64_t hedged = 0;
  std::int64_t corrupted = 0;
  std::int64_t batch_sum = 0;
  runtime::LatencyHistogram latency;
  runtime::LatencyHistogram queue_wait;
  std::vector<LoadGenResult::Sample> samples;

  void absorb(const Prediction& p, double issue_offset_s,
              bool record_sample) {
    switch (p.status) {
      case RequestStatus::kOk:
        ++ok;
        batch_sum += p.batch_size;
        latency.record_s(p.total_s);
        queue_wait.record_s(p.queue_wait_s);
        if (p.attempts > 1) ++retried;
        if (p.hedged) ++hedged;
        // Integrity check: an uncorrupted softmax row sums to ~1.
        if (!p.probabilities.empty()) {
          double sum = 0.0;
          for (const float v : p.probabilities) sum += v;
          if (sum > 1.5 || sum < 0.5) ++corrupted;
        }
        break;
      case RequestStatus::kRejected:
        ++rejected;
        break;
      case RequestStatus::kShutdown:
        ++shutdown;
        break;
      case RequestStatus::kExpired:
        ++expired;
        break;
      case RequestStatus::kError:
        ++errors;
        break;
      case RequestStatus::kShed:
        ++shed;
        break;
    }
    if (record_sample)
      samples.push_back({issue_offset_s, p.total_s, p.status});
  }

  void merge(const ClientTally& other) {
    issued += other.issued;
    ok += other.ok;
    rejected += other.rejected;
    shutdown += other.shutdown;
    expired += other.expired;
    errors += other.errors;
    shed += other.shed;
    retried += other.retried;
    hedged += other.hedged;
    corrupted += other.corrupted;
    batch_sum += other.batch_sum;
    latency.merge(other.latency);
    queue_wait.merge(other.queue_wait);
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  }
};

ClientTally run_closed(ModelServer& server,
                       const std::vector<tensor::Tensor>& inputs,
                       const LoadGenOptions& options) {
  const int clients = std::max(1, options.clients);
  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  util::Rng seeder(options.seed);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.duration_s * 1e9);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c, rng = seeder.fork()]() mutable {
      ClientTally& tally = tallies[static_cast<std::size_t>(c)];
      SubmitOptions submit_options;
      submit_options.deadline_s = options.deadline_s;
      while (now_ns() < deadline) {
        const auto& input = inputs[rng.uniform_index(inputs.size())];
        submit_options.slo =
            options.low_priority_fraction > 0.0 &&
                    rng.bernoulli(options.low_priority_fraction)
                ? SloClass::kBronze
                : SloClass::kSilver;
        const double offset_s = seconds_since(start);
        ++tally.issued;
        tally.absorb(server.predict(input, submit_options), offset_s,
                     options.record_samples);
      }
    });
  }
  for (auto& t : threads) t.join();
  ClientTally total;
  for (const auto& tally : tallies) total.merge(tally);
  total.dispatch_s = seconds_since(start);
  return total;
}

ClientTally run_open(ModelServer& server,
                     const std::vector<tensor::Tensor>& inputs,
                     const LoadGenOptions& options) {
  DLB_CHECK(options.offered_rps > 0.0,
            "open-loop load needs offered_rps > 0");
  util::Rng rng(options.seed);
  ClientTally tally;
  std::vector<std::future<Prediction>> futures;
  std::vector<double> issue_offsets;
  futures.reserve(
      options.max_requests > 0
          ? static_cast<std::size_t>(options.max_requests)
          : static_cast<std::size_t>(options.offered_rps *
                                     options.duration_s) + 16);

  // Poisson process: exponential inter-arrival gaps at the offered
  // rate, dispatched on an absolute schedule (next += gap) so transient
  // stalls don't silently lower the offered load — the open-loop
  // discipline is the whole point. With max_requests set, the run is
  // count-bound instead of time-bound (fixed request-id set ⇒
  // deterministic fault decisions, see LoadGenOptions).
  SubmitOptions submit_options;
  submit_options.deadline_s = options.deadline_s;
  const std::int64_t start_ns = now_ns();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));
  auto next = start;
  while (options.max_requests > 0 ? tally.issued < options.max_requests
                                  : next < deadline) {
    std::this_thread::sleep_until(next);
    const auto& input = inputs[rng.uniform_index(inputs.size())];
    submit_options.slo =
        options.low_priority_fraction > 0.0 &&
                rng.bernoulli(options.low_priority_fraction)
            ? SloClass::kBronze
            : SloClass::kSilver;
    ++tally.issued;
    if (options.record_samples)
      issue_offsets.push_back(seconds_since(start_ns));
    futures.push_back(server.submit(input, submit_options));
    const double gap_s = poisson_gap_s(rng, options.offered_rps);
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap_s));
  }
  tally.dispatch_s = seconds_since(start_ns);
  for (std::size_t i = 0; i < futures.size(); ++i)
    tally.absorb(futures[i].get(),
                 options.record_samples ? issue_offsets[i] : 0.0,
                 options.record_samples);
  return tally;
}

}  // namespace

double poisson_gap_s(double u, double rate_rps) {
  DLB_CHECK(rate_rps > 0.0, "Poisson rate must be positive");
  // Clamp u strictly below 1: -log(1-u) diverges there. Our xoshiro
  // uniform() is [0, 1), but the sampler must stay safe for any
  // conforming uniform source (std ones may return 1.0 exactly).
  constexpr double kMaxU = 1.0 - 1e-12;
  u = std::min(std::max(u, 0.0), kMaxU);
  return -std::log(1.0 - u) / rate_rps;
}

double poisson_gap_s(util::Rng& rng, double rate_rps) {
  return poisson_gap_s(rng.uniform(), rate_rps);
}

const char* to_string(LoadGenOptions::Mode mode) {
  switch (mode) {
    case LoadGenOptions::Mode::kOpenLoop:
      return "open";
    case LoadGenOptions::Mode::kClosedLoop:
      return "closed";
  }
  return "unknown";
}

std::vector<MixedArrival> make_mixed_trace(
    const std::vector<TenantStream>& streams, double duration_s,
    std::uint64_t seed, std::int64_t max_arrivals) {
  DLB_CHECK(!streams.empty(), "make_mixed_trace needs at least one stream");
  DLB_CHECK(duration_s > 0.0 || max_arrivals > 0,
            "make_mixed_trace needs duration_s or max_arrivals");
  util::Rng seeder(seed);
  std::vector<MixedArrival> trace;
  for (int i = 0; i < static_cast<int>(streams.size()); ++i) {
    // One fork per stream, taken in index order, whether or not the
    // stream produces arrivals — stream i's schedule is a function of
    // (seed, i) only, never of its neighbours' rates.
    util::Rng rng = seeder.fork();
    const double rate = streams[static_cast<std::size_t>(i)].offered_rps;
    DLB_CHECK(rate > 0.0, "TenantStream::offered_rps must be positive");
    // No stream needs more than max_arrivals of its own arrivals: the
    // final merged prefix can't contain more than that from any one
    // stream, and capping per stream (not globally) keeps the bounded
    // trace an exact prefix of the unbounded one.
    std::int64_t produced = 0;
    double t = poisson_gap_s(rng, rate);
    while ((duration_s <= 0.0 || t < duration_s) &&
           (max_arrivals <= 0 || produced < max_arrivals)) {
      trace.push_back({t, i});
      ++produced;
      t += poisson_gap_s(rng, rate);
    }
  }
  // Stable sort keeps equal-time arrivals in stream-index order — the
  // merge is a pure function of the per-stream schedules.
  std::stable_sort(trace.begin(), trace.end(),
                   [](const MixedArrival& a, const MixedArrival& b) {
                     return a.t_s < b.t_s ||
                            (a.t_s == b.t_s && a.stream < b.stream);
                   });
  if (max_arrivals > 0 &&
      static_cast<std::int64_t>(trace.size()) > max_arrivals)
    trace.resize(static_cast<std::size_t>(max_arrivals));
  return trace;
}

LoadGenResult run_load(ModelServer& server,
                       const std::vector<tensor::Tensor>& inputs,
                       const LoadGenOptions& options) {
  DLB_CHECK(!inputs.empty(), "run_load needs at least one input sample");
  DLB_CHECK(options.duration_s > 0.0, "run_load needs duration_s > 0");

  const std::int64_t start = now_ns();
  const ClientTally tally = options.mode == LoadGenOptions::Mode::kOpenLoop
                                ? run_open(server, inputs, options)
                                : run_closed(server, inputs, options);
  const double wall_s = seconds_since(start);

  LoadGenResult result;
  result.duration_s = wall_s;
  result.issued = tally.issued;
  result.ok = tally.ok;
  result.rejected = tally.rejected;
  result.shutdown = tally.shutdown;
  result.expired = tally.expired;
  result.errors = tally.errors;
  result.shed = tally.shed;
  result.retried = tally.retried;
  result.hedged = tally.hedged;
  result.corrupted = tally.corrupted;
  result.samples = std::move(tally.samples);
  result.offered_rps = static_cast<double>(tally.issued) / tally.dispatch_s;
  result.achieved_rps = static_cast<double>(tally.ok) / wall_s;
  result.latency = tally.latency;
  result.queue_wait = tally.queue_wait;
  result.mean_batch =
      tally.ok > 0 ? static_cast<double>(tally.batch_sum) /
                         static_cast<double>(tally.ok)
                   : 0.0;
  return result;
}

}  // namespace dlbench::serve
