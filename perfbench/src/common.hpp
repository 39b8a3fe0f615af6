#pragma once

// Shared pieces of the benchmark driver: run options, the result record
// printed as the last line, order statistics, the span recorder used by
// traced runs, and the environment pin.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for trace files (relative to the working directory).
  std::string out_dir = ".bench_out";
};

/// What one run prints: correctness, operation counts and metrics in
/// insertion order. Cross-check counters go to the trace file only.
class Outcome {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  void counter(const std::string& name, double value);

  bool correct() const { return errors_.empty(); }
  const std::vector<std::pair<std::string, double>>& counters() const {
    return counters_;
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// One metric per line ("name value unit"), then the JSON result line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, double>> counters_;
};

/// Nearest-rank percentile of `values` (p in [0, 100]); NaN when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Runs `make` at least three times and until a second has passed (at
/// most nine times), keeping only the last state alive; returns it with
/// the median set-up time in seconds.
template <class F>
auto timed_setup(F make) {
  std::optional<decltype(make())> state;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 9 && (times.size() < 3 || total < 1.0)) {
    state.reset();
    const auto t0 = Clock::now();
    state.emplace(make());
    times.push_back(seconds_since(t0));
    total += times.back();
  }
  return std::make_pair(std::move(*state), median(times));
}

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// Refuses DLB_* variables that change what a workload runs; returns
/// the offending names (empty when the environment is clean).
std::vector<std::string> forbidden_env();

/// Machine and build record printed with every result, as JSON.
std::string fingerprint_json();

/// In-memory span recorder for traced runs. Spans carry a name, start
/// and end, the enclosing span on the same thread, and a shared id per
/// step, request or attack. A disabled recorder records nothing, which
/// is how the same code runs untraced.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t id = 0;
    std::int64_t uid = 0;
    std::int64_t parent = -1;  // uid of the enclosing span, -1 at top
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::int64_t id);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;  // null when disabled
    Record record_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  Scope span(std::string name, std::int64_t id = 0) {
    return Scope(enabled_ ? this : nullptr, std::move(name), id);
  }
  /// Adds a span measured elsewhere (e.g. a request from its scheduled
  /// send time to its completion), as a top-level span; returns its uid.
  std::int64_t add(std::string name, std::int64_t id, Clock::time_point start,
                   Clock::time_point end);
  /// Adds a span under `parent` (a uid returned by add()).
  void add_child(std::string name, std::int64_t id, std::int64_t parent,
                 Clock::time_point start, Clock::time_point end);

  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  double median_ms(const std::string& name) const;

  struct Summary {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus time covered by child spans
    double median_ms = 0.0;
  };
  std::map<std::string, Summary> summarize() const;

  /// Writes spans, per-name self times and `counters` as JSON.
  void write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed,
                  const std::vector<std::pair<std::string, double>>& counters)
      const;

 private:
  void push(Record record);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

/// A fixed, ordered set of metric names and units. Every run prints the
/// whole set: the end-to-end set on untraced runs, the per-layer set on
/// traced runs. Setting a name outside the set throws, so a typo cannot
/// silently drop a metric.
class MetricTable {
 public:
  struct Entry {
    const char* name;
    const char* unit;
  };
  explicit MetricTable(const std::vector<Entry>& schema);

  void set(const std::string& name, double value);
  /// Copies every metric into `out`. With `require_all`, a metric never
  /// set fails the run; otherwise it prints as 0 (layer not exercised).
  void emit(Outcome& out, bool require_all) const;

 private:
  std::vector<Entry> schema_;
  std::map<std::string, double> values_;
};

/// The benchmark's metric sets (BENCHMARK.json lists the same names).
const std::vector<MetricTable::Entry>& end_to_end_schema();
const std::vector<MetricTable::Entry>& per_layer_schema();

void run_train_mnist(const Options& options, Outcome& out);
void run_train_cifar_dp(const Options& options, Outcome& out);
void run_serve_mnist(const Options& options, Outcome& out);
void run_craft_mnist(const Options& options, Outcome& out);

/// Seeds derived from --seed for one purpose (data, model, load, ...).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
