#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "runtime/device.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// Full precision, so no measured digit is lost.
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Spans of one thread nest; this is the open-span stack per thread.
thread_local std::vector<std::int64_t> t_open_spans;
std::atomic<std::int64_t> g_next_uid{0};

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

// ---- Outcome ----------------------------------------------------------

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Outcome::counter(const std::string& name, double value) {
  counters_.emplace_back(name, value);
}

void Outcome::print() const {
  for (const auto& e : errors_) std::cout << "CHECK FAILED: " << e << "\n";
  for (const auto& m : metrics_)
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(metrics_[i].name)
       << "\": {\"value\": " << json_number(metrics_[i].value)
       << ", \"unit\": \"" << json_escape(metrics_[i].unit) << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- statistics -------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[idx];
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::string> forbidden_env() {
  static const char* const kPrefixes[] = {"DLB_FAULT_", "DLB_CHAOS_",
                                          "DLB_TRACE",  "DLB_STEP_CAP",
                                          "DLB_PLAN",   "DLB_DP_"};
  std::vector<std::string> bad;
  for (char** e = environ; e && *e; ++e) {
    const std::string entry(*e);
    const std::string name = entry.substr(0, entry.find('='));
    for (const char* prefix : kPrefixes)
      if (name.rfind(prefix, 0) == 0) bad.push_back(name);
  }
  return bad;
}

std::string fingerprint_json() {
  using dlbench::runtime::active_simd_level;
  using dlbench::runtime::simd_level_name;
  const char* threads = std::getenv("DLB_THREADS");
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"dlb_threads\": \"" << json_escape(threads ? threads : "")
     << "\", \"simd\": \"" << simd_level_name(active_simd_level())
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\"}";
  return os.str();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent streams per purpose.
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---- MetricTable ------------------------------------------------------

MetricTable::MetricTable(const std::vector<Entry>& schema) : schema_(schema) {}

void MetricTable::set(const std::string& name, double value) {
  if (std::none_of(schema_.begin(), schema_.end(),
                   [&](const Entry& e) { return name == e.name; }))
    throw std::logic_error("unknown metric " + name);
  values_[name] = value;
}

void MetricTable::emit(Outcome& out, bool require_all) const {
  for (const Entry& e : schema_) {
    const auto it = values_.find(e.name);
    if (it == values_.end() && require_all)
      out.check(false, std::string("metric ") + e.name + " was not measured");
    out.metric(e.name, it == values_.end() ? 0.0 : it->second, e.unit);
  }
}

const std::vector<MetricTable::Entry>& end_to_end_schema() {
  static const std::vector<MetricTable::Entry> schema = {
      {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},   {"infer_per_s", "1/s"},
      {"setup_s", "s"},            {"peak_rss_mib", "MiB"},
  };
  return schema;
}

const std::vector<MetricTable::Entry>& per_layer_schema() {
  static const std::vector<MetricTable::Entry> schema = {
      {"data.next_ms", "ms"},
      {"data.synth_s", "s"},
      {"tensor.conv_fwd_ms", "ms"},
      {"tensor.conv_bwd_ms", "ms"},
      {"tensor.conv_fwd_gflops", "GFLOP/s"},
      {"tensor.conv_bwd_gflops", "GFLOP/s"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"nn.fwd_ms.0", "ms"},
      {"nn.fwd_ms.1", "ms"},
      {"nn.fwd_ms.2", "ms"},
      {"nn.fwd_ms.3", "ms"},
      {"nn.fwd_ms.4", "ms"},
      {"nn.bwd_ms.0", "ms"},
      {"nn.bwd_ms.1", "ms"},
      {"nn.bwd_ms.2", "ms"},
      {"nn.bwd_ms.3", "ms"},
      {"nn.bwd_ms.4", "ms"},
      {"nn.forward_loss_ms", "ms"},
      {"nn.backward_ms", "ms"},
      {"nn.frozen_fwd_ms.b1", "ms"},
      {"nn.frozen_fwd_ms.b8", "ms"},
      {"nn.arena_mib", "MiB"},
      {"nn.replayed_steps", "count"},
      {"optim.step_ms", "ms"},
      {"frameworks.step_ms", "ms"},
      {"frameworks.prepare_ms", "ms"},
      {"frameworks.unattributed_share", "share"},
      {"frameworks.eval_batch_ms", "ms"},
      {"frameworks.dp.shard_ms", "ms"},
      {"frameworks.dp.idle_share", "share"},
      {"runtime.comm.reduce_ms", "ms"},
      {"runtime.comm.broadcast_ms", "ms"},
      {"runtime.comm.bytes_per_step", "B"},
      {"runtime.pool.parallel_for_us", "us"},
      {"serve.submit_us", "us"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.busy_share", "share"},
      {"serve.rejected", "count"},
      {"serve.failed", "count"},
      {"serve.low_p50_ms", "ms"},
      {"serve.low_p99_ms", "ms"},
      {"adversarial.fgsm_ms", "ms"},
      {"adversarial.jsma_ms", "ms"},
      {"adversarial.jacobian_ms", "ms"},
      {"adversarial.iterations", "count"},
      {"adversarial.success_share", "share"},
      {"adversarial.screening_s", "s"},
      {"adversarial.engine_idle_share", "share"},
      {"loadgen.late_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return schema;
}

// ---- Tracer -----------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::int64_t id)
    : tracer_(tracer) {
  if (!tracer_) return;
  record_.name = std::move(name);
  record_.id = id;
  record_.uid = g_next_uid.fetch_add(1);
  record_.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  t_open_spans.push_back(record_.uid);
  record_.start_ns = to_ns(Clock::now());
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  record_.end_ns = to_ns(Clock::now());
  t_open_spans.pop_back();
  tracer_->push(std::move(record_));
}

void Tracer::push(Record record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::int64_t Tracer::add(std::string name, std::int64_t id,
                         Clock::time_point start, Clock::time_point end) {
  const std::int64_t uid = g_next_uid.fetch_add(1);
  if (enabled_)
    push({std::move(name), id, uid, -1, to_ns(start), to_ns(end)});
  return uid;
}

void Tracer::add_child(std::string name, std::int64_t id, std::int64_t parent,
                       Clock::time_point start, Clock::time_point end) {
  if (enabled_)
    push({std::move(name), id, g_next_uid.fetch_add(1), parent, to_ns(start),
          to_ns(end)});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_)
    if (r.name == name)
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
  return out;
}

double Tracer::median_ms(const std::string& name) const {
  return median(durations_ms(name));
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::int64_t, double> child_ms;  // parent uid -> sum
  for (const Record& r : records_)
    if (r.parent >= 0)
      child_ms[r.parent] += static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, Summary> out;
  for (const Record& r : records_) {
    const double ms = static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
    Summary& s = out[r.name];
    ++s.count;
    s.total_ms += ms;
    const auto it = child_ms.find(r.uid);
    s.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
    by_name[r.name].push_back(ms);
  }
  for (auto& [name, s] : out) s.median_ms = median(by_name[name]);
  return out;
}

void Tracer::write_json(
    const std::string& path, const std::string& workload, std::uint64_t seed,
    const std::vector<std::pair<std::string, double>>& counters) const {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "perfbench: cannot write trace file " << path << "\n";
    return;
  }
  os << "{\"workload\": \"" << json_escape(workload) << "\", \"seed\": " << seed
     << ", \"fingerprint\": " << fingerprint_json() << ",\n\"self_times\": {";
  bool first = true;
  for (const auto& [name, s] : summarize()) {
    os << (first ? "\n" : ",\n") << "  \"" << json_escape(name)
       << "\": {\"count\": " << s.count
       << ", \"total_ms\": " << json_number(s.total_ms)
       << ", \"self_ms\": " << json_number(s.self_ms)
       << ", \"median_ms\": " << json_number(s.median_ms) << "}";
    first = false;
  }
  os << "},\n\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i)
    os << (i ? ",\n" : "\n") << "  \"" << json_escape(counters[i].first)
       << "\": " << json_number(counters[i].second);
  os << "},\n\"spans\": [";
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i ? ",\n" : "\n") << "  {\"name\": \"" << json_escape(r.name)
       << "\", \"id\": " << r.id << ", \"uid\": " << r.uid
       << ", \"parent\": " << r.parent << ", \"start_ns\": " << r.start_ns
       << ", \"end_ns\": " << r.end_ns << "}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
