#include "runtime/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_set>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace dlbench::runtime::trace {

using util::env_i64;

TraceOptions TraceOptions::from_env() {
  TraceOptions opts;
  opts.armed = env_i64("DLB_TRACE", 0) != 0;
  if (const char* raw = std::getenv("DLB_TRACE_OUT"); raw && *raw)
    opts.out_path = raw;
  opts.print_summary = env_i64("DLB_TRACE_SUMMARY", 0) != 0;
  opts.max_events_per_thread =
      env_i64("DLB_TRACE_EVENT_CAP", opts.max_events_per_thread);
  return opts;
}

double TraceReport::total_for(const std::string& name) const {
  double total = 0.0;
  for (const SpanStat& s : spans)
    if (s.name == name) total += s.total_s;
  return total;
}

double TraceReport::category_total(const std::string& category) const {
  double total = 0.0;
  for (const SpanStat& s : spans)
    if (s.category == category) total += s.total_s;
  return total;
}

std::string TraceReport::summary_table() const {
  std::ostringstream os;
  util::Table span_table(
      {"Span", "Category", "Count", "Total (s)", "Mean (ms)", "Max (ms)"});
  span_table.set_title("Trace spans");
  for (const SpanStat& s : spans) {
    const double mean_ms =
        s.count > 0 ? 1e3 * s.total_s / static_cast<double>(s.count) : 0.0;
    span_table.add_row({s.name, s.category, std::to_string(s.count),
                        util::format_fixed(s.total_s, 4),
                        util::format_fixed(mean_ms, 3),
                        util::format_fixed(1e3 * s.max_s, 3)});
  }
  os << span_table.to_string();
  if (!counters.empty()) {
    util::Table counter_table({"Counter", "Value", "Peak", "Samples"});
    counter_table.set_title("Trace counters");
    for (const CounterStat& c : counters)
      counter_table.add_row({c.name, std::to_string(c.value),
                             std::to_string(c.peak),
                             std::to_string(c.samples)});
    os << counter_table.to_string();
  }
  if (dropped_events > 0)
    os << "(" << dropped_events << " span events dropped: buffer cap)\n";
  return os.str();
}

namespace {

std::uint64_t next_gen() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

struct SpanEvent {
  const char* name;
  const char* category;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

// Counters and gauges share one cell type; `is_gauge` picks the merge
// rule (sum-of-sums vs last/peak).
struct CounterCell {
  const char* name;
  bool is_gauge;
  std::int64_t sum = 0;   // counters: running sum; gauges: last value
  std::int64_t peak = 0;  // gauges: max observed
  std::int64_t samples = 0;
};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanEvent> spans;
  std::vector<CounterCell> counters;  // tiny; linear scan by name pointer
  std::int64_t dropped = 0;
};

}  // namespace

struct TraceScope::State {
  explicit State(TraceOptions opts)
      : options(std::move(opts)), epoch_ns(now_ns()) {}

  const TraceOptions options;
  const std::int64_t epoch_ns;
  /// Process-unique scope id. Thread-local buffer caches key off this
  /// rather than the State address: a new scope can be allocated at a
  /// freed scope's address, and an address-keyed cache would then hand
  /// back a dangling buffer from the dead scope.
  const std::uint64_t gen = next_gen();
  // Guards buffer registration and flush-time aggregation. Event
  // recording itself is lock-free: each thread appends to its own
  // buffer.
  mutable std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
};

namespace detail {

// Active scope, one inlined load on the disabled fast path (see
// header). The owning TraceScope outlives every event it can record.
std::atomic<void*> g_active{nullptr};

}  // namespace detail

namespace {

using State = TraceScope::State;

State* active_state() {
  return static_cast<State*>(detail::g_active.load(std::memory_order_acquire));
}

// Per-thread buffer cache, re-registered when the active scope changes.
// Keyed by the scope's generation id, not its address — see State::gen.
struct TlsSlot {
  std::uint64_t gen = 0;
  ThreadBuffer* buffer = nullptr;
};
thread_local TlsSlot tls_slot;

ThreadBuffer* buffer_for(State* s) {
  if (tls_slot.gen == s->gen) return tls_slot.buffer;
  std::lock_guard<std::mutex> lock(s->mu);
  s->buffers.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buf = s->buffers.back().get();
  buf->tid = s->next_tid++;
  tls_slot.gen = s->gen;
  tls_slot.buffer = buf;
  return buf;
}

CounterCell& cell_for(ThreadBuffer& buf, const char* name, bool is_gauge) {
  for (CounterCell& c : buf.counters)
    if (c.name == name) return c;
  buf.counters.push_back(CounterCell{name, is_gauge});
  return buf.counters.back();
}

}  // namespace

TraceScope::TraceScope(TraceOptions options)
    : state_(std::make_shared<State>(std::move(options))) {
  void* expected = nullptr;
  DLB_CHECK(detail::g_active.compare_exchange_strong(
                expected, state_.get(), std::memory_order_release),
            "a TraceScope is already active; scopes cannot nest");
}

TraceScope::~TraceScope() {
  detail::g_active.store(nullptr, std::memory_order_release);
  if (!state_->options.out_path.empty())
    write_chrome_json(state_->options.out_path);
  if (state_->options.print_summary)
    std::fputs(report().summary_table().c_str(), stdout);
}

const char* intern(const std::string& name) {
  static std::mutex mu;
  static std::unordered_set<std::string> pool;
  std::lock_guard<std::mutex> lock(mu);
  return pool.insert(name).first->c_str();
}

void detail::record_span_slow(const char* name, const char* category,
                              std::int64_t start_ns, std::int64_t end_ns) {
  State* s = active_state();
  if (!s || s->epoch_ns > start_ns) return;  // scope changed mid-span
  ThreadBuffer* buf = buffer_for(s);
  if (static_cast<std::int64_t>(buf->spans.size()) >=
      s->options.max_events_per_thread) {
    ++buf->dropped;
    return;
  }
  buf->spans.push_back(SpanEvent{name, category, start_ns,
                                 std::max<std::int64_t>(0, end_ns - start_ns)});
}

void detail::counter_add_slow(const char* name, std::int64_t delta) {
  State* s = active_state();
  if (!s) return;
  CounterCell& cell = cell_for(*buffer_for(s), name, /*is_gauge=*/false);
  cell.sum += delta;
  ++cell.samples;
}

void detail::gauge_record_slow(const char* name, std::int64_t value) {
  State* s = active_state();
  if (!s) return;
  CounterCell& cell = cell_for(*buffer_for(s), name, /*is_gauge=*/true);
  cell.sum = value;
  cell.peak = std::max(cell.peak, value);
  ++cell.samples;
}

TraceReport TraceScope::report() const {
  TraceReport out;
  std::map<std::pair<std::string, std::string>, SpanStat> span_agg;
  std::map<std::string, CounterStat> counter_agg;

  std::lock_guard<std::mutex> lock(state_->mu);
  for (const auto& buf : state_->buffers) {
    out.dropped_events += buf->dropped;
    for (const SpanEvent& e : buf->spans) {
      SpanStat& stat = span_agg[{e.name, e.category}];
      if (stat.count == 0) {
        stat.name = e.name;
        stat.category = e.category;
        stat.min_s = stat.max_s = 1e-9 * static_cast<double>(e.dur_ns);
      }
      const double dur_s = 1e-9 * static_cast<double>(e.dur_ns);
      ++stat.count;
      stat.total_s += dur_s;
      stat.min_s = std::min(stat.min_s, dur_s);
      stat.max_s = std::max(stat.max_s, dur_s);
    }
    for (const CounterCell& c : buf->counters) {
      CounterStat& stat = counter_agg[c.name];
      stat.name = c.name;
      if (c.is_gauge) {
        // Cross-thread gauge: report the largest last-value as `value`
        // and the overall peak.
        stat.value = std::max(stat.value, c.sum);
        stat.peak = std::max(stat.peak, c.peak);
      } else {
        stat.value += c.sum;
        stat.peak = stat.value;
      }
      stat.samples += c.samples;
    }
  }
  for (auto& [key, stat] : span_agg) out.spans.push_back(std::move(stat));
  std::sort(out.spans.begin(), out.spans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              return a.total_s > b.total_s;
            });
  for (auto& [name, stat] : counter_agg)
    out.counters.push_back(std::move(stat));
  return out;
}

std::string TraceScope::chrome_json() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(state_->mu);
  for (const auto& buf : state_->buffers) {
    for (const SpanEvent& e : buf->spans) {
      if (!first) os << ",";
      first = false;
      // Complete ("X") events, timestamps in microseconds relative to
      // scope activation.
      os << "\n{\"name\":" << util::json::quoted(e.name)
         << ",\"cat\":" << util::json::quoted(e.category)
         << ",\"ph\":\"X\",\"ts\":"
         << util::format_fixed(
                1e-3 * static_cast<double>(e.start_ns - state_->epoch_ns), 3)
         << ",\"dur\":"
         << util::format_fixed(1e-3 * static_cast<double>(e.dur_ns), 3)
         << ",\"pid\":1,\"tid\":" << buf->tid << "}";
    }
  }
  // Final counter/gauge values as a single trailing "C" event each.
  for (const auto& buf : state_->buffers) {
    for (const CounterCell& c : buf->counters) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":" << util::json::quoted(c.name)
         << ",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"tid\":" << buf->tid
         << ",\"args\":{\"value\":" << c.sum << "}}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

void TraceScope::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return;  // tracing must never fail a run over an fs error
  out << chrome_json();
}

}  // namespace dlbench::runtime::trace
