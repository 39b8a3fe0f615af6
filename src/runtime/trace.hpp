#pragma once

// Low-overhead tracing and metrics.
//
// The paper's contribution is measurement, so the harness must be able
// to say *where* a cell's wall clock went — per layer, per kernel, per
// training phase — not just how long the cell took. This module
// provides RAII scoped spans recorded into thread-local buffers, plus
// monotonic counters and gauges (tensor allocations, pool queue depth),
// aggregated by an active TraceScope and exportable as a
// chrome://tracing JSON file or a plain-text summary table.
//
// The design mirrors runtime/fault: a TraceScope (RAII, at most one
// active) installs shared state behind a single atomic pointer, and
// every instrumentation point costs one relaxed atomic load when no
// scope is active. A Span given an accumulator times into it with no
// scope active, because the training phase breakdown and the crafting
// times are measured in every run.
//
// Threading contract, same as FaultScope: events may be recorded from
// pool workers, but the scope owner must not destroy the scope (or call
// report()) while instrumented work is in flight. All instrumented
// paths run inside parallel_for extents or on the owner thread, so the
// contract holds by construction in this codebase.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/clock.hpp"

namespace dlbench::runtime::trace {

/// Knobs for one tracing session.
struct TraceOptions {
  /// True when tracing was requested (from_env: DLB_TRACE=1).
  bool armed = true;
  /// chrome://tracing JSON written on scope destruction; "" = none.
  std::string out_path;
  /// Print the summary table to stdout on scope destruction.
  bool print_summary = false;
  /// Per-thread span-event capacity; further events are counted as
  /// dropped instead of growing without bound.
  std::int64_t max_events_per_thread = 1 << 20;

  /// Reads DLB_TRACE (arm), DLB_TRACE_OUT (chrome JSON path),
  /// DLB_TRACE_SUMMARY (print table) and DLB_TRACE_EVENT_CAP.
  static TraceOptions from_env();
};

/// Aggregated statistics for one span name.
struct SpanStat {
  std::string name;
  std::string category;
  std::int64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
};

/// Final value of one counter or gauge.
struct CounterStat {
  std::string name;
  /// Sum of deltas (counters) or last recorded value (gauges).
  std::int64_t value = 0;
  /// Peak value observed (gauges; equals `value` for counters).
  std::int64_t peak = 0;
  std::int64_t samples = 0;
};

/// A detachable aggregation of everything a scope recorded. Embeddable
/// in RunRecord so metric summaries travel with measurements.
struct TraceReport {
  std::vector<SpanStat> spans;        // sorted by total_s, descending
  std::vector<CounterStat> counters;  // sorted by name
  std::int64_t dropped_events = 0;

  bool empty() const { return spans.empty() && counters.empty(); }
  /// Total seconds across spans with the given name ("" = none found).
  double total_for(const std::string& name) const;
  /// Total seconds across every span in the given category.
  double category_total(const std::string& category) const;
  /// Two ASCII tables: spans and counters.
  std::string summary_table() const;
};

/// RAII activation of tracing. At most one scope is active (nesting
/// throws). Destruction deactivates, writes options.out_path (if set),
/// and prints the summary (if requested).
class TraceScope {
 public:
  explicit TraceScope(TraceOptions options = TraceOptions{});
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope();

  /// Aggregates everything recorded so far. Call only while no
  /// instrumented work is in flight.
  TraceReport report() const;

  /// Serializes recorded events in chrome://tracing "traceEvents"
  /// format (open via chrome://tracing or https://ui.perfetto.dev).
  std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

  /// Opaque shared state; defined in trace.cpp.
  struct State;

 private:
  std::shared_ptr<State> state_;
};

namespace detail {
/// The active scope's State, published by TraceScope. Exposed only so
/// the fast-path checks below can inline down to one atomic load —
/// instrumented kernels sit inside GEMM inner functions where even an
/// out-of-line call per invocation shows up when no scope is active.
extern std::atomic<void*> g_active;
}  // namespace detail

/// True when a TraceScope is active (one atomic load, inlined).
inline bool enabled() {
  return detail::g_active.load(std::memory_order_acquire) != nullptr;
}

/// Interns `name` into a process-lifetime pool and returns a stable
/// C string usable as a Span name (span events store raw pointers, so
/// dynamic names must outlive the scope; interning guarantees that).
const char* intern(const std::string& name);

namespace detail {
void counter_add_slow(const char* name, std::int64_t delta);
void gauge_record_slow(const char* name, std::int64_t value);
void record_span_slow(const char* name, const char* category,
                      std::int64_t start_ns, std::int64_t end_ns);
}  // namespace detail

/// Records a completed span with explicit endpoints (now_ns() values).
/// This is how cross-thread waits are traced: the serving layer stamps
/// a request at enqueue on the client thread and emits the
/// "serve.enqueue_wait" span from the worker that dequeued it — an RAII
/// Span cannot straddle threads. Spans starting before the active
/// scope did are dropped.
inline void record_span(const char* name, const char* category,
                        std::int64_t start_ns, std::int64_t end_ns) {
  if (enabled()) detail::record_span_slow(name, category, start_ns, end_ns);
}

/// Adds `delta` to the named monotonic counter.
inline void counter_add(const char* name, std::int64_t delta) {
  if (enabled()) detail::counter_add_slow(name, delta);
}

/// Records an instantaneous gauge sample (reported as last + peak).
inline void gauge_record(const char* name, std::int64_t value) {
  if (enabled()) detail::gauge_record_slow(name, value);
}

/// RAII timed interval [construction, destruction): the one way an
/// interval is measured. With `add_s` set the elapsed seconds are
/// always added to `*add_s` (a PhaseBreakdown field, a craft time);
/// when a scope is active the same two clock reads are also recorded as
/// a span under `name`. A null `name` times without tracing. `name` and
/// `category` must be string literals or interned strings. A span with
/// neither an active scope nor `add_s` is one atomic load and no clock
/// read.
class Span {
 public:
  Span(const char* name, const char* category, double* add_s = nullptr)
      : name_(name), category_(category), add_s_(add_s) {
    // Inlined fast path: one atomic load when untimed and disarmed.
    if (add_s != nullptr || (name != nullptr && enabled()))
      start_ns_ = now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (start_ns_ < 0) return;
    const std::int64_t end_ns = now_ns();
    if (add_s_ != nullptr) *add_s_ += seconds_between(start_ns_, end_ns);
    if (name_ != nullptr) record_span(name_, category_, start_ns_, end_ns);
  }

 private:
  const char* name_;
  const char* category_;
  double* add_s_;
  std::int64_t start_ns_ = -1;  // < 0 when neither timed nor traced
};

// Span names used by the instrumented hot paths, collected here so
// tooling and tests agree on the taxonomy:
//   layer   fwd/<layer>, bwd/<layer>, fwd/loss-head, bwd/loss-head
//   kernel  matmul, matmul_tn, matmul_nt, conv2d_fwd, conv2d_bwd
//   optim   optim.step
//   train   train.step, train.snapshot
//   data    data.next_batch
//   eval    eval.batch
//   io      checkpoint.save, checkpoint.load
//   serve   serve.enqueue_wait, serve.assemble, serve.forward,
//           serve.scatter
// Counters: tensor.allocs, tensor.bytes, tensor.arena_*, plan.*,
// pool.tasks, optim.steps, train.rollbacks, checkpoint.fallbacks,
// hist.dropped_nonfinite, dp.reduces, attack.units, fleet.*, and one
// serve.* counter per ServerStats event field, all named in the one
// table that bumps both (kEvents in serve/server.cpp).
// Gauges: pool.queue_depth, serve.queue_depth, fleet.queued,
// fleet.replicas.

}  // namespace dlbench::runtime::trace
