#pragma once

// Shared helpers for the table/figure reproduction binaries.

#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversarial/engine.hpp"
#include "bench/paper_values.hpp"
#include "core/dlbench.hpp"
#include "runtime/trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::bench {

using core::Harness;
using core::RunRecord;
using frameworks::DatasetId;
using frameworks::FrameworkKind;

/// Shared session scaffolding for the figure binaries: env-derived
/// harness options, the banner, an optional binary-wide TraceScope
/// (--trace-out=/--trace-summary) and a results-JSON sink (--json-out=).
/// Every cell goes through add(), which prints the one-line summary —
/// the boilerplate each binary used to hand-roll.
class BenchSession {
 public:
  /// Returns true if it consumed `arg`; a binary passes one to accept
  /// flags beyond the session's own.
  using FlagHandler = std::function<bool(const std::string& arg)>;

  BenchSession(int argc, char** argv, const std::string& id,
               const std::string& description,
               const FlagHandler& extra_flags = nullptr)
      : options_(core::HarnessOptions::from_env()) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace-out=", 0) == 0) {
        trace_out_ = arg.substr(12);
      } else if (arg == "--trace-summary") {
        trace_summary_ = true;
      } else if (arg.rfind("--json-out=", 0) == 0) {
        json_out_ = arg.substr(11);
      } else if (extra_flags && consumed(extra_flags, arg)) {
        // consumed by the binary
      } else {
        // A misspelled flag silently measuring the wrong configuration
        // is worse than no measurement: fail loudly instead.
        std::cerr << "error: unknown flag " << arg
                  << " (session flags: --trace-out=PATH, --trace-summary, "
                     "--json-out=PATH)\n";
        std::exit(2);
      }
    }
    core::print_banner(id, description, options_);
    if ((!trace_out_.empty() || trace_summary_) &&
        !runtime::trace::enabled()) {
      runtime::trace::TraceOptions topts;
      topts.out_path = trace_out_;
      topts.print_summary = trace_summary_;
      trace_scope_.emplace(std::move(topts));
    }
    harness_.emplace(options_);
  }

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;
  ~BenchSession() { flush(); }

  Harness& harness() { return *harness_; }
  const core::HarnessOptions& options() const { return options_; }
  /// The cells of one record kind added so far, e.g.
  /// records<core::ServeRecord>().
  template <class R>
  const std::vector<R>& records() const {
    return records_.get<R>();
  }

  /// Registers a finished cell of any record kind: prints its one-line
  /// summary and keeps it for the end-of-run JSON. Returns the stored
  /// record (valid until the next add of the same kind).
  template <class R>
  const R& add(R record) {
    const R& stored = records_.add(std::move(record));
    std::cout << core::summarize(stored) << "\n";
    return stored;
  }

  /// Writes --json-out and closes the trace scope (writing --trace-out).
  /// Idempotent; also runs from the destructor.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    if (!json_out_.empty() && core::write_json(json_out_, records_.json())) {
      std::cout << "\nresults JSON: " << json_out_ << "\n";
    }
    if (trace_scope_.has_value()) {
      trace_scope_.reset();
      if (!trace_out_.empty())
        std::cout << "chrome trace: " << trace_out_
                  << " (open via chrome://tracing or ui.perfetto.dev)\n";
    }
  }

 private:
  /// Runs a binary's flag handler. A handler throws dlbench::Error for a
  /// malformed or out-of-range value, which ends the run like an
  /// unknown flag does.
  static bool consumed(const FlagHandler& handler, const std::string& arg) {
    try {
      return handler(arg);
    } catch (const Error& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
  }

  core::HarnessOptions options_;
  std::string trace_out_;
  std::string json_out_;
  bool trace_summary_ = false;
  bool flushed_ = false;
  // Scope before harness: the harness must see tracing already active
  // so it does not arm its own per-cell scopes on top.
  std::optional<runtime::trace::TraceScope> trace_scope_;
  std::optional<Harness> harness_;
  core::RecordSet records_;
};

/// FlagHandler for the attack benches' --attack-threads=N flag: number
/// of crafting workers the adversarial engine fans attack units across
/// (1 = serial; results are bitwise-identical either way).
inline BenchSession::FlagHandler attack_threads_flag(int* threads) {
  return [threads](const std::string& arg) {
    if (arg.rfind("--attack-threads=", 0) != 0) return false;
    const std::int64_t n =
        util::parse_i64(arg.substr(17), "--attack-threads");
    if (n < 1 || n > std::numeric_limits<int>::max())
      throw Error("--attack-threads must be a positive int");
    *threads = static_cast<int>(n);
    return true;
  };
}

/// Fills the configuration + timing half of an AttackRecord shared by
/// both sweep kinds; the caller sets the outcome tallies.
inline core::AttackRecord attack_record_base(
    const std::string& framework, const std::string& setting,
    const std::string& dataset, const std::string& attack,
    const std::string& device, const adversarial::CraftTiming& timing) {
  core::AttackRecord rec;
  rec.framework = framework;
  rec.setting = setting;
  rec.dataset = dataset;
  rec.attack = attack;
  rec.device = device;
  rec.threads = timing.threads;
  rec.screening_s = timing.screening_s;
  rec.craft_wall_s = timing.craft_wall_s;
  rec.craft_mean_s = timing.craft_time.mean_s();
  rec.craft_p50_s = timing.craft_time.percentile(50.0);
  rec.craft_p95_s = timing.craft_time.percentile(95.0);
  rec.craft_p99_s = timing.craft_time.percentile(99.0);
  rec.craft_max_s = timing.craft_time.max_s();
  return rec;
}

/// Prints measured rows next to the published rows and simple shape
/// checks (who is fastest / most accurate), for one device class.
inline void print_vs_paper(const std::string& title,
                           const std::vector<RunRecord>& records,
                           const std::vector<PaperCell>& paper) {
  util::Table table({"Framework", "Setting", "Device", "Train (s)",
                     "Paper train (s)", "Test (s)", "Paper test (s)",
                     "Acc (%)", "Paper acc (%)", "Converged"});
  table.set_title(title);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const auto& p = paper[i];
    table.add_row({r.framework, r.setting, r.device,
                   util::format_seconds(r.train.train_time_s),
                   util::format_seconds(p.train_s),
                   util::format_seconds(r.eval.test_time_s),
                   util::format_seconds(p.test_s),
                   util::format_percent(r.eval.accuracy_pct),
                   util::format_percent(p.accuracy_pct),
                   core::run_status(r)});
  }
  std::cout << table << "\n";
}

/// Index of min/max over a metric extracted from records.
template <typename Get>
std::size_t argmin(const std::vector<RunRecord>& rs, Get get) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < rs.size(); ++i)
    if (get(rs[i]) < get(rs[best])) best = i;
  return best;
}
template <typename Get>
std::size_t argmax(const std::vector<RunRecord>& rs, Get get) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < rs.size(); ++i)
    if (get(rs[i]) > get(rs[best])) best = i;
  return best;
}

inline void shape_check(const std::string& what, bool holds) {
  std::cout << "  shape check: " << what << " — "
            << (holds ? "HOLDS" : "DIFFERS") << "\n";
}

}  // namespace dlbench::bench
