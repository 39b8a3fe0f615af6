#include "core/report.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "util/format.hpp"
#include "util/json.hpp"

namespace dlbench::core {

namespace {

using util::json::num;
using util::json::quoted;

const char* boolean(bool b) { return b ? "true" : "false"; }

void append_trace_json(std::ostream& os,
                       const runtime::trace::TraceReport& trace) {
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const auto& s = trace.spans[i];
    os << (i ? "," : "") << "{\"name\":" << quoted(s.name)
       << ",\"category\":" << quoted(s.category) << ",\"count\":" << s.count
       << ",\"total_s\":" << num(s.total_s) << ",\"min_s\":" << num(s.min_s)
       << ",\"max_s\":" << num(s.max_s) << "}";
  }
  os << "],\"counters\":[";
  for (std::size_t i = 0; i < trace.counters.size(); ++i) {
    const auto& c = trace.counters[i];
    os << (i ? "," : "") << "{\"name\":" << quoted(c.name)
       << ",\"value\":" << c.value << ",\"peak\":" << c.peak
       << ",\"samples\":" << c.samples << "}";
  }
  os << "],\"dropped_events\":" << trace.dropped_events << "}";
}

}  // namespace

std::string run_status(const RunRecord& r) {
  if (r.failed()) return "ERROR";
  std::ostringstream os;
  if (r.train.converged) {
    os << "yes";
    if (r.train.recovery_attempts > 0)
      os << " (recovered x" << r.train.recovery_attempts << ")";
    return os.str();
  }
  os << "NO";
  if (r.train.timed_out) {
    os << " (timed out)";
  } else if (r.train.divergence_step >= 0) {
    os << " (diverged@" << r.train.divergence_step;
    if (r.train.recovery_attempts > 0)
      os << ", " << r.train.recovery_attempts << " recoveries";
    os << ")";
  }
  return os.str();
}

util::Table results_table(const std::string& title,
                          const std::vector<RunRecord>& records) {
  util::Table table({"Framework", "Default Settings", "Device",
                     "Training Time (s)", "Testing Time (s)",
                     "Accuracy (%)", "Converged"});
  table.set_title(title);
  for (const auto& r : records) {
    table.add_row({r.framework, r.setting, r.device,
                   util::format_seconds(r.train.train_time_s),
                   util::format_seconds(r.eval.test_time_s),
                   util::format_percent(r.eval.accuracy_pct),
                   run_status(r)});
  }
  return table;
}

std::string summarize(const RunRecord& r) {
  std::ostringstream os;
  os << r.framework << " [" << r.setting << "] on " << r.dataset << " ("
     << r.device << "): train " << util::format_seconds(r.train.train_time_s)
     << "s over " << r.train.steps << " steps ("
     << util::format_fixed(r.train.epochs_run, 2) << " epochs), test "
     << util::format_seconds(r.eval.test_time_s) << "s, accuracy "
     << util::format_percent(r.eval.accuracy_pct) << "%";
  if (r.train.recovery_attempts > 0 && !r.train.diverged) {
    os << "  [RECOVERED from divergence at step " << r.train.divergence_step
       << " after " << r.train.recovery_attempts << " rollback(s)]";
  }
  if (!r.train.converged) {
    os << "  [DID NOT CONVERGE";
    if (r.train.timed_out) {
      os << ": watchdog timeout";
    } else if (r.train.diverged) {
      os << ": diverged at step " << r.train.divergence_step << ", "
         << r.train.recovery_attempts << " recovery attempt(s) exhausted";
    }
    os << "]";
  }
  if (r.failed()) os << "  [ERROR: " << r.error << "]";
  return os.str();
}

void print_banner(const std::string& experiment_id,
                  const std::string& description,
                  const HarnessOptions& options) {
  std::cout << "==========================================================\n"
            << experiment_id << " — " << description << "\n"
            << "workload: MNIST " << options.mnist_train << "/"
            << options.mnist_test << ", CIFAR-10 " << options.cifar_train
            << "/" << options.cifar_test << " (train/test samples), "
            << "flop budgets mnist " << options.mnist_flop_budget
            << ", cifar " << options.cifar_flop_budget
            << "; small-batch step cap " << options.small_batch_step_cap
            << "\n"
            << "note: absolute numbers are bench-scale; compare shapes\n"
            << "      (ordering, ratios) against the paper values shown.\n"
            << "==========================================================\n";
}

std::string record_json(const RunRecord& r) {
  std::ostringstream os;
  os << "{\"framework\":" << quoted(r.framework)
     << ",\"setting\":" << quoted(r.setting)
     << ",\"dataset\":" << quoted(r.dataset)
     << ",\"device\":" << quoted(r.device)
     << ",\"error\":" << quoted(r.error);
  const auto& t = r.train;
  os << ",\"train\":{\"train_time_s\":" << num(t.train_time_s)
     << ",\"steps\":" << t.steps << ",\"epochs_run\":" << num(t.epochs_run)
     << ",\"final_loss\":" << num(t.final_loss)
     << ",\"converged\":" << boolean(t.converged)
     << ",\"divergence_step\":" << t.divergence_step
     << ",\"recovery_attempts\":" << t.recovery_attempts
     << ",\"diverged\":" << boolean(t.diverged)
     << ",\"timed_out\":" << boolean(t.timed_out)
     << ",\"phases\":{\"data_s\":" << num(t.phases.data_s)
     << ",\"forward_s\":" << num(t.phases.forward_s)
     << ",\"backward_s\":" << num(t.phases.backward_s)
     << ",\"optimizer_s\":" << num(t.phases.optimizer_s)
     << ",\"guard_s\":" << num(t.phases.guard_s)
     << ",\"comm_s\":" << num(t.phases.comm_s) << "}"
     << ",\"plan\":{\"arena_bytes\":" << t.plan_arena_bytes
     << ",\"replayed_steps\":" << t.plan_replayed_steps << "}"
     << ",\"loss_curve\":[";
  for (std::size_t i = 0; i < t.loss_curve.size(); ++i)
    os << (i ? "," : "") << "[" << t.loss_curve[i].first << ","
       << num(t.loss_curve[i].second) << "]";
  os << "]}";
  os << ",\"eval\":{\"test_time_s\":" << num(r.eval.test_time_s)
     << ",\"accuracy_pct\":" << num(r.eval.accuracy_pct)
     << ",\"correct\":" << r.eval.correct << ",\"total\":" << r.eval.total
     << "}";
  if (!r.trace.empty()) {
    os << ",\"trace\":";
    append_trace_json(os, r.trace);
  }
  os << "}";
  return os.str();
}

namespace {

// Latencies in ms with three decimals: serving numbers live in the
// 0.1–100 ms range where format_seconds's precision is too coarse.
std::string ms(double seconds) { return util::format_fixed(seconds * 1e3, 3); }

}  // namespace

util::Table serve_table(const std::string& title,
                        const std::vector<ServeRecord>& records) {
  util::Table table({"Framework", "Mode", "Repl", "Batch", "Offered (r/s)",
                     "Achieved (r/s)", "p50 (ms)", "p99 (ms)", "p999 (ms)",
                     "Rejected"});
  table.set_title(title);
  for (const auto& r : records) {
    table.add_row({r.framework, r.mode, std::to_string(r.replicas),
                   std::to_string(r.max_batch),
                   util::format_fixed(r.offered_rps, 0),
                   util::format_fixed(r.achieved_rps, 0),
                   ms(r.latency_p50_s), ms(r.latency_p99_s),
                   ms(r.latency_p999_s), std::to_string(r.rejected)});
  }
  return table;
}

std::string summarize(const ServeRecord& r) {
  std::ostringstream os;
  os << r.framework << " serve [" << r.mode << ", replicas=" << r.replicas
     << ", batch<=" << r.max_batch << "] on " << r.dataset << " ("
     << r.device << "): offered " << util::format_fixed(r.offered_rps, 0)
     << " r/s, achieved " << util::format_fixed(r.achieved_rps, 0)
     << " r/s, p50 " << ms(r.latency_p50_s) << "ms, p99 "
     << ms(r.latency_p99_s) << "ms, mean batch "
     << util::format_fixed(r.mean_batch, 2);
  if (r.rejected > 0) os << ", rejected " << r.rejected;
  return os.str();
}

std::string record_json(const ServeRecord& r) {
  std::ostringstream os;
  os << "{\"framework\":" << quoted(r.framework)
     << ",\"dataset\":" << quoted(r.dataset) << ",\"mode\":" << quoted(r.mode)
     << ",\"device\":" << quoted(r.device) << ",\"replicas\":" << r.replicas
     << ",\"max_batch\":" << r.max_batch
     << ",\"max_batch_delay_s\":" << num(r.max_batch_delay_s)
     << ",\"duration_s\":" << num(r.duration_s)
     << ",\"offered_rps\":" << num(r.offered_rps)
     << ",\"achieved_rps\":" << num(r.achieved_rps)
     << ",\"issued\":" << r.issued << ",\"ok\":" << r.ok
     << ",\"rejected\":" << r.rejected
     << ",\"mean_batch\":" << num(r.mean_batch)
     << ",\"latency\":{\"mean_s\":" << num(r.latency_mean_s)
     << ",\"p50_s\":" << num(r.latency_p50_s)
     << ",\"p95_s\":" << num(r.latency_p95_s)
     << ",\"p99_s\":" << num(r.latency_p99_s)
     << ",\"p999_s\":" << num(r.latency_p999_s)
     << ",\"max_s\":" << num(r.latency_max_s) << "}"
     << ",\"server\":{\"max_queue_depth\":" << r.max_queue_depth
     << ",\"busy_s\":" << num(r.busy_s)
     << ",\"queue_wait_p50_s\":" << num(r.queue_wait_p50_s)
     << ",\"queue_wait_p99_s\":" << num(r.queue_wait_p99_s)
     << ",\"assemble_mean_s\":" << num(r.assemble_mean_s)
     << ",\"forward_mean_s\":" << num(r.forward_mean_s)
     << ",\"scatter_mean_s\":" << num(r.scatter_mean_s) << "}}";
  return os.str();
}

namespace {

// "3.2x" inflation / "never" recovery cells tolerant of NaN windows.
std::string ratio_cell(double v) {
  if (!std::isfinite(v)) return "n/a";
  return util::format_fixed(v, 2) + "x";
}

std::string recovery_cell(double v) {
  if (v < 0.0 || !std::isfinite(v)) return "never";
  return util::format_fixed(v, 2) + "s";
}

// Millisecond cell tolerant of the empty-histogram NaN sentinel.
std::string ms_cell(double seconds) {
  if (!std::isfinite(seconds)) return "n/a";
  return ms(seconds);
}

}  // namespace

util::Table chaos_table(const std::string& title,
                        const std::vector<ChaosRecord>& records) {
  util::Table table({"Scenario", "Sup", "Offered (r/s)", "Goodput (r/s)",
                     "p99 base (ms)", "p99 fault (ms)", "Inflation",
                     "Recovery", "Crash/Restart", "Retry", "Shed"});
  table.set_title(title);
  for (const auto& r : records) {
    table.add_row(
        {r.scenario, r.supervised ? "yes" : "no",
         util::format_fixed(r.offered_rps, 0),
         util::format_fixed(r.goodput_rps, 0), ms_cell(r.baseline_p99_s),
         ms_cell(r.faulted_p99_s), ratio_cell(r.p99_inflation),
         recovery_cell(r.recovery_s),
         std::to_string(r.crashes) + "/" + std::to_string(r.restarts),
         std::to_string(r.retries),
         std::to_string(r.expired + r.shed + r.rejected)});
  }
  return table;
}

std::string summarize(const ChaosRecord& r) {
  std::ostringstream os;
  os << r.framework << " gauntlet [" << r.scenario
     << (r.supervised ? ", supervised" : ", unsupervised")
     << ", replicas=" << r.replicas << "] on " << r.dataset << " ("
     << r.device << "): goodput " << util::format_fixed(r.goodput_rps, 0)
     << "/" << util::format_fixed(r.offered_rps, 0) << " r/s, p99 "
     << ms_cell(r.baseline_p99_s) << "ms -> " << ms_cell(r.faulted_p99_s)
     << "ms (" << ratio_cell(r.p99_inflation) << "), recovery "
     << recovery_cell(r.recovery_s) << ", crashes " << r.crashes << "/"
     << r.restarts << " restarted, retries " << r.retries << ", expired "
     << r.expired << ", shed " << r.shed;
  return os.str();
}

std::string record_json(const ChaosRecord& r) {
  std::ostringstream os;
  os << "{\"framework\":" << quoted(r.framework)
     << ",\"dataset\":" << quoted(r.dataset)
     << ",\"device\":" << quoted(r.device)
     << ",\"scenario\":" << quoted(r.scenario)
     << ",\"supervised\":" << boolean(r.supervised)
     << ",\"replicas\":" << r.replicas << ",\"max_batch\":" << r.max_batch
     << ",\"offered_rps\":" << num(r.offered_rps)
     << ",\"duration_s\":" << num(r.duration_s) << ",\"seed\":" << r.seed
     << ",\"issued\":" << r.issued << ",\"ok\":" << r.ok
     << ",\"rejected\":" << r.rejected << ",\"expired\":" << r.expired
     << ",\"errors\":" << r.errors << ",\"shed\":" << r.shed
     << ",\"goodput_rps\":" << num(r.goodput_rps)
     << ",\"latency\":{\"p50_s\":" << num(r.latency_p50_s)
     << ",\"p99_s\":" << num(r.latency_p99_s)
     << ",\"max_s\":" << num(r.latency_max_s) << "}"
     << ",\"degradation\":{\"baseline_p99_s\":" << num(r.baseline_p99_s)
     << ",\"faulted_p99_s\":" << num(r.faulted_p99_s)
     << ",\"p99_inflation\":" << num(r.p99_inflation)
     << ",\"recovery_s\":" << num(r.recovery_s) << "}"
     << ",\"events\":{\"crashes\":" << r.crashes
     << ",\"restarts\":" << r.restarts
     << ",\"stalls_replaced\":" << r.stalls_replaced
     << ",\"retries\":" << r.retries << ",\"hedges\":" << r.hedges
     << ",\"hedge_wins\":" << r.hedge_wins
     << ",\"corrupted\":" << r.corrupted
     << ",\"breaker_opens\":" << r.breaker_opens
     << ",\"breaker_closes\":" << r.breaker_closes << "}}";
  return os.str();
}

util::Table tenant_table(const std::string& title,
                         const std::vector<TenantRecord>& records) {
  util::Table table({"Scenario", "Tenant", "SLO", "W", "Offered (r/s)",
                     "Goodput (r/s)", "Shed", "Rej", "p50 (ms)", "p99 (ms)",
                     "Replicas", "Mem/rep (MiB)"});
  table.set_title(title);
  for (const auto& r : records) {
    table.add_row({r.scenario, r.tenant, r.slo, std::to_string(r.weight),
                   util::format_fixed(r.offered_rps, 0),
                   util::format_fixed(r.goodput_rps, 0),
                   std::to_string(r.shed), std::to_string(r.rejected),
                   ms_cell(r.latency_p50_s), ms_cell(r.latency_p99_s),
                   std::to_string(r.replicas_min) + "-" +
                       std::to_string(r.replicas_max),
                   util::format_fixed(
                       static_cast<double>(r.replica_arena_bytes) /
                           (1024.0 * 1024.0),
                       2)});
  }
  return table;
}

std::string summarize(const TenantRecord& r) {
  std::ostringstream os;
  os << r.tenant << " [" << r.scenario << ", " << r.slo << ", w=" << r.weight
     << "] on " << r.model << ": goodput "
     << util::format_fixed(r.goodput_rps, 0) << "/"
     << util::format_fixed(r.offered_rps, 0) << " r/s, p50 "
     << ms_cell(r.latency_p50_s) << "ms, p99 " << ms_cell(r.latency_p99_s)
     << "ms, shed " << r.shed << ", rejected " << r.rejected << ", replicas "
     << r.replicas_min << "-" << r.replicas_max << " (" << r.scale_ups
     << " up/" << r.scale_downs << " down)";
  return os.str();
}

std::string record_json(const TenantRecord& r) {
  std::ostringstream os;
  os << "{\"scenario\":" << quoted(r.scenario)
     << ",\"tenant\":" << quoted(r.tenant) << ",\"model\":" << quoted(r.model)
     << ",\"slo\":" << quoted(r.slo) << ",\"weight\":" << r.weight
     << ",\"offered_rps\":" << num(r.offered_rps)
     << ",\"duration_s\":" << num(r.duration_s)
     << ",\"submitted\":" << r.submitted << ",\"admitted\":" << r.admitted
     << ",\"shed\":" << r.shed << ",\"rejected\":" << r.rejected
     << ",\"ok\":" << r.ok << ",\"failed\":" << r.failed
     << ",\"goodput_rps\":" << num(r.goodput_rps)
     << ",\"latency\":{\"p50_s\":" << num(r.latency_p50_s)
     << ",\"p99_s\":" << num(r.latency_p99_s)
     << ",\"max_s\":" << num(r.latency_max_s)
     << ",\"queue_wait_p99_s\":" << num(r.queue_wait_p99_s) << "}"
     << ",\"replicas\":{\"min\":" << r.replicas_min
     << ",\"max\":" << r.replicas_max << ",\"scale_ups\":" << r.scale_ups
     << ",\"scale_downs\":" << r.scale_downs
     << ",\"arena_bytes_each\":" << r.replica_arena_bytes << "}}";
  return os.str();
}

util::Table ddp_table(const std::string& title,
                      const std::vector<DdpRecord>& records) {
  util::Table table({"Framework", "Scenario", "K", "S", "Train (s)",
                     "Step (ms)", "Speedup", "Efficiency", "Comm (s)",
                     "Bitwise", "Converged"});
  table.set_title(title);
  for (const auto& r : records) {
    table.add_row({r.framework, r.scenario, std::to_string(r.workers),
                   std::to_string(r.shards),
                   util::format_seconds(r.train_time_s),
                   util::format_fixed(r.step_time_s * 1e3, 3),
                   util::format_fixed(r.speedup, 2),
                   util::format_fixed(r.scaling_efficiency, 2),
                   util::format_seconds(r.comm_s),
                   r.bitwise_match ? "yes" : "NO",
                   r.converged ? "yes" : "NO"});
  }
  return table;
}

std::string summarize(const DdpRecord& r) {
  std::ostringstream os;
  os << r.framework << " [" << r.setting << "] on " << r.dataset << " ("
     << r.device << ", " << r.scenario << "): K=" << r.workers
     << " S=" << r.shards << ", train "
     << util::format_seconds(r.train_time_s) << "s over " << r.steps
     << " steps (" << util::format_fixed(r.step_time_s * 1e3, 3)
     << " ms/step), speedup " << util::format_fixed(r.speedup, 2)
     << "x, efficiency " << util::format_fixed(r.scaling_efficiency, 2)
     << ", comm " << util::format_seconds(r.comm_s) << "s, bitwise "
     << (r.bitwise_match ? "MATCH" : "MISMATCH");
  if (r.dp_stalls > 0) os << ", " << r.dp_stalls << " injected stall(s)";
  return os.str();
}

std::string record_json(const DdpRecord& r) {
  std::ostringstream os;
  os << "{\"framework\":" << quoted(r.framework)
     << ",\"setting\":" << quoted(r.setting)
     << ",\"dataset\":" << quoted(r.dataset)
     << ",\"device\":" << quoted(r.device)
     << ",\"scenario\":" << quoted(r.scenario)
     << ",\"workers\":" << r.workers << ",\"shards\":" << r.shards
     << ",\"train_time_s\":" << num(r.train_time_s)
     << ",\"steps\":" << r.steps
     << ",\"step_time_s\":" << num(r.step_time_s)
     << ",\"speedup\":" << num(r.speedup)
     << ",\"scaling_efficiency\":" << num(r.scaling_efficiency)
     << ",\"comm_s\":" << num(r.comm_s)
     << ",\"final_loss\":" << num(r.final_loss)
     << ",\"converged\":" << boolean(r.converged)
     << ",\"bitwise_match\":" << boolean(r.bitwise_match)
     << ",\"dp_stalls\":" << r.dp_stalls << "}";
  return os.str();
}

std::string summarize(const AttackRecord& r) {
  std::ostringstream os;
  os << r.framework << " " << r.attack << " [threads=" << r.threads << "] on "
     << r.dataset << " (" << r.device << "): " << r.successes << "/"
     << r.attacks << " (" << util::format_fixed(100.0 * r.success_rate, 1)
     << "%), craft wall " << util::format_seconds(r.craft_wall_s)
     << "s (screening " << util::format_seconds(r.screening_s) << "s), p50 "
     << util::format_fixed(r.craft_p50_s * 1e3, 3) << "ms, p99 "
     << util::format_fixed(r.craft_p99_s * 1e3, 3) << "ms";
  return os.str();
}

std::string record_json(const AttackRecord& r) {
  std::ostringstream os;
  os << "{\"framework\":" << quoted(r.framework)
     << ",\"setting\":" << quoted(r.setting)
     << ",\"dataset\":" << quoted(r.dataset)
     << ",\"attack\":" << quoted(r.attack)
     << ",\"device\":" << quoted(r.device) << ",\"threads\":" << r.threads
     << ",\"attacks\":" << r.attacks << ",\"successes\":" << r.successes
     << ",\"success_rate\":" << num(r.success_rate)
     << ",\"total_iterations\":" << r.total_iterations
     << ",\"screening_s\":" << num(r.screening_s)
     << ",\"craft\":{\"wall_s\":" << num(r.craft_wall_s)
     << ",\"mean_s\":" << num(r.craft_mean_s)
     << ",\"p50_s\":" << num(r.craft_p50_s)
     << ",\"p95_s\":" << num(r.craft_p95_s)
     << ",\"p99_s\":" << num(r.craft_p99_s)
     << ",\"max_s\":" << num(r.craft_max_s) << "}}";
  return os.str();
}

bool write_json(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "warning: cannot open " << path << " for writing\n";
    return false;
  }
  out << text;
  return out.good();
}

std::string RecordSet::json() const {
  std::string out = "{";
  const auto append = [&out](const char* key, const auto& list) {
    if (list.empty()) return;
    if (out.size() > 1) out += ",\n";
    out += std::string("\"") + key + "\":" + records_json(list);
  };
  append("runs", get<RunRecord>());
  append("serve", get<ServeRecord>());
  append("attack", get<AttackRecord>());
  append("chaos", get<ChaosRecord>());
  append("tenants", get<TenantRecord>());
  append("ddp", get<DdpRecord>());
  return out + "}\n";
}

}  // namespace dlbench::core
