#pragma once

// Paper-style rendering of harness results.

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/harness.hpp"
#include "util/table.hpp"

namespace dlbench::core {

/// Table with the paper's standard columns — Framework / Default
/// Settings / Training Time (s) / Testing Time (s) / Accuracy (%).
util::Table results_table(const std::string& title,
                          const std::vector<RunRecord>& records);

/// One-line summary of a record for log output.
std::string summarize(const RunRecord& record);

/// Convergence/failure status cell for a record: "yes",
/// "yes (recovered x1)", "NO (diverged@120, 2 recoveries)",
/// "NO (timed out)", or "ERROR".
std::string run_status(const RunRecord& record);

/// Prints a header banner for a bench binary, including the workload
/// profile so results are interpretable.
void print_banner(const std::string& experiment_id,
                  const std::string& description,
                  const HarnessOptions& options);

/// One serving-benchmark cell: the configuration swept plus the
/// client-observed and server-observed outcome. Plain data on purpose —
/// core does not depend on src/serve; bench_serve fills this from
/// serve::LoadGenResult + serve::ServerStats.
struct ServeRecord {
  // Configuration.
  std::string framework;
  std::string dataset;
  std::string mode;  // "open" (Poisson) or "closed"
  std::string device;
  int replicas = 0;
  std::int64_t max_batch = 0;
  double max_batch_delay_s = 0.0;
  // Client-observed outcome.
  double duration_s = 0.0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;
  double mean_batch = 0.0;
  double latency_mean_s = 0.0;
  double latency_p50_s = 0.0;
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_p999_s = 0.0;
  double latency_max_s = 0.0;
  // Server-observed breakdown.
  std::int64_t max_queue_depth = 0;
  double busy_s = 0.0;
  double queue_wait_p50_s = 0.0;
  double queue_wait_p99_s = 0.0;
  double assemble_mean_s = 0.0;
  double forward_mean_s = 0.0;
  double scatter_mean_s = 0.0;
};

/// Serving analogue of results_table: Framework / Mode / Replicas /
/// Batch / Offered / Achieved / p50 / p99 / p999 / Rejected.
util::Table serve_table(const std::string& title,
                        const std::vector<ServeRecord>& records);

/// One-line summary of a serving cell for log output.
std::string summarize(const ServeRecord& record);

/// One adversarial-sweep cell: which model was attacked, with what,
/// and the crafting outcome — success rate plus the crafting-time
/// distribution the paper's Table VIII reports. Plain data on purpose,
/// like ServeRecord: core does not depend on src/adversarial; the
/// attack benches fill this from UntargetedSweep/TargetedSweep.
struct AttackRecord {
  // Configuration.
  std::string framework;  // framework whose trained model was attacked
  std::string setting;    // training setting label (e.g. "TF MNIST")
  std::string dataset;
  std::string attack;     // "fgsm" / "jsma"
  std::string device;
  int threads = 0;        // crafting workers the sweep ran with
  // Outcome.
  std::int64_t attacks = 0;          // attack units crafted
  std::int64_t successes = 0;
  double success_rate = 0.0;         // successes / attacks
  std::int64_t total_iterations = 0; // summed gradient/perturb steps
  // Timing, screening and crafting separated (see adversarial/engine).
  double screening_s = 0.0;
  double craft_wall_s = 0.0;
  double craft_mean_s = 0.0;
  double craft_p50_s = 0.0;
  double craft_p95_s = 0.0;
  double craft_p99_s = 0.0;
  double craft_max_s = 0.0;
};

/// One-line summary of an attack cell for log output.
std::string summarize(const AttackRecord& record);

/// One chaos-gauntlet cell: a serving run driven through a seeded fault
/// schedule, reporting the robustness metric family (goodput, p99
/// inflation, recovery window, fault/supervision event counts) the
/// comparative studies never measure. Plain data like ServeRecord —
/// core does not depend on src/serve; bench_gauntlet fills this from
/// serve::LoadGenResult + serve::ServerStats. Event counts are
/// deterministic given (seed, schedule): two runs with the same
/// configuration must produce identical crashes/retries/shed counts
/// (see DESIGN.md §13 determinism contract).
struct ChaosRecord {
  // Configuration.
  std::string framework;
  std::string dataset;
  std::string device;
  std::string scenario;  // fault-schedule label, e.g. "crash", "stall"
  bool supervised = true;
  int replicas = 0;
  std::int64_t max_batch = 0;
  double offered_rps = 0.0;
  double duration_s = 0.0;
  std::uint64_t seed = 0;
  // Client-observed outcome.
  std::int64_t issued = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;   // deadline shed (client-visible timeouts)
  std::int64_t errors = 0;    // forward errors surfaced after retries
  std::int64_t shed = 0;      // breaker-shed low-priority requests
  double goodput_rps = 0.0;   // ok responses / wall duration
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;
  // Degradation metrics from windowed p99s (NaN-safe: all-shed windows
  // carry the histogram sentinel and serialize as null).
  double baseline_p99_s = 0.0;  // pre-fault window p99
  double faulted_p99_s = 0.0;   // worst degraded-window p99
  double p99_inflation = 0.0;   // faulted / baseline
  double recovery_s = -1.0;     // degraded -> recovered window gap; -1 = never
  // Fault/supervision event counts (deterministic per seed+schedule).
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  std::int64_t stalls_replaced = 0;
  std::int64_t retries = 0;
  std::int64_t hedges = 0;
  std::int64_t hedge_wins = 0;
  std::int64_t corrupted = 0;
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_closes = 0;
};

/// Chaos analogue of serve_table: Scenario / Supervised / Offered /
/// Goodput / base p99 / fault p99 / inflation / recovery / events.
util::Table chaos_table(const std::string& title,
                        const std::vector<ChaosRecord>& records);

/// One-line summary of a chaos cell for log output.
std::string summarize(const ChaosRecord& record);

/// One tenant of a multi-tenant fleet cell: who submitted, under what
/// SLO class and fair share, and what they experienced — per-tenant
/// tail latency, goodput, shed/reject counts, and the replica staffing
/// of their model over the run. Plain data like ServeRecord — core does
/// not depend on src/serve; bench_serve fills this from
/// serve::FleetTenantStats + serve::FleetModelStats.
struct TenantRecord {
  // Configuration.
  std::string scenario;  // fleet cell label, e.g. "drr_slo", "fifo"
  std::string tenant;
  std::string model;  // registered fleet model the tenant targets
  std::string slo;    // "bronze" / "silver" / "gold"
  int weight = 1;
  double offered_rps = 0.0;
  double duration_s = 0.0;
  // Outcome.
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;      // SLO watermark sheds
  std::int64_t rejected = 0;  // tenant queue full
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  double goodput_rps = 0.0;  // ok responses / wall duration
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;
  double queue_wait_p99_s = 0.0;
  // Replica staffing of the tenant's model (autoscaler timeline
  // extremes plus how often it acted).
  int replicas_min = 0;
  int replicas_max = 0;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  /// Steady-state execution-plan arena bytes one replica of the
  /// tenant's model holds (DESIGN.md §15) — the tensor-memory price of
  /// each autoscaler scale-up.
  std::int64_t replica_arena_bytes = 0;
};

/// Fleet analogue of serve_table: Scenario / Tenant / SLO / Weight /
/// Offered / Goodput / Shed / p50 / p99 / Replicas.
util::Table tenant_table(const std::string& title,
                         const std::vector<TenantRecord>& records);

/// One-line summary of a tenant cell for log output.
std::string summarize(const TenantRecord& record);

/// One data-parallel training-scaling cell: a framework setting trained
/// with K workers, reporting the timing (step time, speedup, scaling
/// efficiency vs the K=1 run of the same sweep) and the determinism
/// verdict — whether the trained parameters and loss curve are bitwise
/// identical to K=1's, which the shard-ordered all-reduce guarantees
/// (DESIGN.md §16). Plain data like ServeRecord; bench_fig5 fills it
/// from frameworks::DataParallelTrainer results.
struct DdpRecord {
  // Configuration.
  std::string framework;
  std::string setting;
  std::string dataset;
  std::string device;
  std::string scenario;  // "clean" or "straggler"
  int workers = 0;       // K
  int shards = 0;        // S (fixed across the sweep)
  // Outcome.
  double train_time_s = 0.0;
  std::int64_t steps = 0;
  double step_time_s = 0.0;          // train_time_s / steps
  double speedup = 0.0;              // T(K=1) / T(K)
  double scaling_efficiency = 0.0;   // speedup / K
  double comm_s = 0.0;               // reduce + broadcast time
  double final_loss = 0.0;
  bool converged = false;
  /// True when params + loss curve match the sweep's K=1 run bit for
  /// bit (trivially true for the K=1 row itself).
  bool bitwise_match = false;
  /// Injected straggler stalls delivered (0 in clean scenarios).
  std::int64_t dp_stalls = 0;
};

/// Scaling analogue of serve_table: Framework / Scenario / K / S /
/// step time / speedup / efficiency / comm / bitwise.
util::Table ddp_table(const std::string& title,
                      const std::vector<DdpRecord>& records);

/// One-line summary of a scaling cell for log output.
std::string summarize(const DdpRecord& record);

// ---- Record JSON ---------------------------------------------------------
// Every record kind serializes through one overload set, one array
// writer and one results document, so the kinds and their JSON keys are
// decided here and nowhere else.

/// One record as a JSON object: configuration, then outcome. A
/// RunRecord adds the per-phase time breakdown, the loss curve, and the
/// trace summary when the record carries one.
std::string record_json(const RunRecord& record);
std::string record_json(const ServeRecord& record);
std::string record_json(const AttackRecord& record);
std::string record_json(const ChaosRecord& record);
std::string record_json(const TenantRecord& record);
std::string record_json(const DdpRecord& record);

/// Records of one kind as a JSON array, one object per line.
template <class R>
std::string records_json(const std::vector<R>& records) {
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i)
    out += (i ? ",\n " : "\n ") + record_json(records[i]);
  return out + "\n]";
}

/// Writes `text` to `path`; returns false (after printing a warning) on
/// filesystem errors rather than throwing, so a finished sweep is never
/// lost to a bad output path.
bool write_json(const std::string& path, const std::string& text);

/// The results of one run, every record kind side by side: what a
/// bench's --json-out file holds.
class RecordSet {
 public:
  /// Appends a record to its kind's list; returns the stored record,
  /// which stays valid until the next add of the same kind.
  template <class R>
  const R& add(R record) {
    auto& list = std::get<std::vector<R>>(lists_);
    list.push_back(std::move(record));
    return list.back();
  }

  /// The records of one kind, in the order they were added.
  template <class R>
  const std::vector<R>& get() const {
    return std::get<std::vector<R>>(lists_);
  }

  /// The one document shape, keyed by kind in this fixed order:
  /// {"runs":[…],"serve":[…],"attack":[…],"chaos":[…],"tenants":[…],
  /// "ddp":[…]}. Empty kinds are left out; an empty set writes {}.
  std::string json() const;

 private:
  std::tuple<std::vector<RunRecord>, std::vector<ServeRecord>,
             std::vector<AttackRecord>, std::vector<ChaosRecord>,
             std::vector<TenantRecord>, std::vector<DdpRecord>>
      lists_;
};

}  // namespace dlbench::core
