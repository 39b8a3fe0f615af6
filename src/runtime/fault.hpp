#pragma once

// Deterministic fault injection + cooperative watchdog.
//
// Framework comparisons are only trustworthy when failure modes are
// detected, isolated and reported rather than crashing the run. This
// module makes failures *reproducible*: a seeded FaultPlan describes
// which faults to fire (NaN/Inf gradient corruption at a chosen step,
// byte flips in serialized checkpoints, dataset sample drops, stalled
// workers), and a FaultScope installs it for the dynamic extent of a
// run. Injection points are free functions that cost one relaxed
// atomic load when no scope is active, so production paths are
// untouched when faults are off.
//
// The Watchdog bounds a run's wall clock. It cannot forcibly kill a
// thread (nothing portable can), so expiry is cooperative: it raises a
// global abort flag that the guarded training loop checks every step
// and that injected stalls poll every millisecond, which is enough to
// guarantee a stalled cell unwinds instead of hanging a bench suite.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dlbench::runtime::fault {

/// What to write into corrupted gradient entries.
enum class GradFault { kNone, kNaN, kInf };

/// Where an injected stall fires.
enum class StallScope { kTrainStep, kPoolWorker };

/// A deterministic description of the faults to inject. Every random
/// choice (which entries to corrupt, which bytes to flip, which samples
/// to drop) is drawn from an Rng seeded with `seed`, so a plan replays
/// identically.
struct FaultPlan {
  // -- gradient corruption (guarded-training divergence trigger) --
  GradFault grad_fault = GradFault::kNone;
  /// Global optimizer step at which gradients are corrupted.
  std::int64_t grad_step = -1;
  /// How many times the gradient fault may fire in total. The guarded
  /// loop re-visits `grad_step` after a rollback, so 1 models a
  /// transient fault (recoverable) and a large count a persistent one
  /// (drives retry exhaustion).
  std::int64_t grad_max_fires = 1;
  /// Fraction of each gradient tensor's entries to corrupt, in (0, 1].
  double grad_fraction = 0.01;

  // -- checkpoint stream corruption --
  /// Number of random byte flips applied to each serialized checkpoint.
  std::int64_t ckpt_flip_bytes = 0;

  // -- dataset faults --
  /// Probability that the loader silently drops any given sample.
  double sample_drop_rate = 0.0;

  // -- stalls --
  /// Stall duration; 0 disables stalling.
  std::int64_t stall_ms = 0;
  /// Training step at which a kTrainStep stall fires.
  std::int64_t stall_step = 0;
  StallScope stall_scope = StallScope::kTrainStep;

  // -- data-parallel straggler injection (DataParallelTrainer) --
  /// Per-firing stall for one data-parallel training worker; 0 off.
  /// Unlike the one-shot stalls above this models a *persistently slow*
  /// machine: it fires on every step where step % dp_stall_every == 0,
  /// so scaling-efficiency sweeps can measure the synchronous barrier
  /// paying for its slowest member. Deterministic: a pure function of
  /// (worker, step), never of scheduling.
  std::int64_t dp_stall_ms = 0;
  /// Worker index that straggles.
  int dp_stall_worker = 0;
  /// Step cadence of the straggle (1 = every step).
  std::int64_t dp_stall_every = 1;

  // -- serving faults (chaos gauntlet; see DESIGN.md §13) --
  //
  // Determinism contract: every serve-fault decision is a pure function
  // of (seed, stable ordinal) — replica slot + per-incarnation batch
  // ordinal for replica-level faults, request id (+ attempt) for
  // request-level faults — never wall clock or thread interleaving.
  // With a fixed request count, injected-event totals replay
  // identically run-to-run even though batching and scheduling differ.

  /// Replica slot crashes on every k-th batch it processes since its
  /// last (re)start; 0 disables. Its in-flight batch is requeued.
  std::int64_t serve_crash_every = 0;
  /// Global cap on injected crashes across all slots (0 = unlimited).
  std::int64_t serve_crash_max = 0;
  /// Replica slot stalls for serve_stall_ms on every k-th batch; 0 off.
  std::int64_t serve_stall_every = 0;
  std::int64_t serve_stall_ms = 0;
  /// Global cap on injected stalls (0 = unlimited).
  std::int64_t serve_stall_max = 0;
  /// Fraction of request ids marked for a transient forward error.
  double serve_error_rate = 0.0;
  /// Dispatch attempts (0-based) on which a marked request's forward
  /// fails; with the default 1, attempt 0 fails and a retry succeeds,
  /// so retry count == marked count exactly.
  std::int64_t serve_error_attempts = 1;
  /// Fraction of request ids whose response payload is corrupted
  /// (detectable: probabilities scaled to sum > 1).
  double serve_corrupt_rate = 0.0;
  /// Fraction of request ids that arrive with an already-expired
  /// deadline — deterministic deadline-shed load.
  double serve_expire_rate = 0.0;

  /// Seed for the plan's private Rng stream.
  std::uint64_t seed = 0xfa017u;

  /// True if any fault is armed.
  bool active() const;

  /// True if any serving-side fault is armed.
  bool serve_active() const;

  /// Builds a plan from DLB_FAULT_* environment variables:
  ///   DLB_FAULT_NAN_STEP / DLB_FAULT_INF_STEP  step to corrupt grads
  ///   DLB_FAULT_GRAD_FIRES    max gradient-fault firings (default 1)
  ///   DLB_FAULT_GRAD_FRACTION fraction of entries corrupted (0.01)
  ///   DLB_FAULT_CKPT_FLIPS    byte flips per serialized checkpoint
  ///   DLB_FAULT_DROP_RATE     per-sample drop probability
  ///   DLB_FAULT_STALL_MS      stall duration (0 = off)
  ///   DLB_FAULT_STALL_STEP    step at which the stall fires (0)
  ///   DLB_FAULT_STALL_WORKER  1 = stall a pool worker instead
  ///   DLB_FAULT_DP_STALL_MS     straggle a data-parallel trainer worker
  ///   DLB_FAULT_DP_STALL_WORKER which worker straggles (default 0)
  ///   DLB_FAULT_DP_STALL_EVERY  step cadence of the straggle (1)
  ///   DLB_FAULT_SEED          fault Rng seed
  /// and serving-side DLB_CHAOS_* variables:
  ///   DLB_CHAOS_CRASH_EVERY     crash a replica every k-th batch (0)
  ///   DLB_CHAOS_CRASH_MAX       global crash cap (0 = unlimited)
  ///   DLB_CHAOS_STALL_EVERY     stall a replica every k-th batch (0)
  ///   DLB_CHAOS_STALL_MS        serve stall duration (0)
  ///   DLB_CHAOS_STALL_MAX       global stall cap (0 = unlimited)
  ///   DLB_CHAOS_ERROR_RATE      fraction of requests marked to fail
  ///   DLB_CHAOS_ERROR_ATTEMPTS  attempts on which marked fail (1)
  ///   DLB_CHAOS_CORRUPT_RATE    fraction of responses corrupted
  ///   DLB_CHAOS_EXPIRE_RATE     fraction arriving already expired
  static FaultPlan from_env();
};

/// Counts of faults actually delivered under a scope.
struct FaultStats {
  std::int64_t gradient_fires = 0;
  std::int64_t checkpoint_bytes_flipped = 0;
  std::int64_t samples_dropped = 0;
  std::int64_t stalls = 0;
  /// Data-parallel straggler stalls delivered (DataParallelTrainer).
  std::int64_t dp_stalls = 0;
  // Serving-side deliveries (the gauntlet cross-checks these against
  // the server's own event counters).
  std::int64_t serve_crashes = 0;
  std::int64_t serve_stalls = 0;
  std::int64_t serve_errors = 0;
  std::int64_t serve_corruptions = 0;
  std::int64_t serve_expirations = 0;
};

/// RAII activation of a FaultPlan. At most one scope is active at a
/// time (nesting throws); destruction deactivates and keeps the stats
/// readable. Thread-safe: injection points may be hit from pool
/// workers while the owner thread trains.
class FaultScope {
 public:
  explicit FaultScope(FaultPlan plan);
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
  ~FaultScope();

  /// Snapshot of the counters; safe to poll while injection points
  /// fire on other threads.
  FaultStats stats() const;

  /// Opaque shared state; defined in fault.cpp (the injection points
  /// reach it through the module's active-scope pointer).
  struct State;

 private:
  std::shared_ptr<State> state_;
};

/// True when a FaultScope is active (one relaxed atomic load).
bool enabled();

/// Corrupts a deterministic subset of the given gradient buffers if the
/// active plan's gradient fault is armed for `step` and firings remain.
/// Returns true when the fault fired.
bool maybe_corrupt_gradients(std::int64_t step,
                             const std::vector<std::span<float>>& grads);

/// True when the active plan says to drop this sample.
bool maybe_drop_sample(std::int64_t sample_index);

/// Flips the planned number of random bytes in `bytes`, restricted to
/// offsets in [min_offset, bytes.size()). Returns flips performed.
std::int64_t maybe_corrupt_stream(std::string& bytes,
                                  std::size_t min_offset = 0);

/// Training-loop stall: sleeps stall_ms (abort-aware) when the active
/// plan's kTrainStep stall is armed for `step`. Fires at most once.
void maybe_stall_step(std::int64_t step);

/// Pool-worker stall: first task executed after scope activation sleeps
/// stall_ms (abort-aware) when a kPoolWorker stall is armed.
void maybe_stall_worker();

/// Data-parallel straggler: sleeps dp_stall_ms (abort-aware) when the
/// active plan straggles `worker` on this `step`. Called by the
/// DataParallelTrainer at the start of a worker's step participation;
/// fires every step matching the plan's cadence, modelling a slow host
/// rather than a one-off hiccup.
void maybe_stall_dp_worker(std::int64_t step, int worker);

// ---- serving-side injection points (called by serve::ModelServer) ----
//
// All decisions are pure functions of (plan seed, ordinals) via a
// splitmix64-derived hash — see the determinism contract on FaultPlan.

/// True when replica `slot` must crash after its `batch_ordinal`-th
/// batch since (re)start (1-based). Respects the global crash cap.
bool serve_should_crash(int slot, std::int64_t batch_ordinal);

/// Stalls replica `slot` for serve_stall_ms when armed for this batch
/// ordinal; the sleep polls both the global abort flag and `cancel` (a
/// server shutdown flag, may be null) every millisecond. Returns true
/// when a stall was delivered (even if cut short).
bool serve_maybe_stall(int slot, std::int64_t batch_ordinal,
                       const std::atomic<bool>* cancel);

/// True when the forward pass for (request_id, attempt) must fail with
/// a transient error. Attempt is 0-based; only attempts below the
/// plan's serve_error_attempts are eligible.
bool serve_forward_error(std::int64_t request_id, std::int64_t attempt);

/// True when request_id's response payload must be corrupted.
bool serve_corrupt_response(std::int64_t request_id);

/// True when request_id arrives with an already-expired deadline.
bool serve_expire_request(std::int64_t request_id);

// ---- cooperative abort (set by Watchdog, polled by stalls/loops) ----

void request_abort();
void clear_abort();
bool abort_requested();

/// Wall-clock guard for one training run. Arms a monitor thread that
/// raises the global abort flag once `timeout_s` elapses; timeout <= 0
/// disarms (no thread is spawned). The destructor stops the monitor
/// and, if the watchdog fired, clears the abort flag it raised.
class Watchdog {
 public:
  explicit Watchdog(double timeout_s);
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog();

  /// True once the deadline has passed.
  bool expired() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dlbench::runtime::fault
