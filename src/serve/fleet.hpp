#pragma once

// Multi-tenant DLaaS control plane over serve::ModelServer.
//
// One ModelServer serves one frozen model; production DLaaS platforms
// (the Wu et al. measurement study this repo's serving layer follows)
// multiplex many models and many tenants over one machine's cores.
// FleetManager is that layer: it registers several frozen models (each
// backed by its own ModelServer replica pool), shares one process-wide
// replica core budget across them, and admits tenant traffic through
// per-tenant bounded queues drained by a deterministic weighted-fair
// scheduler.
//
// The pieces, front to back:
//
//   Admission — each tenant owns a bounded FIFO queue and an SLO class.
//   A submission is shed (kShed) when the *global* queued backlog has
//   crossed its class watermark: bronze sheds first (at
//   bronze_watermark × global_queue_budget), then silver, and gold only
//   once the full budget is exhausted — "gold sheds last". Past the
//   watermark check, a full per-tenant queue rejects (kRejected). Both
//   decisions are pure functions of the queued backlog, which is what
//   makes drained replays reproducible (below).
//
//   Scheduling — a single dispatcher thread drains the tenant queues in
//   deficit-round-robin order: each round visit deposits
//   quantum × weight into the tenant's deficit counter and dispatches
//   one queued request per unit of deficit; an emptied queue forfeits
//   its leftover deficit. Over any busy interval tenants therefore
//   receive service in exact proportion to their weights. The FIFO
//   policy ablates this: one global arrival-order queue, no weights —
//   the configuration the bench shows collapsing under overload.
//
//   Dispatch window — each model accepts at most
//   window_per_replica × current-replica-target in-flight dispatches.
//   When the scheduler's chosen tenant targets a full model it BLOCKS
//   until a completion frees the window; it never skips to another
//   tenant. Blocking (not skipping) is what keeps the decision sequence
//   independent of completion *timing*: the next decision depends only
//   on queue contents, never on which model happened to finish first.
//
//   Completion — each dispatch hands the inner server a completion
//   callback, which the server runs on the thread that resolves the
//   request. It does the tenant accounting, stamps the end-to-end
//   latency, frees the window slot and resolves the client's future
//   right then, whatever order the requests were dispatched in. The
//   server runs completions with none of its locks held, and the fleet
//   never holds mu_ across an inner submit(), so a completion can always
//   take mu_.
//
//   Autoscaling — every autoscale_every dispatch decisions (an ordinal
//   cadence, deliberately not wall clock) the dispatcher re-evaluates
//   each model's queued backlog per replica, before it releases mu_ for
//   that dispatch's inner submit, so drain() never returns ahead of an
//   evaluation. Backlog above
//   scale_up_backlog adds a replica (within the model's max and the
//   global core budget); backlog at or below scale_down_backlog for
//   hysteresis_evals consecutive evaluations retires one (never below
//   min). Scale-down goes through ModelServer::resize_replicas, whose
//   retire-after-drain contract finishes the replica's current batch
//   before the thread exits — scale-down never strands in-flight work.
//
// Determinism contract (DESIGN.md §14): in the pause → preload → resume
// drain mode, every admission decision happens while the scheduler is
// idle (so it is a pure function of trace order, caps and watermarks),
// and every dispatch / scale decision is then a pure function of the
// static queue contents and the decision ordinal. Same registration
// order + same arrival trace ⇒ bit-identical decision log, independent
// of machine load, core count or model speed. Live mode (submissions
// racing the scheduler) shares the same code path but only the
// per-decision *invariants* hold, not log identity.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "nn/frozen.hpp"
#include "runtime/histogram.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"

namespace dlbench::serve {

/// Dispatcher policy: the real scheduler, or the ablation baseline.
enum class FleetPolicy {
  kWeightedFair,  // deficit round-robin over per-tenant queues
  kFifo,          // one global arrival-order queue (ablation)
};
const char* to_string(FleetPolicy policy);

/// Fleet-wide policy knobs (per-model knobs live in FleetModelConfig).
struct FleetOptions {
  FleetPolicy policy = FleetPolicy::kWeightedFair;
  /// Process-wide replica budget shared by every model: the autoscaler
  /// never lets the sum of replica targets exceed this.
  int core_budget = 4;
  /// Per-tenant queue bound; a full queue rejects (kRejected).
  std::size_t tenant_queue_capacity = 256;
  /// Global queued-backlog budget the SLO watermarks scale against.
  std::size_t global_queue_budget = 512;
  /// Shed-by-class admission control. Off, only per-tenant queue
  /// capacity pushes back (the "no-admission" ablation).
  bool slo_admission = true;
  /// Class watermarks as fractions of global_queue_budget: a class is
  /// shed once the global queued backlog reaches its watermark. Bronze
  /// sheds first, gold last (at the full budget by default).
  double bronze_watermark = 0.5;
  double silver_watermark = 0.75;
  double gold_watermark = 1.0;
  /// Deficit deposited per round visit is quantum × tenant weight.
  std::int64_t drr_quantum = 4;

  // -- autoscaler --
  bool autoscale = true;
  /// Dispatch decisions between autoscaler evaluations (ordinal
  /// cadence: evaluation points are decision counts, not timestamps,
  /// so scale decisions replay deterministically).
  std::int64_t autoscale_every = 64;
  /// Queued backlog per replica at or above which a model gains one.
  double scale_up_backlog = 4.0;
  /// Queued backlog per replica at or below which a model is a
  /// scale-down candidate.
  double scale_down_backlog = 1.0;
  /// Consecutive scale-down-candidate evaluations required before a
  /// replica is actually retired (hysteresis against flapping).
  int hysteresis_evals = 3;
};

/// One registered model: a frozen predictor plus its serving knobs.
/// The fleet owns a ModelServer per model, staffed between
/// [min_replicas, max_replicas] by the autoscaler.
struct FleetModelConfig {
  std::string name;
  /// Shape of one request sample, e.g. [1, 28, 28].
  tensor::Shape sample_shape;
  int min_replicas = 1;
  int max_replicas = 2;
  /// Max in-flight dispatches per staffed replica before the scheduler
  /// blocks on this model (the dispatch window numerator).
  std::int64_t window_per_replica = 2;
  /// Inner-server batching knobs (see ServerOptions).
  std::int64_t max_batch = 8;
  double max_batch_delay_s = 0.001;
  runtime::Device device = runtime::Device::cpu();
  bool compute_probabilities = false;
};

/// One registered tenant: a named principal submitting against one
/// registered model, with a weight (DRR share) and an SLO class.
struct FleetTenantConfig {
  std::string name;
  std::string model;
  SloClass slo = SloClass::kSilver;
  /// Relative weighted-fair share (>= 1). Ignored by kFifo.
  int weight = 1;
};

/// What one decision-log entry records.
enum class FleetDecisionKind {
  kShedAdmission,  // SLO watermark shed (tenant, slo, detail = backlog)
  kRejectQueue,    // per-tenant queue full (detail = queue depth)
  kDispatch,       // request handed to a model server (detail = backlog)
  kScaleUp,        // model gained a replica (detail = new target)
  kScaleDown,      // model retired a replica (detail = new target)
};
const char* to_string(FleetDecisionKind kind);

/// One entry of the fleet's decision log. In drained replays the whole
/// sequence is bit-identical run-to-run (see the determinism contract
/// above); format_decision gives the canonical one-line form the tests
/// and the bench compare.
struct FleetDecision {
  std::int64_t ordinal = 0;
  FleetDecisionKind kind = FleetDecisionKind::kDispatch;
  std::string tenant;  // empty for scale events
  std::string model;
  SloClass slo = SloClass::kSilver;
  std::int64_t detail = 0;
};
std::string format_decision(const FleetDecision& d);

/// Per-tenant outcome counters + latency, snapshot by stats().
struct FleetTenantStats {
  std::string tenant;
  std::string model;
  SloClass slo = SloClass::kSilver;
  int weight = 1;
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t shed = 0;      // SLO watermark sheds
  std::int64_t rejected = 0;  // tenant queue full
  std::int64_t dispatched = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;  // dispatched but not kOk (expired, error, ...)
  /// End-to-end latency of ok requests: admission → future resolved.
  runtime::LatencyHistogram latency;
  /// Fleet-queue wait: admission → handed to the model server.
  runtime::LatencyHistogram queue_wait;
};

/// Per-model staffing + dispatch counters, snapshot by stats().
struct FleetModelStats {
  std::string model;
  int replicas = 0;       // current target
  int replicas_peak = 0;  // high-water mark over the run
  int replicas_low = 0;   // low-water mark over the run
  std::int64_t dispatched = 0;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  /// Sealed execution-plan arena bytes across the model's staffed
  /// replicas (DESIGN.md §15) — what one more replica costs in
  /// steady-state tensor memory is plan_arena_bytes / replicas.
  std::int64_t plan_arena_bytes = 0;
};

/// One autoscaler action, for the replica timeline.
struct FleetScaleEvent {
  std::int64_t ordinal = 0;  // decision ordinal it fired at
  std::string model;
  int from = 0;
  int to = 0;
};

/// Snapshot of the whole fleet.
struct FleetStats {
  std::vector<FleetTenantStats> tenants;  // registration order
  std::vector<FleetModelStats> models;    // registration order
  std::vector<FleetScaleEvent> timeline;  // scale events in ordinal order
  std::int64_t decisions = 0;             // log length (or would-be length)
  std::int64_t queued = 0;                // current global backlog
  std::int64_t inflight = 0;              // dispatched, unresolved
};

/// The control plane. Lifecycle: construct → register models and
/// tenants → start() → submit()/pause()/resume()/drain() → stop().
/// Thread-safe: submit() from any number of threads; one dispatcher
/// thread runs internally, and completions run on the model servers'
/// threads.
class FleetManager {
 public:
  explicit FleetManager(FleetOptions options);
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;
  ~FleetManager();

  /// Registers a model (before start() only). Names must be unique.
  void register_model(FleetModelConfig config, nn::FrozenModel model);
  /// Registers a tenant (before start() only) against a registered
  /// model. Names must be unique; weight >= 1.
  void register_tenant(FleetTenantConfig config);

  /// Builds the model servers (each at min_replicas) and starts the
  /// dispatcher. `paused` starts the dispatcher idle so a trace can be
  /// preloaded (the deterministic drain mode).
  void start(bool paused = false);

  /// Admits one request for `tenant`. Never blocks: the future resolves
  /// immediately with kShed (SLO watermark) or kRejected (tenant queue
  /// full) when admission fails. The tensor is aliased, not copied.
  std::future<Prediction> submit(const std::string& tenant,
                                 tensor::Tensor input);
  /// Same, by registration index (the hot path for trace drivers).
  std::future<Prediction> submit(int tenant_index, tensor::Tensor input);

  /// Dispatcher gate for the drain mode. pause() stops dispatching
  /// after the in-progress decision; resume() restarts it.
  void pause();
  void resume();

  /// Blocks until every queue is empty and every dispatch has resolved.
  /// Resumes a paused dispatcher first (preload → drain).
  void drain();

  /// Stops the fleet. `drain` serves everything still queued first;
  /// otherwise queued requests resolve kShutdown (dispatched work is
  /// always allowed to finish — nothing in flight is dropped).
  /// Idempotent; the destructor calls stop(true).
  void stop(bool drain = true);

  FleetStats stats() const;
  /// Copy of the decision log.
  std::vector<FleetDecision> decision_log() const;
  /// Registration index for `tenant` (DLB_CHECKs on unknown names).
  int tenant_index(const std::string& tenant) const;
  /// Current replica target for `model`.
  int replica_target(const std::string& model) const;
  const FleetOptions& options() const { return options_; }

 private:
  /// One admitted-but-undispatched request in a tenant queue.
  struct Queued {
    tensor::Tensor input;
    std::shared_ptr<std::promise<Prediction>> promise;
    std::int64_t admit_ns = 0;
  };

  /// Counters live in `stats`, the struct stats() copies; its
  /// `replicas` field is the current replica target.
  struct Model {
    FleetModelConfig config;
    nn::FrozenModel frozen;
    std::unique_ptr<ModelServer> server;
    FleetModelStats stats;
    std::int64_t inflight = 0;
    int low_evals = 0;  // consecutive scale-down-candidate evaluations

    Model(FleetModelConfig c, nn::FrozenModel f)
        : config(std::move(c)), frozen(std::move(f)) {
      stats.model = config.name;
    }
  };

  /// Counters and latencies live in `stats`, the struct stats() copies.
  struct Tenant {
    FleetTenantConfig config;
    int model_index = 0;
    std::deque<Queued> queue;
    std::int64_t deficit = 0;
    FleetTenantStats stats;
  };

  /// Counted fleet events, in the order of the table in count_locked().
  enum class Event {
    kSubmitted,
    kShed,
    kRejected,
    kDispatches,
    kScaleUps,
    kScaleDowns,
    kCount
  };
  /// Counts one `event`: its Tenant and/or Model field (the other
  /// pointer may be null) and the "fleet.*" trace counter move
  /// together. mu_ held.
  void count_locked(Event event, Tenant* tenant, Model* model);

  void dispatcher_loop();
  /// A dispatched request resolved (run by the inner server, no lock
  /// held): tenant accounting, window release, client resolution.
  void complete(int tenant_index, std::int64_t admit_ns,
                std::int64_t dispatch_ns, std::promise<Prediction>& promise,
                Prediction prediction);
  /// Next tenant to serve under the active policy, or -1 when every
  /// queue is empty. Consumes DRR deficit / FIFO head. mu_ held.
  int pick_locked();
  int pick_drr_locked();
  /// Ordinal-cadence autoscaler evaluation. mu_ held.
  void autoscale_locked();
  void log_locked(FleetDecisionKind kind, const std::string& tenant,
                  const std::string& model, SloClass slo,
                  std::int64_t detail);
  std::int64_t window_locked(const Model& m) const {
    return m.config.window_per_replica *
           static_cast<std::int64_t>(m.stats.replicas);
  }
  bool idle_locked() const { return queued_total_ == 0 && inflight_total_ == 0; }

  FleetOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // dispatcher: work / window / resume
  std::condition_variable cv_idle_;  // drain(): fleet went idle
  std::vector<std::unique_ptr<Model>> models_;
  std::vector<Tenant> tenants_;
  std::deque<int> fifo_;  // admission-order tenant indices (kFifo only)
  bool started_ = false;
  bool paused_ = false;
  bool stop_ = false;
  std::int64_t queued_total_ = 0;
  std::int64_t inflight_total_ = 0;
  std::int64_t decision_ordinal_ = 0;
  std::int64_t dispatch_count_ = 0;
  int drr_cursor_ = 0;   // next tenant the DRR rotor visits
  int drr_serving_ = -1; // tenant currently spending deficit, -1 = none
  std::vector<FleetDecision> log_;
  std::vector<FleetScaleEvent> timeline_;

  std::thread dispatcher_;
};

// ---- trace driver -------------------------------------------------------

/// How run_fleet_trace replays a mixed arrival trace.
struct FleetLoadOptions {
  /// true: live mode — sleep to each arrival's offset and submit, so
  /// latency and backlog reflect the offered rates (the bench's
  /// overload cells). false: deterministic drain mode — pause, preload
  /// every arrival, resume and drain (the decision-log replay mode).
  bool realtime = true;
};

/// Client-side view of one trace replay (per-tenant detail lives in
/// FleetManager::stats()).
struct FleetLoadResult {
  double duration_s = 0.0;  // wall clock incl. drain
  std::int64_t issued = 0;
};

/// Replays `trace` (from make_mixed_trace over `streams`) against
/// `fleet`: arrival i submits inputs[stream][k mod inputs[stream].size]
/// (k = that stream's arrival count) as the tenant named by its stream.
/// Blocks until every future has resolved. The fleet must be started —
/// paused for drain mode, running for realtime.
FleetLoadResult run_fleet_trace(
    FleetManager& fleet, const std::vector<TenantStream>& streams,
    const std::vector<MixedArrival>& trace,
    const std::vector<std::vector<tensor::Tensor>>& inputs,
    const FleetLoadOptions& options = {});

}  // namespace dlbench::serve
