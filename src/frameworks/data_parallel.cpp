#include "frameworks/data_parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <vector>

#include "frameworks/train_loop.hpp"
#include "nn/plan.hpp"
#include "runtime/comm.hpp"
#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "util/env.hpp"

namespace dlbench::frameworks {

namespace comm = runtime::comm;

using runtime::trace::Span;
using util::env_i64;

namespace {

// splitmix64 finalizer for the per-shard dropout streams: the stream is
// keyed on (seed, step, shard) — never on which worker ran the shard —
// so regularization noise is identical at every K.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t shard_stream_seed(std::uint64_t seed, std::int64_t step,
                                int shard) {
  return mix64(mix64(mix64(seed ^ 0xddba11e1ULL) ^
                     static_cast<std::uint64_t>(step)) ^
               static_cast<std::uint64_t>(shard));
}

// One shard's slice of the global batch plus its gradient slot.
struct Shard {
  tensor::Tensor images;                  // [rows, C, H, W]
  std::vector<std::int64_t> labels;       // size rows
  std::vector<tensor::Tensor> grads;      // one slot per model param
  std::int64_t rows = 0;
  double loss = 0.0;
};

// Balanced row partition of B over S: shard s gets B/S rows plus one of
// the B%S remainder rows, in index order. Pure function of (B, S).
std::int64_t shard_rows(std::int64_t batch, int shards, int s) {
  const std::int64_t base = batch / shards;
  const std::int64_t rem = batch % shards;
  return base + (s < rem ? 1 : 0);
}

// Sharded gradients: the batch is sliced into S shards, K replicas
// drain the shard queue, and the shard-ordered weighted reduce writes
// the master's gradients. Every parameter change the loop makes is
// broadcast back to the replicas.
class ShardedGradients final : public detail::GradientSource {
 public:
  ShardedGradients(const Framework& framework, nn::Sequential& model,
                   const data::Dataset& train_set, const Device& device,
                   std::uint64_t seed, int workers, int shards)
      : framework_(framework),
        model_(model),
        train_set_(train_set),
        device_(device),
        seed_(seed),
        K_(workers),
        S_(shards),
        planners_(static_cast<std::size_t>(workers)),
        worker_fwd_(static_cast<std::size_t>(workers)),
        worker_bwd_(static_cast<std::size_t>(workers)),
        workers_device_(
            Device::parallel(static_cast<std::size_t>(workers))) {}

  void prepare(util::Rng& dropout_rng) override {
    // Replica compute is always serial: shard tasks run ON pool
    // workers, and fanning out from a worker is the re-entrancy
    // deadlock parallel_for_ranges rejects. K supplies the parallelism.
    // The loop's dropout stream only feeds prepare(); shard compute
    // draws from per-shard streams.
    nn::Context prep_ctx;
    prep_ctx.device = Device::cpu();
    prep_ctx.training = true;
    prep_ctx.rng = &dropout_rng;
    framework_.prepare(model_, train_set_.sample(0), prep_ctx);

    // One replica per worker, cloned after prepare so session setup is
    // shared. The master never runs forward/backward itself: its
    // parameters are the reduce/step/broadcast target.
    replicas_.reserve(static_cast<std::size_t>(K_));
    for (int w = 0; w < K_; ++w) replicas_.push_back(model_.clone());

    master_params_ = model_.params();
    master_grads_ = model_.grads();
    const std::size_t P = master_params_.size();

    // Per-param broadcast destinations (replica parameter buffers are
    // stable: optimizer and broadcast write in place, never reallocate).
    replica_param_ptrs_.assign(P, {});
    for (std::size_t p = 0; p < P; ++p)
      for (nn::Sequential& replica : replicas_)
        replica_param_ptrs_[p].push_back(replica.params()[p]->raw());

    // Persistent per-shard gradient slots, allocated once on the master
    // thread (they live across steps, so they must never come from a
    // worker's step arena).
    shard_state_.resize(static_cast<std::size_t>(S_));
    for (Shard& sh : shard_state_)
      for (std::size_t p = 0; p < P; ++p)
        sh.grads.emplace_back(master_grads_[p]->shape());
  }

  double gradients(const data::Batch& batch, std::int64_t step,
                   PhaseBreakdown& phases) override {
    const std::int64_t B = batch.size();
    slice(batch, phases);
    fan_out(step, phases);

    // ---- shard-ordered all-reduce into the master gradients ----
    // Shard losses are means over shard rows, so shard s carries
    // weight rows_s / B; the weighted sum in fixed shard order is
    // what a single B-row step's loss head would have produced.
    Span reduce(nullptr, nullptr, &phases.comm_s);
    std::vector<const float*> parts;
    std::vector<double> weights;
    double loss_acc = 0.0;
    for (const Shard& sh : shard_state_) {
      if (sh.rows == 0) continue;  // no rows, no term (not even +0.0)
      const double w = static_cast<double>(sh.rows) / static_cast<double>(B);
      weights.push_back(w);
      loss_acc += w * sh.loss;
    }
    for (std::size_t p = 0; p < master_grads_.size(); ++p) {
      parts.clear();
      for (const Shard& sh : shard_state_)
        if (sh.rows > 0) parts.push_back(sh.grads[p].raw());
      comm::reduce_weighted_sum(
          std::span<const float* const>(parts),
          std::span<const double>(weights), master_grads_[p]->raw(),
          static_cast<std::size_t>(master_grads_[p]->numel()), device_);
    }
    runtime::trace::counter_add("dp.reduces", 1);
    return loss_acc;
  }

  // Replicas follow the master after every optimizer step and rollback.
  void params_changed(PhaseBreakdown& phases) override {
    Span broadcast(nullptr, nullptr, &phases.comm_s);
    for (std::size_t p = 0; p < master_params_.size(); ++p)
      comm::broadcast(master_params_[p]->raw(),
                      std::span<float* const>(replica_param_ptrs_[p]),
                      static_cast<std::size_t>(master_params_[p]->numel()),
                      device_);
  }

  void add_plan_stats(TrainResult& result) const override {
    for (const nn::StepPlanner& planner : planners_) {
      result.plan_arena_bytes += planner.arena_bytes();
      result.plan_replayed_steps += planner.replayed_steps();
    }
  }

 private:
  // Copies each shard's rows out of the batch (master thread,
  // attributed to the data phase).
  void slice(const data::Batch& batch, PhaseBreakdown& phases) {
    Span slice(nullptr, nullptr, &phases.data_s);
    const std::int64_t B = batch.size();
    const std::int64_t row_floats =
        batch.images.numel() / std::max<std::int64_t>(1, B);
    std::int64_t offset = 0;
    for (int s = 0; s < S_; ++s) {
      Shard& sh = shard_state_[static_cast<std::size_t>(s)];
      sh.rows = shard_rows(B, S_, s);
      sh.loss = 0.0;
      if (sh.rows == 0) continue;
      // uninit is safe: every element is memcpy'd just below.
      sh.images = tensor::Tensor::uninit(
          {sh.rows, batch.images.dim(1), batch.images.dim(2),
           batch.images.dim(3)});
      std::memcpy(sh.images.raw(), batch.images.raw() + offset * row_floats,
                  static_cast<std::size_t>(sh.rows * row_floats) *
                      sizeof(float));
      sh.labels.assign(
          batch.labels.begin() + static_cast<std::ptrdiff_t>(offset),
          batch.labels.begin() +
              static_cast<std::ptrdiff_t>(offset + sh.rows));
      offset += sh.rows;
    }
  }

  // K workers drain the shard queue. Dynamic assignment: whichever
  // worker is free claims the next shard. Harmless to determinism —
  // each gradient lands in its shard's slot, and only shard order
  // reaches the arithmetic — while letting K-1 healthy workers absorb a
  // straggler's backlog.
  void fan_out(std::int64_t step, PhaseBreakdown& phases) {
    std::atomic<int> next_shard{0};
    double par_s = 0.0;
    {
      Span fan_out(nullptr, nullptr, &par_s);
      workers_device_.parallel_for(
          static_cast<std::size_t>(K_),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t w = lo; w < hi; ++w)
              drain_shards(step, static_cast<int>(w), next_shard);
          },
          1);
    }
    // The parallel region is one wall-clock interval; split it into
    // forward/backward by the workers' own ratio so the breakdown
    // still sums to wall time.
    double fwd_sum = 0.0, bwd_sum = 0.0;
    for (int w = 0; w < K_; ++w) {
      fwd_sum += worker_fwd_[static_cast<std::size_t>(w)];
      bwd_sum += worker_bwd_[static_cast<std::size_t>(w)];
    }
    if (fwd_sum + bwd_sum > 0.0) {
      phases.forward_s += par_s * fwd_sum / (fwd_sum + bwd_sum);
      phases.backward_s += par_s * bwd_sum / (fwd_sum + bwd_sum);
    }
  }

  // Worker w's share of one step: claim shards until the queue is
  // empty, each on replica w with its own planner.
  void drain_shards(std::int64_t step, int w, std::atomic<int>& next_shard) {
    const auto wi = static_cast<std::size_t>(w);
    runtime::fault::maybe_stall_dp_worker(step, w);
    nn::Sequential& replica = replicas_[wi];
    nn::StepPlanner& planner = planners_[wi];
    double fwd_s = 0.0, bwd_s = 0.0;
    for (;;) {
      const int s = next_shard.fetch_add(1);
      if (s >= S_) break;
      Shard& sh = shard_state_[static_cast<std::size_t>(s)];
      if (sh.rows == 0) continue;
      util::Rng shard_rng(shard_stream_seed(seed_, step, s));
      nn::Context ctx;
      ctx.device = Device::cpu();
      ctx.training = true;
      ctx.rng = &shard_rng;
      // Plan extent: one shard's forward/backward, keyed by its row
      // count. The grad copy-out stays inside (it allocates nothing;
      // the slots are persistent).
      auto plan_guard = planner.step(sh.rows);
      replica.zero_grads();
      nn::LossResult loss;
      {
        Span forward(nullptr, nullptr, &fwd_s);
        loss = replica.forward_loss(sh.images, sh.labels, ctx);
      }
      {
        Span backward(nullptr, nullptr, &bwd_s);
        replica.backward_params(loss, sh.labels, ctx);
      }
      sh.loss = loss.loss;
      const auto replica_grads = replica.grads();
      for (std::size_t p = 0; p < sh.grads.size(); ++p) {
        const auto src = replica_grads[p]->data();
        auto dst = sh.grads[p].data();
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    worker_fwd_[wi] = fwd_s;
    worker_bwd_[wi] = bwd_s;
  }

  const Framework& framework_;
  nn::Sequential& model_;
  const data::Dataset& train_set_;
  const Device device_;
  const std::uint64_t seed_;
  const int K_;
  const int S_;

  std::vector<nn::Sequential> replicas_;
  std::vector<tensor::Tensor*> master_params_;
  std::vector<tensor::Tensor*> master_grads_;
  std::vector<std::vector<float*>> replica_param_ptrs_;
  std::vector<Shard> shard_state_;
  // One planner per worker (single-owner: only worker w's task touches
  // planners_[w], and the pool queue orders successive tasks).
  std::vector<nn::StepPlanner> planners_;
  // Per-step worker-side phase accumulators; each task writes only its
  // own slot, and parallel_for's join publishes them to the master.
  std::vector<double> worker_fwd_;
  std::vector<double> worker_bwd_;
  // K pool workers (serial at K = 1). Last member: destroyed (workers
  // joined) before anything they touch.
  const Device workers_device_;
};

}  // namespace

DataParallelOptions DataParallelOptions::from_env(
    DataParallelOptions fallback) {
  DataParallelOptions opt = fallback;
  opt.workers =
      static_cast<int>(env_i64("DLB_DP_WORKERS", opt.workers));
  opt.shards = static_cast<int>(env_i64("DLB_DP_SHARDS", opt.shards));
  return opt;
}

DataParallelTrainer::DataParallelTrainer(const Framework& framework,
                                         DataParallelOptions options)
    : framework_(framework), options_(std::move(options)) {
  workers_ = std::max(1, options_.workers);
  // Default S = max(K, 4): K <= 4 sweeps are bit-comparable without
  // pinning anything, and S never drops below K (no idle workers).
  shards_ = options_.shards > 0 ? options_.shards : std::max(workers_, 4);
}

TrainResult DataParallelTrainer::train(nn::Sequential& model,
                                       const data::Dataset& train_set,
                                       const TrainingConfig& config,
                                       const Device& device) const {
  const TrainOptions& topt = options_.train;
  ShardedGradients source(framework_, model, train_set, device, topt.seed,
                          workers_, shards_);
  return detail::guarded_train(framework_, model, train_set, config, device,
                               topt, source);
}

}  // namespace dlbench::frameworks
