#include "runtime/fault.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::runtime::fault {

using util::env_f64;
using util::env_i64;

bool FaultPlan::active() const {
  return grad_fault != GradFault::kNone || ckpt_flip_bytes > 0 ||
         sample_drop_rate > 0.0 || stall_ms > 0 || dp_stall_ms > 0 ||
         serve_active();
}

bool FaultPlan::serve_active() const {
  return serve_crash_every > 0 ||
         (serve_stall_every > 0 && serve_stall_ms > 0) ||
         serve_error_rate > 0.0 || serve_corrupt_rate > 0.0 ||
         serve_expire_rate > 0.0;
}

FaultPlan FaultPlan::from_env() {
  FaultPlan plan;
  const std::int64_t nan_step = env_i64("DLB_FAULT_NAN_STEP", -1);
  const std::int64_t inf_step = env_i64("DLB_FAULT_INF_STEP", -1);
  if (nan_step >= 0) {
    plan.grad_fault = GradFault::kNaN;
    plan.grad_step = nan_step;
  } else if (inf_step >= 0) {
    plan.grad_fault = GradFault::kInf;
    plan.grad_step = inf_step;
  }
  plan.grad_max_fires = env_i64("DLB_FAULT_GRAD_FIRES", plan.grad_max_fires);
  plan.grad_fraction = env_f64("DLB_FAULT_GRAD_FRACTION", plan.grad_fraction);
  plan.ckpt_flip_bytes = env_i64("DLB_FAULT_CKPT_FLIPS", plan.ckpt_flip_bytes);
  plan.sample_drop_rate = env_f64("DLB_FAULT_DROP_RATE", plan.sample_drop_rate);
  plan.stall_ms = env_i64("DLB_FAULT_STALL_MS", plan.stall_ms);
  plan.stall_step = env_i64("DLB_FAULT_STALL_STEP", plan.stall_step);
  plan.stall_scope = env_i64("DLB_FAULT_STALL_WORKER", 0) != 0
                         ? StallScope::kPoolWorker
                         : StallScope::kTrainStep;
  plan.dp_stall_ms = env_i64("DLB_FAULT_DP_STALL_MS", plan.dp_stall_ms);
  plan.dp_stall_worker = static_cast<int>(
      env_i64("DLB_FAULT_DP_STALL_WORKER", plan.dp_stall_worker));
  plan.dp_stall_every = env_i64("DLB_FAULT_DP_STALL_EVERY", plan.dp_stall_every);
  plan.serve_crash_every =
      env_i64("DLB_CHAOS_CRASH_EVERY", plan.serve_crash_every);
  plan.serve_crash_max = env_i64("DLB_CHAOS_CRASH_MAX", plan.serve_crash_max);
  plan.serve_stall_every =
      env_i64("DLB_CHAOS_STALL_EVERY", plan.serve_stall_every);
  plan.serve_stall_ms = env_i64("DLB_CHAOS_STALL_MS", plan.serve_stall_ms);
  plan.serve_stall_max = env_i64("DLB_CHAOS_STALL_MAX", plan.serve_stall_max);
  plan.serve_error_rate = env_f64("DLB_CHAOS_ERROR_RATE", plan.serve_error_rate);
  plan.serve_error_attempts =
      env_i64("DLB_CHAOS_ERROR_ATTEMPTS", plan.serve_error_attempts);
  plan.serve_corrupt_rate =
      env_f64("DLB_CHAOS_CORRUPT_RATE", plan.serve_corrupt_rate);
  plan.serve_expire_rate =
      env_f64("DLB_CHAOS_EXPIRE_RATE", plan.serve_expire_rate);
  plan.seed = static_cast<std::uint64_t>(
      env_i64("DLB_FAULT_SEED", static_cast<std::int64_t>(plan.seed)));
  return plan;
}

struct FaultScope::State {
  explicit State(FaultPlan p) : plan(p), rng(p.seed) {}

  const FaultPlan plan;
  FaultStats stats;
  // Guards rng + stats (injection points can race with pool workers).
  std::mutex mu;
  util::Rng rng;
  std::atomic<std::int64_t> grad_fires{0};
  std::atomic<bool> step_stall_fired{false};
  std::atomic<bool> worker_stall_fired{false};
  // Serving-side global fire counters (enforce the crash/stall caps
  // without taking mu on the batch hot path).
  std::atomic<std::int64_t> serve_crash_fires{0};
  std::atomic<std::int64_t> serve_stall_fires{0};
};

namespace {

using State = FaultScope::State;

// The active scope's state. Raw pointer + relaxed load keeps the
// fault-off fast path to a single atomic read; the owning FaultScope
// outlives every injection it can trigger (its destructor clears the
// pointer before the shared_ptr releases).
std::atomic<FaultScope::State*> g_active{nullptr};

std::atomic<bool> g_abort{false};

FaultScope::State* active_state() {
  return g_active.load(std::memory_order_acquire);
}

// Sleeps for `ms`, polling the abort flag — and `cancel` when given —
// so a watchdog or a shutting-down server can cut the stall short
// instead of letting it hang the suite.
void abortable_sleep(std::int64_t ms,
                     const std::atomic<bool>* cancel = nullptr) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (abort_requested()) return;
    if (cancel && cancel->load(std::memory_order_acquire)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// splitmix64 finalizer: the bijective mix behind every serve-fault
// decision. Pure function of its input — no state, no ordering.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Uniform [0, 1) draw keyed on (seed, tag, a, b): the decision for a
// given ordinal is identical in every run and on every thread.
double hash_uniform(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                    std::uint64_t b) {
  const std::uint64_t h = mix64(mix64(mix64(seed ^ tag) ^ a) ^ b);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kTagError = 0x5e77e001;
constexpr std::uint64_t kTagCorrupt = 0x5e77e002;
constexpr std::uint64_t kTagExpire = 0x5e77e003;

}  // namespace

FaultScope::FaultScope(FaultPlan plan)
    : state_(std::make_shared<State>(plan)) {
  FaultScope::State* expected = nullptr;
  DLB_CHECK(g_active.compare_exchange_strong(expected, state_.get(),
                                             std::memory_order_release),
            "a FaultScope is already active; scopes cannot nest");
}

FaultScope::~FaultScope() {
  g_active.store(nullptr, std::memory_order_release);
}

FaultStats FaultScope::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

bool enabled() { return active_state() != nullptr; }

bool maybe_corrupt_gradients(std::int64_t step,
                             const std::vector<std::span<float>>& grads) {
  State* s = active_state();
  if (!s) return false;
  const FaultPlan& plan = s->plan;
  if (plan.grad_fault == GradFault::kNone || step != plan.grad_step)
    return false;
  if (s->grad_fires.fetch_add(1) >= plan.grad_max_fires) {
    s->grad_fires.fetch_sub(1);
    return false;
  }
  const float value = plan.grad_fault == GradFault::kNaN
                          ? std::numeric_limits<float>::quiet_NaN()
                          : std::numeric_limits<float>::infinity();
  std::lock_guard<std::mutex> lock(s->mu);
  for (const std::span<float>& g : grads) {
    if (g.empty()) continue;
    const auto n = static_cast<std::int64_t>(g.size());
    std::int64_t hits = static_cast<std::int64_t>(
        plan.grad_fraction * static_cast<double>(n));
    hits = std::max<std::int64_t>(1, std::min(hits, n));
    for (std::int64_t k = 0; k < hits; ++k)
      g[s->rng.uniform_index(static_cast<std::uint64_t>(n))] = value;
  }
  ++s->stats.gradient_fires;
  return true;
}

bool maybe_drop_sample(std::int64_t) {
  State* s = active_state();
  if (!s || s->plan.sample_drop_rate <= 0.0) return false;
  std::lock_guard<std::mutex> lock(s->mu);
  if (!s->rng.bernoulli(s->plan.sample_drop_rate)) return false;
  ++s->stats.samples_dropped;
  return true;
}

std::int64_t maybe_corrupt_stream(std::string& bytes,
                                  std::size_t min_offset) {
  State* s = active_state();
  if (!s || s->plan.ckpt_flip_bytes <= 0) return 0;
  if (bytes.size() <= min_offset) return 0;
  const auto span = static_cast<std::uint64_t>(bytes.size() - min_offset);
  std::lock_guard<std::mutex> lock(s->mu);
  std::int64_t flips = 0;
  for (std::int64_t k = 0; k < s->plan.ckpt_flip_bytes; ++k) {
    const std::size_t off = min_offset + s->rng.uniform_index(span);
    // XOR with a nonzero mask so the byte always changes.
    bytes[off] = static_cast<char>(
        bytes[off] ^ static_cast<char>(1u << s->rng.uniform_index(8)));
    ++flips;
  }
  s->stats.checkpoint_bytes_flipped += flips;
  return flips;
}

void maybe_stall_step(std::int64_t step) {
  State* s = active_state();
  if (!s || s->plan.stall_ms <= 0 ||
      s->plan.stall_scope != StallScope::kTrainStep ||
      step != s->plan.stall_step)
    return;
  if (s->step_stall_fired.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->stats.stalls;
  }
  abortable_sleep(s->plan.stall_ms);
}

void maybe_stall_worker() {
  State* s = active_state();
  if (!s || s->plan.stall_ms <= 0 ||
      s->plan.stall_scope != StallScope::kPoolWorker)
    return;
  if (s->worker_stall_fired.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->stats.stalls;
  }
  abortable_sleep(s->plan.stall_ms);
}

void maybe_stall_dp_worker(std::int64_t step, int worker) {
  State* s = active_state();
  if (!s || s->plan.dp_stall_ms <= 0) return;
  const FaultPlan& plan = s->plan;
  // Pure function of (worker, step): the same worker straggles on the
  // same steps in every run, regardless of scheduling.
  if (worker != plan.dp_stall_worker) return;
  if (plan.dp_stall_every <= 0 || step % plan.dp_stall_every != 0) return;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->stats.dp_stalls;
  }
  abortable_sleep(plan.dp_stall_ms);
}

bool serve_should_crash(int slot, std::int64_t batch_ordinal) {
  State* s = active_state();
  if (!s) return false;
  const FaultPlan& plan = s->plan;
  if (plan.serve_crash_every <= 0 || batch_ordinal <= 0) return false;
  if (batch_ordinal % plan.serve_crash_every != 0) return false;
  if (plan.serve_crash_max > 0) {
    // Claim a slot under the global cap; undo on overshoot so the cap
    // is exact even under concurrent claims.
    if (s->serve_crash_fires.fetch_add(1) >= plan.serve_crash_max) {
      s->serve_crash_fires.fetch_sub(1);
      return false;
    }
  } else {
    s->serve_crash_fires.fetch_add(1);
  }
  std::lock_guard<std::mutex> lock(s->mu);
  ++s->stats.serve_crashes;
  (void)slot;
  return true;
}

bool serve_maybe_stall(int slot, std::int64_t batch_ordinal,
                       const std::atomic<bool>* cancel) {
  State* s = active_state();
  if (!s) return false;
  const FaultPlan& plan = s->plan;
  if (plan.serve_stall_every <= 0 || plan.serve_stall_ms <= 0 ||
      batch_ordinal <= 0)
    return false;
  if (batch_ordinal % plan.serve_stall_every != 0) return false;
  if (plan.serve_stall_max > 0) {
    if (s->serve_stall_fires.fetch_add(1) >= plan.serve_stall_max) {
      s->serve_stall_fires.fetch_sub(1);
      return false;
    }
  } else {
    s->serve_stall_fires.fetch_add(1);
  }
  {
    std::lock_guard<std::mutex> lock(s->mu);
    ++s->stats.serve_stalls;
  }
  (void)slot;
  abortable_sleep(plan.serve_stall_ms, cancel);
  return true;
}

bool serve_forward_error(std::int64_t request_id, std::int64_t attempt) {
  State* s = active_state();
  if (!s) return false;
  const FaultPlan& plan = s->plan;
  if (plan.serve_error_rate <= 0.0 || attempt >= plan.serve_error_attempts)
    return false;
  if (hash_uniform(plan.seed, kTagError,
                   static_cast<std::uint64_t>(request_id),
                   0) >= plan.serve_error_rate)
    return false;
  std::lock_guard<std::mutex> lock(s->mu);
  ++s->stats.serve_errors;
  return true;
}

bool serve_corrupt_response(std::int64_t request_id) {
  State* s = active_state();
  if (!s || s->plan.serve_corrupt_rate <= 0.0) return false;
  if (hash_uniform(s->plan.seed, kTagCorrupt,
                   static_cast<std::uint64_t>(request_id),
                   0) >= s->plan.serve_corrupt_rate)
    return false;
  std::lock_guard<std::mutex> lock(s->mu);
  ++s->stats.serve_corruptions;
  return true;
}

bool serve_expire_request(std::int64_t request_id) {
  State* s = active_state();
  if (!s || s->plan.serve_expire_rate <= 0.0) return false;
  if (hash_uniform(s->plan.seed, kTagExpire,
                   static_cast<std::uint64_t>(request_id),
                   0) >= s->plan.serve_expire_rate)
    return false;
  std::lock_guard<std::mutex> lock(s->mu);
  ++s->stats.serve_expirations;
  return true;
}

void request_abort() { g_abort.store(true, std::memory_order_release); }
void clear_abort() { g_abort.store(false, std::memory_order_release); }
bool abort_requested() { return g_abort.load(std::memory_order_acquire); }

struct Watchdog::Impl {
  std::mutex mu;
  std::condition_variable cv;
  bool cancelled = false;
  std::atomic<bool> expired{false};
  std::thread monitor;
};

Watchdog::Watchdog(double timeout_s) {
  if (timeout_s <= 0.0) return;
  impl_ = std::make_unique<Impl>();
  const auto timeout = std::chrono::duration<double>(timeout_s);
  impl_->monitor = std::thread([impl = impl_.get(), timeout] {
    std::unique_lock<std::mutex> lock(impl->mu);
    if (impl->cv.wait_for(lock, timeout, [&] { return impl->cancelled; }))
      return;  // run finished in time
    impl->expired.store(true, std::memory_order_release);
    request_abort();
  });
}

Watchdog::~Watchdog() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->cancelled = true;
  }
  impl_->cv.notify_all();
  impl_->monitor.join();
  if (impl_->expired.load(std::memory_order_acquire)) clear_abort();
}

bool Watchdog::expired() const {
  return impl_ && impl_->expired.load(std::memory_order_acquire);
}

}  // namespace dlbench::runtime::fault
