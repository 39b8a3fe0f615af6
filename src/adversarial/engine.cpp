#include "adversarial/engine.hpp"

#include <algorithm>
#include <vector>

#include "runtime/device.hpp"
#include "runtime/trace.hpp"
#include "util/error.hpp"

namespace dlbench::adversarial {

namespace {

using runtime::trace::Span;

/// One worker's share of a sweep: walk the strided unit set on the
/// worker's own replica.
void run_worker(nn::Sequential& replica, const nn::Context& ctx,
                std::int64_t unit_count, std::int64_t worker,
                std::int64_t stride,
                const std::function<double(nn::Sequential&, const nn::Context&,
                                           std::int64_t)>& attack,
                runtime::LatencyHistogram& craft_time) {
  for (std::int64_t unit = worker; unit < unit_count; unit += stride) {
    Span span("attack/unit", "attack");
    const double craft_s = attack(replica, ctx, unit);
    craft_time.record_s(craft_s);
    runtime::trace::counter_add("attack.units", 1);
  }
}

}  // namespace

CraftTiming craft_units(
    const nn::Sequential& model, const nn::Context& ctx,
    std::int64_t unit_count, int threads,
    const std::function<double(nn::Sequential& replica, const nn::Context& ctx,
                               std::int64_t unit)>& attack) {
  DLB_CHECK(unit_count >= 0, "negative unit count");
  CraftTiming timing;
  const std::int64_t n_workers = std::max<std::int64_t>(
      1, std::min<std::int64_t>(threads, std::max<std::int64_t>(1, unit_count)));
  timing.threads = static_cast<int>(n_workers);
  if (unit_count == 0) return timing;

  // Units run with a serial device regardless of what the caller's
  // context says: see the determinism contract in engine.hpp.
  nn::Context unit_ctx = ctx;
  unit_ctx.device = runtime::Device::cpu();
  unit_ctx.training = false;

  std::vector<runtime::LatencyHistogram> histograms(
      static_cast<std::size_t>(n_workers));
  // Replicas are cloned here, on the calling thread, before dispatch,
  // and die here after the join: their weight buffers then come from
  // and return to this thread's malloc arena. Cloned inside a pool
  // worker, each one would grow that worker's glibc per-thread arena,
  // which keeps the memory after the replica is freed (DESIGN.md §12).
  std::vector<nn::Sequential> replicas;
  replicas.reserve(static_cast<std::size_t>(n_workers));
  {
    Span wall(nullptr, nullptr, &timing.craft_wall_s);
    {
      Span span("attack/replicate", "attack");
      for (std::int64_t w = 0; w < n_workers; ++w)
        replicas.push_back(model.clone());
    }

    // Worker w is one index of the fan-out. A single worker runs inline
    // on the calling thread (Device::parallel_for's inline threshold).
    runtime::Device::gpu().parallel_for(
        static_cast<std::size_t>(n_workers),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t w = lo; w < hi; ++w)
            run_worker(replicas[w], unit_ctx, unit_count,
                       static_cast<std::int64_t>(w), n_workers, attack,
                       histograms[w]);
        },
        1);
  }
  // Worker-index order; exact bucket-wise sums make the result
  // order-independent anyway.
  for (const auto& h : histograms) timing.craft_time.merge(h);
  return timing;
}

}  // namespace dlbench::adversarial
