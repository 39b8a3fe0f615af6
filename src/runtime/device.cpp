#include "runtime/device.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace dlbench::runtime {

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    f.avx2 = __builtin_cpu_supports("avx2");
    f.fma = __builtin_cpu_supports("fma");
    f.avx512f = __builtin_cpu_supports("avx512f");
#endif
    return f;
  }();
  return features;
}

SimdLevel active_simd_level() {
  static const SimdLevel level = [] {
#if defined(DLB_HAVE_AVX2_BUILD)
    const bool avx2_built = true;
#else
    const bool avx2_built = false;
#endif
#if defined(DLB_HAVE_AVX512_BUILD)
    const bool avx512_built = true;
#else
    const bool avx512_built = false;
#endif
    const CpuFeatures& f = cpu_features();
    SimdLevel best = SimdLevel::kScalar;
    if (avx2_built && f.avx2 && f.fma) best = SimdLevel::kAvx2Fma;
    if (best == SimdLevel::kAvx2Fma && avx512_built && f.avx512f)
      best = SimdLevel::kAvx512F;
    if (const char* env = std::getenv("DLB_SIMD")) {
      const std::string v(env);
      if (v == "scalar") return SimdLevel::kScalar;
      // A request is a cap, not a guarantee: it cannot raise the level
      // above what the build and the CPU support.
      if (v == "avx2") return std::min(best, SimdLevel::kAvx2Fma);
      if (v == "avx512" || v == "auto" || v.empty()) return best;
      // A typo must not quietly run every GEMM on the portable kernel.
      throw Error("DLB_SIMD=\"" + v +
                  "\" is not one of scalar, avx2, avx512, auto or empty");
    }
    return best;
  }();
  return level;
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512F: return "avx512f";
    case SimdLevel::kAvx2Fma: return "avx2+fma";
    case SimdLevel::kScalar: break;
  }
  return "scalar";
}

Device Device::cpu() { return Device(Kind::kCpu, nullptr); }

Device Device::gpu() {
  // The one process-wide pool: every GPU device, and every fan-out
  // that is not a kernel (attack crafting), shares it. A pool per
  // Device would oversubscribe cores when experiments create devices
  // in loops.
  static const std::shared_ptr<ThreadPool> pool =
      std::make_shared<ThreadPool>(env_pool_threads());
  return Device(Kind::kGpu, pool);
}

Device Device::parallel(std::size_t workers) {
  if (workers <= 1) return cpu();
  return Device(Kind::kGpu, std::make_shared<ThreadPool>(workers));
}

void Device::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) const {
  if (count == 0) return;
  if (!pool_ || count <= grain) {
    fn(0, count);
    return;
  }
  // grain continues past the inline threshold into the split itself:
  // count=5000 / grain=4096 must fan out as two ~2500-element chunks,
  // not one 150-element sliver per worker.
  pool_->parallel_for_ranges(count, fn, grain);
}

}  // namespace dlbench::runtime
