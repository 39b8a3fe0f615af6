#pragma once

// Device model: the paper benchmarks every framework on CPU and on a
// GTX 1080 Ti GPU. Offline we substitute an execution-model device:
//
//   * Device::cpu()  — kernels run serially on the calling thread,
//     mirroring the single-stream CPU runs in the paper.
//   * Device::gpu()  — kernels are data-parallel across a thread pool
//     sized to all hardware cores, mirroring the massively parallel
//     GPU runs. Relative speedups (GPU/CPU ratio per framework) are the
//     reproduced quantity; absolute speedup is bounded by core count.
//
// Kernels in dlb_tensor take a `const Device&` and call
// device.parallel_for(...) so the same code path serves both devices.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "runtime/thread_pool.hpp"

namespace dlbench::runtime {

/// Instruction-set capabilities of the host CPU, probed once at startup.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// Host CPU features (cached; safe to call from any thread).
const CpuFeatures& cpu_features();

/// Which kernel implementation tier the tensor library dispatches to.
/// Each SIMD tier requires both compiler support (its translation unit
/// was built) and runtime support (cpuid reports the features); kScalar
/// is the portable fallback and is always available. Ordered: a higher
/// enumerator strictly implies the lower tiers' features.
enum class SimdLevel { kScalar, kAvx2Fma, kAvx512F };

/// The dispatch decision: the highest level both built and supported,
/// overridable with DLB_SIMD=scalar|avx2|avx512|auto (default auto; a
/// request cannot raise the level above what build+CPU support, and
/// "avx2" caps an AVX-512 host at the AVX2 tier). Any other value
/// throws dlbench::Error naming the variable. Resolved once on first
/// call and cached.
SimdLevel active_simd_level();

/// "scalar", "avx2+fma" or "avx512f" — for logs, benches and reports.
const char* simd_level_name(SimdLevel level);

/// Where/how tensor kernels execute. Value-semantic handle; cheap to copy.
class Device {
 public:
  enum class Kind { kCpu, kGpu };

  /// Serial device (paper's "CPU" runs).
  static Device cpu();

  /// Parallel device over all hardware cores (paper's "GPU" runs).
  static Device gpu();

  /// Parallel device with an explicit worker count (tests/ablation).
  static Device parallel(std::size_t workers);

  Kind kind() const { return kind_; }
  std::string name() const { return kind_ == Kind::kCpu ? "CPU" : "GPU"; }
  bool is_parallel() const { return pool_ != nullptr; }
  std::size_t workers() const { return pool_ ? pool_->size() : 1; }

  /// Runs fn over [0, count): serially on CPU, chunked across the pool
  /// on GPU. `grain` is the minimum work per chunk; counts below it run
  /// inline even on the parallel device (kernel-launch economics), and
  /// above it the split is min(workers, ceil(count/grain)) chunks so
  /// every dispatched chunk still carries at least `grain` indices.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 1) const;

 private:
  Device(Kind kind, std::shared_ptr<ThreadPool> pool)
      : kind_(kind), pool_(std::move(pool)) {}

  Kind kind_;
  std::shared_ptr<ThreadPool> pool_;  // null → serial
};

}  // namespace dlbench::runtime
