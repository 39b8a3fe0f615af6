// AVX2+FMA micro-kernel for the packed GEMM (gemm_kernel.hpp). This
// translation unit is compiled with -mavx2 -mfma and must contain ONLY
// code that is unreachable unless runtime dispatch selected the
// kAvx2Fma tier — nothing here may be called on a host without AVX2.
//
// Register budget (16 ymm): the 6 x 16 tile takes 12 accumulators + 2 B
// vectors + 1 A broadcast = 15. Any wider tile would spill, so this
// tier's table holds only the 6 x 16 shape.

#include <immintrin.h>

#include "tensor/micro_kernel.hpp"

namespace dlbench::tensor::detail {
namespace {

struct Avx2Fma {
  using type = __m256;
  static constexpr int kWidth = 8;
  static type load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, type v) { _mm256_storeu_ps(p, v); }
  static type set1(float x) { return _mm256_set1_ps(x); }
  static type zero() { return _mm256_setzero_ps(); }
  static type fma(type a, type b, type c) { return _mm256_fmadd_ps(a, b, c); }
  static type add(type a, type b) { return _mm256_add_ps(a, b); }
  static type max0(type a) { return _mm256_max_ps(a, _mm256_setzero_ps()); }
};

}  // namespace

const MicroKernelTable kAvx2Kernels = {
    {{micro_kernel<Avx2Fma, 1, 1>, nullptr}, {nullptr, nullptr}}, 1};

}  // namespace dlbench::tensor::detail
