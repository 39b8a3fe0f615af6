// AVX2+FMA micro-kernel for the packed GEMM (gemm_kernel.hpp). This
// translation unit is compiled with -mavx2 -mfma and must contain ONLY
// code that is unreachable unless runtime dispatch selected the
// kAvx2Fma tier — nothing here may be called on a host without AVX2.
//
// Register budget (16 ymm): 6 rows x 2 column vectors = 12 accumulators
// + 2 B vectors + 1 A broadcast = 15. The accumulators are individual
// named __m256 values, NOT a __m256[6][2] array: GCC does not promote
// an indexed accumulator array out of the K loop, and the resulting
// spill/reload of all 12 registers per iteration costs ~3x throughput.
//
// Each accumulator lane holds one C element for the whole K loop: one
// vfmadd per (k, element), k ascending — the same per-element
// operation chain as every other tier, so the SIMD level never moves
// the bits (DESIGN.md §11).

#include <immintrin.h>

#include "tensor/gemm_kernel.hpp"
#include "tensor/pack.hpp"

namespace dlbench::tensor::detail {

static_assert(kGemmMR == 6 && kGemmNR == 16,
              "micro-kernel register blocking is hard-coded to 6x16");

void micro_kernel_avx2fma(const float* a_panel, const float* b_panel,
                          std::int64_t k, float* out, std::int64_t ldo,
                          GemmEpilogue epilogue, const float* bias_row,
                          const float* bias_col) {
  __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    c00 = c01 = _mm256_broadcast_ss(bias_row + 0);
    c10 = c11 = _mm256_broadcast_ss(bias_row + 1);
    c20 = c21 = _mm256_broadcast_ss(bias_row + 2);
    c30 = c31 = _mm256_broadcast_ss(bias_row + 3);
    c40 = c41 = _mm256_broadcast_ss(bias_row + 4);
    c50 = c51 = _mm256_broadcast_ss(bias_row + 5);
  } else if (epilogue == GemmEpilogue::kAccumulate) {
    c00 = _mm256_loadu_ps(out + 0 * ldo);
    c01 = _mm256_loadu_ps(out + 0 * ldo + 8);
    c10 = _mm256_loadu_ps(out + 1 * ldo);
    c11 = _mm256_loadu_ps(out + 1 * ldo + 8);
    c20 = _mm256_loadu_ps(out + 2 * ldo);
    c21 = _mm256_loadu_ps(out + 2 * ldo + 8);
    c30 = _mm256_loadu_ps(out + 3 * ldo);
    c31 = _mm256_loadu_ps(out + 3 * ldo + 8);
    c40 = _mm256_loadu_ps(out + 4 * ldo);
    c41 = _mm256_loadu_ps(out + 4 * ldo + 8);
    c50 = _mm256_loadu_ps(out + 5 * ldo);
    c51 = _mm256_loadu_ps(out + 5 * ldo + 8);
  } else {
    c00 = c01 = c10 = c11 = c20 = c21 = _mm256_setzero_ps();
    c30 = c31 = c40 = c41 = c50 = c51 = _mm256_setzero_ps();
  }

  const float* a = a_panel;
  const float* b = b_panel;
  for (std::int64_t kk = 0; kk < k; ++kk, a += kGemmMR, b += kGemmNR) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    __m256 av;
    av = _mm256_broadcast_ss(a + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }

  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    const __m256 v0 = _mm256_loadu_ps(bias_col);
    const __m256 v1 = _mm256_loadu_ps(bias_col + 8);
    c00 = _mm256_add_ps(c00, v0);
    c01 = _mm256_add_ps(c01, v1);
    c10 = _mm256_add_ps(c10, v0);
    c11 = _mm256_add_ps(c11, v1);
    c20 = _mm256_add_ps(c20, v0);
    c21 = _mm256_add_ps(c21, v1);
    c30 = _mm256_add_ps(c30, v0);
    c31 = _mm256_add_ps(c31, v1);
    c40 = _mm256_add_ps(c40, v0);
    c41 = _mm256_add_ps(c41, v1);
    c50 = _mm256_add_ps(c50, v0);
    c51 = _mm256_add_ps(c51, v1);
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    const __m256 zero = _mm256_setzero_ps();
    c00 = _mm256_max_ps(c00, zero);
    c01 = _mm256_max_ps(c01, zero);
    c10 = _mm256_max_ps(c10, zero);
    c11 = _mm256_max_ps(c11, zero);
    c20 = _mm256_max_ps(c20, zero);
    c21 = _mm256_max_ps(c21, zero);
    c30 = _mm256_max_ps(c30, zero);
    c31 = _mm256_max_ps(c31, zero);
    c40 = _mm256_max_ps(c40, zero);
    c41 = _mm256_max_ps(c41, zero);
    c50 = _mm256_max_ps(c50, zero);
    c51 = _mm256_max_ps(c51, zero);
  }

  _mm256_storeu_ps(out + 0 * ldo, c00);
  _mm256_storeu_ps(out + 0 * ldo + 8, c01);
  _mm256_storeu_ps(out + 1 * ldo, c10);
  _mm256_storeu_ps(out + 1 * ldo + 8, c11);
  _mm256_storeu_ps(out + 2 * ldo, c20);
  _mm256_storeu_ps(out + 2 * ldo + 8, c21);
  _mm256_storeu_ps(out + 3 * ldo, c30);
  _mm256_storeu_ps(out + 3 * ldo + 8, c31);
  _mm256_storeu_ps(out + 4 * ldo, c40);
  _mm256_storeu_ps(out + 4 * ldo + 8, c41);
  _mm256_storeu_ps(out + 5 * ldo, c50);
  _mm256_storeu_ps(out + 5 * ldo + 8, c51);
}

}  // namespace dlbench::tensor::detail
