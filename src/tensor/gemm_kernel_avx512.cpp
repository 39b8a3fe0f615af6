// AVX-512F micro-kernel for the packed GEMM (gemm_kernel.hpp).
// Compiled with -mavx512f; like the AVX2 translation units, nothing
// here may be called unless runtime dispatch selected the kAvx512F
// tier.
//
// One NR=16 panel is exactly one zmm register, so this kernel is the
// AVX2 kernel at double width: 6 zmm accumulators + 1 B vector + 1 A
// broadcast, half the loop iterations' worth of uops per flop. The
// lanes of a vector are independent C elements, and each element still
// accumulates through the same single fma chain over ascending k, so
// the result is bitwise identical to the AVX2+FMA and contracted
// scalar tiers — vector width never changes per-element rounding or
// order (DESIGN.md §11). Named accumulators, not an array — see the
// spill note in gemm_kernel_avx2.cpp.

#include <immintrin.h>

#include "tensor/gemm_kernel.hpp"
#include "tensor/pack.hpp"

namespace dlbench::tensor::detail {

static_assert(kGemmMR == 6 && kGemmNR == 16,
              "micro-kernel register blocking is hard-coded to 6x16");

void micro_kernel_avx512(const float* a_panel, const float* b_panel,
                         std::int64_t k, float* out, std::int64_t ldo,
                         GemmEpilogue epilogue, const float* bias_row,
                         const float* bias_col) {
  __m512 c0, c1, c2, c3, c4, c5;
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    c0 = _mm512_set1_ps(bias_row[0]);
    c1 = _mm512_set1_ps(bias_row[1]);
    c2 = _mm512_set1_ps(bias_row[2]);
    c3 = _mm512_set1_ps(bias_row[3]);
    c4 = _mm512_set1_ps(bias_row[4]);
    c5 = _mm512_set1_ps(bias_row[5]);
  } else if (epilogue == GemmEpilogue::kAccumulate) {
    c0 = _mm512_loadu_ps(out + 0 * ldo);
    c1 = _mm512_loadu_ps(out + 1 * ldo);
    c2 = _mm512_loadu_ps(out + 2 * ldo);
    c3 = _mm512_loadu_ps(out + 3 * ldo);
    c4 = _mm512_loadu_ps(out + 4 * ldo);
    c5 = _mm512_loadu_ps(out + 5 * ldo);
  } else {
    c0 = c1 = c2 = c3 = c4 = c5 = _mm512_setzero_ps();
  }

  const float* a = a_panel;
  const float* b = b_panel;
#pragma GCC unroll 4
  for (std::int64_t kk = 0; kk < k; ++kk, a += kGemmMR, b += kGemmNR) {
    const __m512 bv = _mm512_loadu_ps(b);
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(a[0]), bv, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(a[1]), bv, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(a[2]), bv, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(a[3]), bv, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(a[4]), bv, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(a[5]), bv, c5);
  }

  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    const __m512 bias = _mm512_loadu_ps(bias_col);
    c0 = _mm512_add_ps(c0, bias);
    c1 = _mm512_add_ps(c1, bias);
    c2 = _mm512_add_ps(c2, bias);
    c3 = _mm512_add_ps(c3, bias);
    c4 = _mm512_add_ps(c4, bias);
    c5 = _mm512_add_ps(c5, bias);
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    const __m512 zero = _mm512_setzero_ps();
    c0 = _mm512_max_ps(c0, zero);
    c1 = _mm512_max_ps(c1, zero);
    c2 = _mm512_max_ps(c2, zero);
    c3 = _mm512_max_ps(c3, zero);
    c4 = _mm512_max_ps(c4, zero);
    c5 = _mm512_max_ps(c5, zero);
  }

  _mm512_storeu_ps(out + 0 * ldo, c0);
  _mm512_storeu_ps(out + 1 * ldo, c1);
  _mm512_storeu_ps(out + 2 * ldo, c2);
  _mm512_storeu_ps(out + 3 * ldo, c3);
  _mm512_storeu_ps(out + 4 * ldo, c4);
  _mm512_storeu_ps(out + 5 * ldo, c5);
}

// 6 x 32 variant: two adjacent B panels per call. The single-panel
// kernel above has only 6 accumulator chains against a 4-cycle fmadd
// latency, so its K loop is latency-bound near 100 GFLOP/s on this
// class of core; 12 chains (15 zmm live: 12 accumulators + 2 B vectors
// + 1 broadcast) make it throughput-bound instead. Each broadcast of
// A(r, k) feeds both column panels, so the load-port pressure stays at
// 8 loads per iteration.
void micro_kernel_avx512_x2(const float* a_panel, const float* b_panels,
                            std::int64_t k, float* out, std::int64_t ldo,
                            GemmEpilogue epilogue, const float* bias_row,
                            const float* bias_col) {
  __m512 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    c00 = c01 = _mm512_set1_ps(bias_row[0]);
    c10 = c11 = _mm512_set1_ps(bias_row[1]);
    c20 = c21 = _mm512_set1_ps(bias_row[2]);
    c30 = c31 = _mm512_set1_ps(bias_row[3]);
    c40 = c41 = _mm512_set1_ps(bias_row[4]);
    c50 = c51 = _mm512_set1_ps(bias_row[5]);
  } else if (epilogue == GemmEpilogue::kAccumulate) {
    c00 = _mm512_loadu_ps(out + 0 * ldo);
    c01 = _mm512_loadu_ps(out + 0 * ldo + kGemmNR);
    c10 = _mm512_loadu_ps(out + 1 * ldo);
    c11 = _mm512_loadu_ps(out + 1 * ldo + kGemmNR);
    c20 = _mm512_loadu_ps(out + 2 * ldo);
    c21 = _mm512_loadu_ps(out + 2 * ldo + kGemmNR);
    c30 = _mm512_loadu_ps(out + 3 * ldo);
    c31 = _mm512_loadu_ps(out + 3 * ldo + kGemmNR);
    c40 = _mm512_loadu_ps(out + 4 * ldo);
    c41 = _mm512_loadu_ps(out + 4 * ldo + kGemmNR);
    c50 = _mm512_loadu_ps(out + 5 * ldo);
    c51 = _mm512_loadu_ps(out + 5 * ldo + kGemmNR);
  } else {
    c00 = c01 = c10 = c11 = c20 = c21 = _mm512_setzero_ps();
    c30 = c31 = c40 = c41 = c50 = c51 = _mm512_setzero_ps();
  }

  const float* a = a_panel;
  const float* b0 = b_panels;
  const float* b1 = b_panels + k * kGemmNR;
  for (std::int64_t kk = 0; kk < k;
       ++kk, a += kGemmMR, b0 += kGemmNR, b1 += kGemmNR) {
    const __m512 bv0 = _mm512_loadu_ps(b0);
    const __m512 bv1 = _mm512_loadu_ps(b1);
    __m512 av;
    av = _mm512_set1_ps(a[0]);
    c00 = _mm512_fmadd_ps(av, bv0, c00);
    c01 = _mm512_fmadd_ps(av, bv1, c01);
    av = _mm512_set1_ps(a[1]);
    c10 = _mm512_fmadd_ps(av, bv0, c10);
    c11 = _mm512_fmadd_ps(av, bv1, c11);
    av = _mm512_set1_ps(a[2]);
    c20 = _mm512_fmadd_ps(av, bv0, c20);
    c21 = _mm512_fmadd_ps(av, bv1, c21);
    av = _mm512_set1_ps(a[3]);
    c30 = _mm512_fmadd_ps(av, bv0, c30);
    c31 = _mm512_fmadd_ps(av, bv1, c31);
    av = _mm512_set1_ps(a[4]);
    c40 = _mm512_fmadd_ps(av, bv0, c40);
    c41 = _mm512_fmadd_ps(av, bv1, c41);
    av = _mm512_set1_ps(a[5]);
    c50 = _mm512_fmadd_ps(av, bv0, c50);
    c51 = _mm512_fmadd_ps(av, bv1, c51);
  }

  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    const __m512 bias0 = _mm512_loadu_ps(bias_col);
    const __m512 bias1 = _mm512_loadu_ps(bias_col + kGemmNR);
    c00 = _mm512_add_ps(c00, bias0);
    c01 = _mm512_add_ps(c01, bias1);
    c10 = _mm512_add_ps(c10, bias0);
    c11 = _mm512_add_ps(c11, bias1);
    c20 = _mm512_add_ps(c20, bias0);
    c21 = _mm512_add_ps(c21, bias1);
    c30 = _mm512_add_ps(c30, bias0);
    c31 = _mm512_add_ps(c31, bias1);
    c40 = _mm512_add_ps(c40, bias0);
    c41 = _mm512_add_ps(c41, bias1);
    c50 = _mm512_add_ps(c50, bias0);
    c51 = _mm512_add_ps(c51, bias1);
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    const __m512 zero = _mm512_setzero_ps();
    c00 = _mm512_max_ps(c00, zero);
    c01 = _mm512_max_ps(c01, zero);
    c10 = _mm512_max_ps(c10, zero);
    c11 = _mm512_max_ps(c11, zero);
    c20 = _mm512_max_ps(c20, zero);
    c21 = _mm512_max_ps(c21, zero);
    c30 = _mm512_max_ps(c30, zero);
    c31 = _mm512_max_ps(c31, zero);
    c40 = _mm512_max_ps(c40, zero);
    c41 = _mm512_max_ps(c41, zero);
    c50 = _mm512_max_ps(c50, zero);
    c51 = _mm512_max_ps(c51, zero);
  }

  _mm512_storeu_ps(out + 0 * ldo, c00);
  _mm512_storeu_ps(out + 0 * ldo + kGemmNR, c01);
  _mm512_storeu_ps(out + 1 * ldo, c10);
  _mm512_storeu_ps(out + 1 * ldo + kGemmNR, c11);
  _mm512_storeu_ps(out + 2 * ldo, c20);
  _mm512_storeu_ps(out + 2 * ldo + kGemmNR, c21);
  _mm512_storeu_ps(out + 3 * ldo, c30);
  _mm512_storeu_ps(out + 3 * ldo + kGemmNR, c31);
  _mm512_storeu_ps(out + 4 * ldo, c40);
  _mm512_storeu_ps(out + 4 * ldo + kGemmNR, c41);
  _mm512_storeu_ps(out + 5 * ldo, c50);
  _mm512_storeu_ps(out + 5 * ldo + kGemmNR, c51);
}

// 12 x 16 tile: two row panels against one B panel, for a leftover
// odd column panel and for N <= 16 (a 10-class output layer). 12
// accumulators + 1 B vector + 1 broadcast; each B load feeds 12 rows,
// where two single-panel calls would load it twice and run two
// 6-chain, latency-bound K loops one after the other.
void micro_kernel_avx512_2x1(const float* a_panels, const float* b_panel,
                             std::int64_t k, float* out, std::int64_t ldo,
                             GemmEpilogue epilogue, const float* bias_row,
                             const float* bias_col) {
  __m512 c0, c1, c2, c3, c4, c5, d0, d1, d2, d3, d4, d5;
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    c0 = _mm512_set1_ps(bias_row[0]);
    c1 = _mm512_set1_ps(bias_row[1]);
    c2 = _mm512_set1_ps(bias_row[2]);
    c3 = _mm512_set1_ps(bias_row[3]);
    c4 = _mm512_set1_ps(bias_row[4]);
    c5 = _mm512_set1_ps(bias_row[5]);
    d0 = _mm512_set1_ps(bias_row[6]);
    d1 = _mm512_set1_ps(bias_row[7]);
    d2 = _mm512_set1_ps(bias_row[8]);
    d3 = _mm512_set1_ps(bias_row[9]);
    d4 = _mm512_set1_ps(bias_row[10]);
    d5 = _mm512_set1_ps(bias_row[11]);
  } else if (epilogue == GemmEpilogue::kAccumulate) {
    c0 = _mm512_loadu_ps(out + 0 * ldo);
    c1 = _mm512_loadu_ps(out + 1 * ldo);
    c2 = _mm512_loadu_ps(out + 2 * ldo);
    c3 = _mm512_loadu_ps(out + 3 * ldo);
    c4 = _mm512_loadu_ps(out + 4 * ldo);
    c5 = _mm512_loadu_ps(out + 5 * ldo);
    d0 = _mm512_loadu_ps(out + 6 * ldo);
    d1 = _mm512_loadu_ps(out + 7 * ldo);
    d2 = _mm512_loadu_ps(out + 8 * ldo);
    d3 = _mm512_loadu_ps(out + 9 * ldo);
    d4 = _mm512_loadu_ps(out + 10 * ldo);
    d5 = _mm512_loadu_ps(out + 11 * ldo);
  } else {
    c0 = c1 = c2 = c3 = c4 = c5 = _mm512_setzero_ps();
    d0 = d1 = d2 = d3 = d4 = d5 = _mm512_setzero_ps();
  }

  const float* a0 = a_panels;
  const float* a1 = a_panels + k * kGemmMR;
  const float* b = b_panel;
  for (std::int64_t kk = 0; kk < k;
       ++kk, a0 += kGemmMR, a1 += kGemmMR, b += kGemmNR) {
    const __m512 bv = _mm512_loadu_ps(b);
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(a0[0]), bv, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(a0[1]), bv, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(a0[2]), bv, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(a0[3]), bv, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(a0[4]), bv, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(a0[5]), bv, c5);
    d0 = _mm512_fmadd_ps(_mm512_set1_ps(a1[0]), bv, d0);
    d1 = _mm512_fmadd_ps(_mm512_set1_ps(a1[1]), bv, d1);
    d2 = _mm512_fmadd_ps(_mm512_set1_ps(a1[2]), bv, d2);
    d3 = _mm512_fmadd_ps(_mm512_set1_ps(a1[3]), bv, d3);
    d4 = _mm512_fmadd_ps(_mm512_set1_ps(a1[4]), bv, d4);
    d5 = _mm512_fmadd_ps(_mm512_set1_ps(a1[5]), bv, d5);
  }

  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    const __m512 bias = _mm512_loadu_ps(bias_col);
    c0 = _mm512_add_ps(c0, bias);
    c1 = _mm512_add_ps(c1, bias);
    c2 = _mm512_add_ps(c2, bias);
    c3 = _mm512_add_ps(c3, bias);
    c4 = _mm512_add_ps(c4, bias);
    c5 = _mm512_add_ps(c5, bias);
    d0 = _mm512_add_ps(d0, bias);
    d1 = _mm512_add_ps(d1, bias);
    d2 = _mm512_add_ps(d2, bias);
    d3 = _mm512_add_ps(d3, bias);
    d4 = _mm512_add_ps(d4, bias);
    d5 = _mm512_add_ps(d5, bias);
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    const __m512 zero = _mm512_setzero_ps();
    c0 = _mm512_max_ps(c0, zero);
    c1 = _mm512_max_ps(c1, zero);
    c2 = _mm512_max_ps(c2, zero);
    c3 = _mm512_max_ps(c3, zero);
    c4 = _mm512_max_ps(c4, zero);
    c5 = _mm512_max_ps(c5, zero);
    d0 = _mm512_max_ps(d0, zero);
    d1 = _mm512_max_ps(d1, zero);
    d2 = _mm512_max_ps(d2, zero);
    d3 = _mm512_max_ps(d3, zero);
    d4 = _mm512_max_ps(d4, zero);
    d5 = _mm512_max_ps(d5, zero);
  }

  _mm512_storeu_ps(out + 0 * ldo, c0);
  _mm512_storeu_ps(out + 1 * ldo, c1);
  _mm512_storeu_ps(out + 2 * ldo, c2);
  _mm512_storeu_ps(out + 3 * ldo, c3);
  _mm512_storeu_ps(out + 4 * ldo, c4);
  _mm512_storeu_ps(out + 5 * ldo, c5);
  _mm512_storeu_ps(out + 6 * ldo, d0);
  _mm512_storeu_ps(out + 7 * ldo, d1);
  _mm512_storeu_ps(out + 8 * ldo, d2);
  _mm512_storeu_ps(out + 9 * ldo, d3);
  _mm512_storeu_ps(out + 10 * ldo, d4);
  _mm512_storeu_ps(out + 11 * ldo, d5);
}

// 12 x 32 quad tile: two row panels x two column panels. 24
// accumulators + 2 B vectors + 2 A broadcasts = 28 live zmm of the 32
// architectural registers; every packed-B load now amortizes over 12
// output rows, halving the dominant L2 stream of the macro loop (the
// packed-B block is re-read once per row panel otherwise). Still
// FMA-throughput-bound: 24 fmadds vs 14 loads per iteration.
void micro_kernel_avx512_2x2(const float* a_panels, const float* b_panels,
                             std::int64_t k, float* out, std::int64_t ldo,
                             GemmEpilogue epilogue, const float* bias_row,
                             const float* bias_col) {
  __m512 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  __m512 d00, d01, d10, d11, d20, d21, d30, d31, d40, d41, d50, d51;
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    c00 = c01 = _mm512_set1_ps(bias_row[0]);
    c10 = c11 = _mm512_set1_ps(bias_row[1]);
    c20 = c21 = _mm512_set1_ps(bias_row[2]);
    c30 = c31 = _mm512_set1_ps(bias_row[3]);
    c40 = c41 = _mm512_set1_ps(bias_row[4]);
    c50 = c51 = _mm512_set1_ps(bias_row[5]);
    d00 = d01 = _mm512_set1_ps(bias_row[6]);
    d10 = d11 = _mm512_set1_ps(bias_row[7]);
    d20 = d21 = _mm512_set1_ps(bias_row[8]);
    d30 = d31 = _mm512_set1_ps(bias_row[9]);
    d40 = d41 = _mm512_set1_ps(bias_row[10]);
    d50 = d51 = _mm512_set1_ps(bias_row[11]);
  } else if (epilogue == GemmEpilogue::kAccumulate) {
    c00 = _mm512_loadu_ps(out + 0 * ldo);
    c01 = _mm512_loadu_ps(out + 0 * ldo + kGemmNR);
    c10 = _mm512_loadu_ps(out + 1 * ldo);
    c11 = _mm512_loadu_ps(out + 1 * ldo + kGemmNR);
    c20 = _mm512_loadu_ps(out + 2 * ldo);
    c21 = _mm512_loadu_ps(out + 2 * ldo + kGemmNR);
    c30 = _mm512_loadu_ps(out + 3 * ldo);
    c31 = _mm512_loadu_ps(out + 3 * ldo + kGemmNR);
    c40 = _mm512_loadu_ps(out + 4 * ldo);
    c41 = _mm512_loadu_ps(out + 4 * ldo + kGemmNR);
    c50 = _mm512_loadu_ps(out + 5 * ldo);
    c51 = _mm512_loadu_ps(out + 5 * ldo + kGemmNR);
    d00 = _mm512_loadu_ps(out + 6 * ldo);
    d01 = _mm512_loadu_ps(out + 6 * ldo + kGemmNR);
    d10 = _mm512_loadu_ps(out + 7 * ldo);
    d11 = _mm512_loadu_ps(out + 7 * ldo + kGemmNR);
    d20 = _mm512_loadu_ps(out + 8 * ldo);
    d21 = _mm512_loadu_ps(out + 8 * ldo + kGemmNR);
    d30 = _mm512_loadu_ps(out + 9 * ldo);
    d31 = _mm512_loadu_ps(out + 9 * ldo + kGemmNR);
    d40 = _mm512_loadu_ps(out + 10 * ldo);
    d41 = _mm512_loadu_ps(out + 10 * ldo + kGemmNR);
    d50 = _mm512_loadu_ps(out + 11 * ldo);
    d51 = _mm512_loadu_ps(out + 11 * ldo + kGemmNR);
  } else {
    c00 = c01 = c10 = c11 = c20 = c21 = _mm512_setzero_ps();
    c30 = c31 = c40 = c41 = c50 = c51 = _mm512_setzero_ps();
    d00 = d01 = d10 = d11 = d20 = d21 = _mm512_setzero_ps();
    d30 = d31 = d40 = d41 = d50 = d51 = _mm512_setzero_ps();
  }

  const float* a0 = a_panels;
  const float* a1 = a_panels + k * kGemmMR;
  const float* b0 = b_panels;
  const float* b1 = b_panels + k * kGemmNR;
  for (std::int64_t kk = 0; kk < k;
       ++kk, a0 += kGemmMR, a1 += kGemmMR, b0 += kGemmNR, b1 += kGemmNR) {
    const __m512 bv0 = _mm512_loadu_ps(b0);
    const __m512 bv1 = _mm512_loadu_ps(b1);
    __m512 av;
    av = _mm512_set1_ps(a0[0]);
    c00 = _mm512_fmadd_ps(av, bv0, c00);
    c01 = _mm512_fmadd_ps(av, bv1, c01);
    av = _mm512_set1_ps(a0[1]);
    c10 = _mm512_fmadd_ps(av, bv0, c10);
    c11 = _mm512_fmadd_ps(av, bv1, c11);
    av = _mm512_set1_ps(a0[2]);
    c20 = _mm512_fmadd_ps(av, bv0, c20);
    c21 = _mm512_fmadd_ps(av, bv1, c21);
    av = _mm512_set1_ps(a0[3]);
    c30 = _mm512_fmadd_ps(av, bv0, c30);
    c31 = _mm512_fmadd_ps(av, bv1, c31);
    av = _mm512_set1_ps(a0[4]);
    c40 = _mm512_fmadd_ps(av, bv0, c40);
    c41 = _mm512_fmadd_ps(av, bv1, c41);
    av = _mm512_set1_ps(a0[5]);
    c50 = _mm512_fmadd_ps(av, bv0, c50);
    c51 = _mm512_fmadd_ps(av, bv1, c51);
    av = _mm512_set1_ps(a1[0]);
    d00 = _mm512_fmadd_ps(av, bv0, d00);
    d01 = _mm512_fmadd_ps(av, bv1, d01);
    av = _mm512_set1_ps(a1[1]);
    d10 = _mm512_fmadd_ps(av, bv0, d10);
    d11 = _mm512_fmadd_ps(av, bv1, d11);
    av = _mm512_set1_ps(a1[2]);
    d20 = _mm512_fmadd_ps(av, bv0, d20);
    d21 = _mm512_fmadd_ps(av, bv1, d21);
    av = _mm512_set1_ps(a1[3]);
    d30 = _mm512_fmadd_ps(av, bv0, d30);
    d31 = _mm512_fmadd_ps(av, bv1, d31);
    av = _mm512_set1_ps(a1[4]);
    d40 = _mm512_fmadd_ps(av, bv0, d40);
    d41 = _mm512_fmadd_ps(av, bv1, d41);
    av = _mm512_set1_ps(a1[5]);
    d50 = _mm512_fmadd_ps(av, bv0, d50);
    d51 = _mm512_fmadd_ps(av, bv1, d51);
  }

  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    const __m512 bias0 = _mm512_loadu_ps(bias_col);
    const __m512 bias1 = _mm512_loadu_ps(bias_col + kGemmNR);
    c00 = _mm512_add_ps(c00, bias0);
    c01 = _mm512_add_ps(c01, bias1);
    c10 = _mm512_add_ps(c10, bias0);
    c11 = _mm512_add_ps(c11, bias1);
    c20 = _mm512_add_ps(c20, bias0);
    c21 = _mm512_add_ps(c21, bias1);
    c30 = _mm512_add_ps(c30, bias0);
    c31 = _mm512_add_ps(c31, bias1);
    c40 = _mm512_add_ps(c40, bias0);
    c41 = _mm512_add_ps(c41, bias1);
    c50 = _mm512_add_ps(c50, bias0);
    c51 = _mm512_add_ps(c51, bias1);
    d00 = _mm512_add_ps(d00, bias0);
    d01 = _mm512_add_ps(d01, bias1);
    d10 = _mm512_add_ps(d10, bias0);
    d11 = _mm512_add_ps(d11, bias1);
    d20 = _mm512_add_ps(d20, bias0);
    d21 = _mm512_add_ps(d21, bias1);
    d30 = _mm512_add_ps(d30, bias0);
    d31 = _mm512_add_ps(d31, bias1);
    d40 = _mm512_add_ps(d40, bias0);
    d41 = _mm512_add_ps(d41, bias1);
    d50 = _mm512_add_ps(d50, bias0);
    d51 = _mm512_add_ps(d51, bias1);
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    const __m512 zero = _mm512_setzero_ps();
    c00 = _mm512_max_ps(c00, zero);
    c01 = _mm512_max_ps(c01, zero);
    c10 = _mm512_max_ps(c10, zero);
    c11 = _mm512_max_ps(c11, zero);
    c20 = _mm512_max_ps(c20, zero);
    c21 = _mm512_max_ps(c21, zero);
    c30 = _mm512_max_ps(c30, zero);
    c31 = _mm512_max_ps(c31, zero);
    c40 = _mm512_max_ps(c40, zero);
    c41 = _mm512_max_ps(c41, zero);
    c50 = _mm512_max_ps(c50, zero);
    c51 = _mm512_max_ps(c51, zero);
    d00 = _mm512_max_ps(d00, zero);
    d01 = _mm512_max_ps(d01, zero);
    d10 = _mm512_max_ps(d10, zero);
    d11 = _mm512_max_ps(d11, zero);
    d20 = _mm512_max_ps(d20, zero);
    d21 = _mm512_max_ps(d21, zero);
    d30 = _mm512_max_ps(d30, zero);
    d31 = _mm512_max_ps(d31, zero);
    d40 = _mm512_max_ps(d40, zero);
    d41 = _mm512_max_ps(d41, zero);
    d50 = _mm512_max_ps(d50, zero);
    d51 = _mm512_max_ps(d51, zero);
  }

  _mm512_storeu_ps(out + 0 * ldo, c00);
  _mm512_storeu_ps(out + 0 * ldo + kGemmNR, c01);
  _mm512_storeu_ps(out + 1 * ldo, c10);
  _mm512_storeu_ps(out + 1 * ldo + kGemmNR, c11);
  _mm512_storeu_ps(out + 2 * ldo, c20);
  _mm512_storeu_ps(out + 2 * ldo + kGemmNR, c21);
  _mm512_storeu_ps(out + 3 * ldo, c30);
  _mm512_storeu_ps(out + 3 * ldo + kGemmNR, c31);
  _mm512_storeu_ps(out + 4 * ldo, c40);
  _mm512_storeu_ps(out + 4 * ldo + kGemmNR, c41);
  _mm512_storeu_ps(out + 5 * ldo, c50);
  _mm512_storeu_ps(out + 5 * ldo + kGemmNR, c51);
  _mm512_storeu_ps(out + 6 * ldo, d00);
  _mm512_storeu_ps(out + 6 * ldo + kGemmNR, d01);
  _mm512_storeu_ps(out + 7 * ldo, d10);
  _mm512_storeu_ps(out + 7 * ldo + kGemmNR, d11);
  _mm512_storeu_ps(out + 8 * ldo, d20);
  _mm512_storeu_ps(out + 8 * ldo + kGemmNR, d21);
  _mm512_storeu_ps(out + 9 * ldo, d30);
  _mm512_storeu_ps(out + 9 * ldo + kGemmNR, d31);
  _mm512_storeu_ps(out + 10 * ldo, d40);
  _mm512_storeu_ps(out + 10 * ldo + kGemmNR, d41);
  _mm512_storeu_ps(out + 11 * ldo, d50);
  _mm512_storeu_ps(out + 11 * ldo + kGemmNR, d51);
}

}  // namespace dlbench::tensor::detail
