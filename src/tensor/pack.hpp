#pragma once

// Panel packing for the blocked GEMM micro-kernel (gemm_kernel.hpp).
//
// The micro-kernel computes an MR x NR tile of C with all accumulators
// in registers. To feed it with unit-stride streams regardless of the
// logical operand layout (N/T variants are expressed as strides), A and
// B are repacked once per GEMM call:
//
//   A (M x K)  ->  ceil(M/MR) row panels, each K x MR column-major:
//                  a_pack[p][k*MR + r] = A(p*MR + r, k)
//   B (K x N)  ->  ceil(N/NR) column panels, each K x NR row-major:
//                  b_pack[p][k*NR + j] = B(k, p*NR + j)
//
// Edge panels (M % MR, N % NR) are zero-padded to full width, so the
// micro-kernel never branches on tile size; padded lanes produce zeros
// that are simply not copied out. Packing is a pure reordering copy —
// it is deterministic and parallelizes over panels.

#include <cstdint>

#include "runtime/device.hpp"

namespace dlbench::tensor {

/// Register-block dimensions shared by the packing layout and every
/// micro-kernel implementation. MR*NR accumulators must fit the
/// architectural register file: 6 x 16 floats = 12 of 16 ymm registers
/// on AVX2, leaving room for 2 B-vectors and 1 A-broadcast.
inline constexpr std::int64_t kGemmMR = 6;
inline constexpr std::int64_t kGemmNR = 16;

inline std::int64_t gemm_row_panels(std::int64_t m) {
  return (m + kGemmMR - 1) / kGemmMR;
}
inline std::int64_t gemm_col_panels(std::int64_t n) {
  return (n + kGemmNR - 1) / kGemmNR;
}

/// Packs A(M x K), where A(m, k) = a[m*row_stride + k*col_stride], into
/// `dst` (gemm_row_panels(M) * K * MR floats). Parallel over panels.
void pack_a_panels(const float* a, std::int64_t row_stride,
                   std::int64_t col_stride, std::int64_t m, std::int64_t k,
                   float* dst, const runtime::Device& dev);

/// Packs B(K x N), where B(k, n) = b[k*row_stride + n*col_stride], into
/// `dst` (gemm_col_panels(N) * K * NR floats). Parallel over panels.
void pack_b_panels(const float* b, std::int64_t row_stride,
                   std::int64_t col_stride, std::int64_t k, std::int64_t n,
                   float* dst, const runtime::Device& dev);

/// Packs column panels [p0, p1) of B into `dst` ((p1 - p0) * K * NR
/// floats), on the calling thread: the panels pack_b_panels would write
/// at dst + p * K * NR. One worker's block of gemm_packed's column split.
void pack_b_panel_range(const float* b, std::int64_t row_stride,
                        std::int64_t col_stride, std::int64_t k,
                        std::int64_t n, std::int64_t p0, std::int64_t p1,
                        float* dst);

}  // namespace dlbench::tensor
