#include "tensor/pack.hpp"

#include <algorithm>
#include <cstring>

namespace dlbench::tensor {

using runtime::Device;

void pack_a_panels(const float* a, std::int64_t row_stride,
                   std::int64_t col_stride, std::int64_t m, std::int64_t k,
                   float* dst, const Device& dev) {
  const std::int64_t panels = gemm_row_panels(m);
  dev.parallel_for(
      static_cast<std::size_t>(panels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const std::int64_t m0 = static_cast<std::int64_t>(p) * kGemmMR;
          const std::int64_t rows = std::min(kGemmMR, m - m0);
          float* panel = dst + static_cast<std::int64_t>(p) * k * kGemmMR;
          if (col_stride == 1) {
            // Row-major A: gather MR strided rows, write column-major.
            for (std::int64_t kk = 0; kk < k; ++kk) {
              float* out = panel + kk * kGemmMR;
              for (std::int64_t r = 0; r < rows; ++r)
                out[r] = a[(m0 + r) * row_stride + kk];
              for (std::int64_t r = rows; r < kGemmMR; ++r) out[r] = 0.f;
            }
          } else {
            // Transposed A (row_stride == 1): each k reads MR contiguous
            // floats.
            for (std::int64_t kk = 0; kk < k; ++kk) {
              const float* src = a + kk * col_stride + m0 * row_stride;
              float* out = panel + kk * kGemmMR;
              for (std::int64_t r = 0; r < rows; ++r)
                out[r] = src[r * row_stride];
              for (std::int64_t r = rows; r < kGemmMR; ++r) out[r] = 0.f;
            }
          }
        }
      },
      4);
}

namespace {

// Transposed-B packing scatters each source column down a panel at a
// 64 B stride; it runs kPackKTile rows of k at a time so the 4 KB of
// panel being written stays in L1 across the panel's 16 columns.
constexpr std::int64_t kPackKTile = 64;

}  // namespace

void pack_b_panel_range(const float* b, std::int64_t row_stride,
                        std::int64_t col_stride, std::int64_t k,
                        std::int64_t n, std::int64_t p0, std::int64_t p1,
                        float* dst) {
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t n0 = p * kGemmNR;
    const std::int64_t cols = std::min(kGemmNR, n - n0);
    float* panel = dst + (p - p0) * k * kGemmNR;
    if (col_stride == 1 && cols == kGemmNR) {
      // Row-major B, full panel: contiguous 16-float row copies.
      for (std::int64_t kk = 0; kk < k; ++kk)
        std::memcpy(panel + kk * kGemmNR, b + kk * row_stride + n0,
                    static_cast<std::size_t>(kGemmNR) * sizeof(float));
    } else if (col_stride == 1) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        float* out = panel + kk * kGemmNR;
        const float* src = b + kk * row_stride + n0;
        for (std::int64_t j = 0; j < cols; ++j) out[j] = src[j];
        for (std::int64_t j = cols; j < kGemmNR; ++j) out[j] = 0.f;
      }
    } else {
      // Transposed B (row_stride == 1): read each source column
      // contiguously in k, scatter into the panel one k tile at a time.
      for (std::int64_t k0 = 0; k0 < k; k0 += kPackKTile) {
        const std::int64_t k1 = std::min(k, k0 + kPackKTile);
        for (std::int64_t j = 0; j < cols; ++j) {
          const float* src = b + (n0 + j) * col_stride;
          for (std::int64_t kk = k0; kk < k1; ++kk)
            panel[kk * kGemmNR + j] = src[kk * row_stride];
        }
        for (std::int64_t kk = k0; kk < k1; ++kk)
          for (std::int64_t j = cols; j < kGemmNR; ++j)
            panel[kk * kGemmNR + j] = 0.f;
      }
    }
  }
}

void pack_b_panels(const float* b, std::int64_t row_stride,
                   std::int64_t col_stride, std::int64_t k, std::int64_t n,
                   float* dst, const Device& dev) {
  dev.parallel_for(
      static_cast<std::size_t>(gemm_col_panels(n)),
      [&](std::size_t lo, std::size_t hi) {
        const auto p0 = static_cast<std::int64_t>(lo);
        pack_b_panel_range(b, row_stride, col_stride, k, n, p0,
                           static_cast<std::int64_t>(hi),
                           dst + p0 * k * kGemmNR);
      },
      4);
}

}  // namespace dlbench::tensor
