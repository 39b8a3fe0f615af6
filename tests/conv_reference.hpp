#pragma once

// The explicit im2col/col2im lowering, kept as a test oracle for the
// library's conv kernels (tensor/conv.cpp), which never stage the
// column matrix. `columns` is [patch_size, out_h*out_w] row-major; row
// (c, ky, kx) holds that kernel tap's input value at every output
// position, zero where the tap falls in the padding. Per kernel column
// the in-image output range is hoisted, so each image row is a copy
// (im2col) or an add loop (col2im) over one run.
//
// Also the GEMM fma-chain oracle: every output element as the one
// ascending-k chain the GEMM determinism contract (gemm_kernel.hpp)
// promises, rounded as the active tier rounds.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm_kernel.hpp"

namespace dlbench::tensor {

// Whether the active GEMM tier fuses each step. The rounding contract
// (DESIGN.md §11) lets the portable scalar kernel round the product on
// its own where the compiler does not contract it (a target without
// FMA, or an instrumented sanitizer build); the chain order is the same
// either way. Read off a two-step chain c + a*a whose fused and
// separately rounded results differ (2^-24 versus 0).
inline bool gemm_fuses() {
  const float a = 1.f + 0x1p-12f;
  const float lhs[] = {1.f, a};
  const float rhs[] = {-(1.f + 0x1p-11f), a};
  float out = 0.f;
  gemm_packed(lhs, 2, 1, rhs, 1, 1, &out, 1, 2, 1, GemmEpilogue::kNone,
              nullptr, runtime::Device::cpu());
  return out != 0.f;
}

/// C = A * B for row-major A [m, k] and B [k, n], each element the chain
/// acc = c[i, j] (the chain's start, overwritten with its end); for p =
/// 0..k-1 in order: acc = acc + A(i, p) * B(p, j), one fma per step when
/// `fused`, a separately rounded product otherwise.
inline void gemm_chain_oracle(const float* a, const float* b, float* c,
                              std::int64_t m, std::int64_t k, std::int64_t n,
                              bool fused) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* acc = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* brow = b + p * n;
      for (std::int64_t j = 0; j < n; ++j)
        // The double product of two floats is exact, so the cast rounds
        // it once, and no compiler can fuse it into the add.
        acc[j] = fused ? std::fma(av, brow[j], acc[j])
                       : acc[j] + static_cast<float>(
                                      static_cast<double>(av) * brow[j]);
    }
  }
}

namespace reference_detail {

// Output columns [lo, hi) whose input column ix = x*stride + kx - pad
// lies inside the image for kernel column kx; lo == hi when none does.
struct XRun {
  std::int64_t lo, hi;
};

inline XRun valid_x_run(const ConvGeom& g, std::int64_t kx, std::int64_t ow) {
  const std::int64_t shift = g.pad - kx;  // ix = x*stride - shift
  const std::int64_t lo =
      std::min(ow, shift > 0 ? (shift + g.stride - 1) / g.stride : 0);
  const std::int64_t last = g.in_w - 1 + shift;  // largest valid x*stride
  const std::int64_t hi = last < 0 ? 0 : std::min(ow, last / g.stride + 1);
  return {lo, std::max(lo, hi)};
}

}  // namespace reference_detail

/// Unfolds one image [C, H, W] into the column matrix.
inline void im2col(const float* image, const ConvGeom& g, float* columns) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        float* out_row = columns + row * ohw;
        const auto run = reference_detail::valid_x_run(g, kx, ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          float* out = out_row + y * ow;
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h || run.lo == run.hi) {
            std::fill(out, out + ow, 0.f);
            continue;
          }
          const float* in = image + (c * g.in_h + iy) * g.in_w +
                            run.lo * g.stride + kx - g.pad;
          std::fill(out, out + run.lo, 0.f);
          for (std::int64_t x = run.lo; x < run.hi; ++x)
            out[x] = in[(x - run.lo) * g.stride];
          std::fill(out + run.hi, out + ow, 0.f);
        }
      }
    }
  }
}

/// Folds a column matrix back into an image gradient (overwriting
/// `image`). Same (c, ky, kx, y, x) order as a per-element loop, and
/// within a run every x hits a distinct ix, so each image element
/// receives its additions in the per-element order.
inline void col2im(const float* columns, const ConvGeom& g, float* image) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  std::fill(image, image + g.in_c * g.in_h * g.in_w, 0.f);
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        const float* in_row = columns + row * ohw;
        const auto run = reference_detail::valid_x_run(g, kx, ow);
        if (run.lo == run.hi) continue;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* img = image + (c * g.in_h + iy) * g.in_w +
                       run.lo * g.stride + kx - g.pad;
          const float* src = in_row + y * ow + run.lo;
          for (std::int64_t x = 0; x < run.hi - run.lo; ++x)
            img[x * g.stride] += src[x];
        }
      }
    }
  }
}

}  // namespace dlbench::tensor
