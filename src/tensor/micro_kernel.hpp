#pragma once

// The one packed-GEMM micro-kernel body (gemm_kernel.hpp), private to
// src/tensor. Each SIMD tier's translation unit includes it with a
// vector-traits struct V and instantiates the tile shapes its
// MicroKernelTable lists:
//
//   struct V {
//     using type = ...;               // one vector of kWidth floats
//     static constexpr int kWidth;    // divides kGemmNR
//     static type load(const float*); static void store(float*, type);
//     static type set1(float); static type zero();
//     static type fma(type a, type b, type c);  // a*b + c, fused if FMA
//     static type add(type, type); static type max0(type);
//   };
//
// V must be declared in an anonymous namespace of that TU. Then every
// micro_kernel<V, ...> has internal linkage, and the linker cannot
// merge an instantiation compiled with -mavx512f into another tier,
// where it would fault on a CPU without AVX-512.
//
// Accumulators are an indexed array, and every loop over it carries
// `#pragma GCC unroll`: fully unrolled, each element is a named value
// GCC keeps in a register for the whole K loop (the 12 x 32 AVX-512
// tile holds 24 accumulators, 2 B vectors and 1 broadcast in 27 of the
// 32 zmm). Each lane is one C element, updated by one V::fma per k in
// ascending k, so tier and tile shape never change the bits (the
// determinism contract in gemm_kernel.hpp).

#include <cstdint>

#include "tensor/gemm_kernel.hpp"
#include "tensor/pack.hpp"

namespace dlbench::tensor::detail {

/// The RP x CP tile kernel of tier V; arguments as for MicroKernelFn.
template <class V, int RP, int CP>
void micro_kernel(const float* a_panels, const float* b_panels,
                  std::int64_t k, float* out, std::int64_t ldo,
                  GemmEpilogue epilogue, const float* bias_row,
                  const float* bias_col) {
  static_assert(kGemmNR % V::kWidth == 0, "a B panel row is whole vectors");
  constexpr int kRows = RP * kGemmMR;
  constexpr int kVecs = CP * kGemmNR / V::kWidth;  // vectors per tile row
  constexpr int kPanelVecs = kGemmNR / V::kWidth;  // vectors per B panel
  using T = typename V::type;
  T c[kRows][kVecs];
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      const T v = V::set1(bias_row[r]);
#pragma GCC unroll 16
      for (int j = 0; j < kVecs; ++j) c[r][j] = v;
    }
  } else if (epilogue == GemmEpilogue::kAccumulate) {
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r)
#pragma GCC unroll 16
      for (int j = 0; j < kVecs; ++j)
        c[r][j] = V::load(out + r * ldo + j * V::kWidth);
  } else {
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r)
#pragma GCC unroll 16
      for (int j = 0; j < kVecs; ++j) c[r][j] = V::zero();
  }

  const float* a[RP];
  const float* b[CP];
#pragma GCC unroll 16
  for (int p = 0; p < RP; ++p) a[p] = a_panels + p * k * kGemmMR;
#pragma GCC unroll 16
  for (int p = 0; p < CP; ++p) b[p] = b_panels + p * k * kGemmNR;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    T bv[kVecs];
#pragma GCC unroll 16
    for (int j = 0; j < kVecs; ++j)
      bv[j] = V::load(b[j / kPanelVecs] + j % kPanelVecs * V::kWidth);
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      const T av = V::set1(a[r / kGemmMR][r % kGemmMR]);
#pragma GCC unroll 16
      for (int j = 0; j < kVecs; ++j) c[r][j] = V::fma(av, bv[j], c[r][j]);
    }
#pragma GCC unroll 16
    for (int p = 0; p < RP; ++p) a[p] += kGemmMR;
#pragma GCC unroll 16
    for (int p = 0; p < CP; ++p) b[p] += kGemmNR;
  }

  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
#pragma GCC unroll 16
    for (int j = 0; j < kVecs; ++j) {
      const T v = V::load(bias_col + j * V::kWidth);
#pragma GCC unroll 16
      for (int r = 0; r < kRows; ++r) c[r][j] = V::add(c[r][j], v);
    }
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r)
#pragma GCC unroll 16
      for (int j = 0; j < kVecs; ++j) c[r][j] = V::max0(c[r][j]);
  }
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r)
#pragma GCC unroll 16
    for (int j = 0; j < kVecs; ++j)
      V::store(out + r * ldo + j * V::kWidth, c[r][j]);
}

}  // namespace dlbench::tensor::detail
