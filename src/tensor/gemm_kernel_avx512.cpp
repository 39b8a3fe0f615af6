// AVX-512F micro-kernels for the packed GEMM (gemm_kernel.hpp).
// Compiled with -mavx512f; like the AVX2 translation unit, nothing here
// may be called unless runtime dispatch selected the kAvx512F tier.
//
// One NR = 16 panel is one zmm, so the 32 zmm registers hold all four
// tile shapes. The single 6 x 16 tile has only 6 accumulator chains
// against a 4-cycle fmadd latency and is latency-bound; the 6 x 32 and
// 12 x 16 tiles run 12 chains and are FMA-throughput-bound; the
// 12 x 32 tile keeps 24 chains and also halves the packed-B loads per
// flop (each B vector feeds 12 rows). run_tiles picks the widest shape
// that fits the panels left.

#include <immintrin.h>

#include "tensor/micro_kernel.hpp"

namespace dlbench::tensor::detail {
namespace {

struct Avx512 {
  using type = __m512;
  static constexpr int kWidth = 16;
  static type load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, type v) { _mm512_storeu_ps(p, v); }
  static type set1(float x) { return _mm512_set1_ps(x); }
  static type zero() { return _mm512_setzero_ps(); }
  static type fma(type a, type b, type c) { return _mm512_fmadd_ps(a, b, c); }
  static type add(type a, type b) { return _mm512_add_ps(a, b); }
  static type max0(type a) { return _mm512_max_ps(a, _mm512_setzero_ps()); }
};

}  // namespace

const MicroKernelTable kAvx512Kernels = {
    {{micro_kernel<Avx512, 1, 1>, micro_kernel<Avx512, 1, 2>},
     {micro_kernel<Avx512, 2, 1>, micro_kernel<Avx512, 2, 2>}},
    2};

}  // namespace dlbench::tensor::detail
