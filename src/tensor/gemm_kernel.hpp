#pragma once

// Packed-panel, register-blocked GEMM — the micro-kernel layer under
// every matmul and im2col convolution (DESIGN.md §11).
//
//   C(M x N) = op(A) · op(B) [+ bias] [then ReLU]
//
// Operands are given by base pointer + (row, col) element strides, so
// the transposed variants (matmul_tn / matmul_nt) are the same kernel
// with swapped strides; the packing layer (pack.hpp) turns any stride
// pattern into unit-stride panels. The inner loop is an MR x NR
// register-blocked micro-kernel selected at runtime from the dispatch
// table in runtime/device (AVX2+FMA when built and supported, portable
// scalar otherwise; DLB_SIMD=scalar forces the fallback).
//
// Determinism contract: C(m, n) is always the single-accumulator chain
//   acc = init; for k = 0..K-1 in order: acc = acc + A(m,k)*B(k,n)
// There is no cross-thread reduction: every C tile is computed by
// exactly one thread, so results are bitwise identical across thread
// counts and across runs. A caller may split K into blocks with
// kAccumulate, which resumes the same chain (see below). Zero-padded
// edge lanes never feed a real output element.
//
// Rounding: every tier computes each step as one fused multiply-add,
// acc = fma(a, b, acc), with no intermediate rounding of the product.
// The AVX2/AVX-512 kernels issue vfmadd explicitly; the portable scalar
// kernel calls std::fma when the build target has FMA (one vfmadd) and
// falls back to `acc += a * b` when it does not.
//
// The epilogue is applied while the tile is still in registers, which
// is what lets a dense layer skip a full output-tensor round trip for
// bias and activation:
//   kBiasColAdd[Relu]  — y[m, n] += bias[n] after the K loop (Linear's
//                        layout; identical bits to a separate
//                        add_row_bias pass).
//   kBiasRowInit       — acc starts at bias[m] (conv's layout: one bias
//                        per output channel).
//   kAccumulate        — acc starts at the current C(m, n) and the K loop
//                        continues its chain. An fp32 store and reload
//                        does not round, so a K range split into blocks,
//                        the first with any starting epilogue and the
//                        rest with kAccumulate, gives the same bits as
//                        one call over the whole range (the batched
//                        conv weight gradient, conv.cpp).

#include <cstdint>

#include "runtime/device.hpp"

namespace dlbench::tensor {

enum class GemmEpilogue {
  kNone,         // C = A·B
  kBiasColAdd,   // C = A·B + bias[n] (broadcast over rows)
  kBiasColRelu,  // C = relu(A·B + bias[n])
  kBiasRowInit,  // C = bias[m] + A·B (broadcast over columns)
  kBiasRowRelu,  // C = relu(bias[m] + A·B)
  kAccumulate,   // C = C + A·B, continuing C's fma chain
};

/// Packed GEMM. A(m, k) = a[m*a_rs + k*a_cs], B(k, n) = b[k*b_rs +
/// n*b_cs], C is written dense row-major [M, N]. `bias` must have N
/// entries for the column epilogues, M entries for the row epilogues,
/// and may be null for kNone. Parallelizes over macro-tiles of C via
/// `dev`, split by rows or by columns as gemm_splits_columns says;
/// bitwise-deterministic for any worker count and either split. Under
/// kAccumulate C must hold the chain's running value on entry.
void gemm_packed(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t b_rs, std::int64_t b_cs,
                 float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                 GemmEpilogue epilogue, const float* bias,
                 const runtime::Device& dev);

/// Whether gemm_packed splits an (m, k, n) GEMM over column blocks of B
/// (each worker packs its own ~1 MiB block and runs every row panel
/// against it) rather than over row panels of C (workers share one
/// packed B). True when B is the wider operand, more padded columns
/// than A has padded rows, and its packed panels exceed one block: the
/// fc forward and dx GEMMs of a batch-50 3136x1024 layer, not its dW
/// (m = 3136, k = 50). The pre-packed entry points always split rows.
bool gemm_splits_columns(std::int64_t m, std::int64_t k, std::int64_t n);

/// gemm_packed with B already packed by pack_b_panels (`b_panels` holds
/// gemm_col_panels(n) * k * kGemmNR floats); only A is packed per call.
/// For immutable weights packed once, e.g. FrozenModel's fc layers.
/// Bitwise identical to gemm_packed.
void gemm_prepacked_b(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                      const float* b_panels, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n, GemmEpilogue epilogue,
                      const float* bias, const runtime::Device& dev);

/// Both operands already packed (pack_a_panels / pack_b_panels layouts),
/// C written with row stride `ldc` >= n, so a caller can run one block
/// of a larger C, e.g. the dW tiles a conv backward worker owns, one K
/// block per sample. Every conv GEMM runs here (conv.cpp). Packs nothing
/// and touches no scratch; bitwise identical to gemm_packed over the
/// same operands.
void gemm_prepacked(const float* a_panels, const float* b_panels, float* c,
                    std::int64_t ldc, std::int64_t m, std::int64_t k,
                    std::int64_t n, GemmEpilogue epilogue, const float* bias,
                    const runtime::Device& dev);

namespace detail {

/// Computes one MR x NR tile from packed panels into `out` (row stride
/// `ldo`), applying the epilogue. `bias_row` points at MR entries,
/// `bias_col` at NR entries (zero-padded by the caller on edge tiles);
/// unused ones may be null. Under kAccumulate the accumulators start
/// from the tile already in `out`. The wider AVX-512 kernels below
/// share the signature; every kernel always computes and stores its
/// whole tile, so the macro loop runs an edge tile (fewer live rows or
/// columns) into a zero-padded staging tile and copies out the live
/// part.
using MicroKernelFn = void (*)(const float* a_panel, const float* b_panel,
                               std::int64_t k, float* out, std::int64_t ldo,
                               GemmEpilogue epilogue, const float* bias_row,
                               const float* bias_col);

/// Portable scalar micro-kernel (always available; the only kernel on
/// hosts without AVX2+FMA and under DLB_SIMD=scalar).
void micro_kernel_scalar(const float* a_panel, const float* b_panel,
                         std::int64_t k, float* out, std::int64_t ldo,
                         GemmEpilogue epilogue, const float* bias_row,
                         const float* bias_col);

#if defined(DLB_HAVE_AVX2_BUILD)
/// AVX2+FMA micro-kernel (gemm_kernel_avx2.cpp; only dispatched when
/// cpuid reports AVX2 and FMA).
void micro_kernel_avx2fma(const float* a_panel, const float* b_panel,
                          std::int64_t k, float* out, std::int64_t ldo,
                          GemmEpilogue epilogue, const float* bias_row,
                          const float* bias_col);
#endif

#if defined(DLB_HAVE_AVX512_BUILD)
/// AVX-512F micro-kernel (gemm_kernel_avx512.cpp; only dispatched
/// when cpuid reports AVX-512F). One NR panel is one zmm; bitwise
/// identical to the AVX2 kernel.
void micro_kernel_avx512(const float* a_panel, const float* b_panel,
                         std::int64_t k, float* out, std::int64_t ldo,
                         GemmEpilogue epilogue, const float* bias_row,
                         const float* bias_col);

/// Double-width AVX-512 kernel: one call computes an MR x 2*NR
/// tile from two adjacent packed-B panels (`b_panels` points at panel
/// np; panel np+1 follows at b_panels + k*kGemmNR). Each A broadcast
/// feeds two fmadds, doubling the independent accumulator chains (12)
/// so the K loop is FMA-throughput-bound instead of latency-bound.
/// Per-element accumulation is the same single ascending-k chain, so
/// the result is bitwise identical to two single-panel calls.
/// `bias_col` (when used) must have 2*NR entries and `out` 2*NR
/// writable columns per row.
void micro_kernel_avx512_x2(const float* a_panel, const float* b_panels,
                            std::int64_t k, float* out, std::int64_t ldo,
                            GemmEpilogue epilogue, const float* bias_row,
                            const float* bias_col);

/// Tall tile: 2*MR x NR from two adjacent A row panels (`a_panels`
/// points at panel mp; panel mp+1 follows at a_panels + k*kGemmMR) and
/// one B panel, 12 accumulator chains; each B vector feeds 12 rows per
/// load. For a lone column panel: N <= 16, or the odd last panel of a
/// block. Bitwise identical to two single-panel calls; `bias_row` (when
/// used) must have 2*MR entries and `out` 2*MR writable rows.
void micro_kernel_avx512_2x1(const float* a_panels, const float* b_panel,
                             std::int64_t k, float* out, std::int64_t ldo,
                             GemmEpilogue epilogue, const float* bias_row,
                             const float* bias_col);

/// Quad tile: 2*MR x 2*NR from two adjacent A row panels (laid out as
/// for 2x1) and two adjacent B panels, 24 accumulator chains. Halves
/// the per-flop packed-B traffic of the x2 kernel (each B vector now
/// feeds 12 rows per load) at the same FMA-throughput bound. Same
/// bitwise guarantee and tile requirements as x2 and 2x1.
void micro_kernel_avx512_2x2(const float* a_panels, const float* b_panels,
                             std::int64_t k, float* out, std::int64_t ldo,
                             GemmEpilogue epilogue, const float* bias_row,
                             const float* bias_col);
#endif

}  // namespace detail

}  // namespace dlbench::tensor
