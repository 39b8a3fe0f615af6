#pragma once

// Packed-panel, register-blocked GEMM — the micro-kernel layer under
// every matmul and im2col convolution (DESIGN.md §11).
//
//   C(M x N) = op(A) · op(B) [+ bias] [then ReLU]
//
// Operands are given by base pointer + (row, col) element strides, so
// the transposed variants (matmul_tn / matmul_nt) are the same kernel
// with swapped strides; the packing layer (pack.hpp) turns any stride
// pattern into unit-stride panels. The inner loop is a register-blocked
// micro-kernel from the active SIMD tier's MicroKernelTable, chosen at
// runtime by runtime/device (AVX-512F or AVX2+FMA when built and
// supported, portable scalar otherwise; DLB_SIMD caps the tier).
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

/// Computes one tile of RP x CP panels, (6 RP) x (16 CP), from packed
/// panels into `out` (row stride `ldo`), applying the epilogue.
/// `a_panels` points at row panel mp, and panel mp + 1 follows at
/// a_panels + k*kGemmMR; `b_panels` likewise at k*kGemmNR. `bias_row`
/// points at 6 RP entries, `bias_col` at 16 CP (zero-padded by the
/// caller on edge tiles); unused ones may be null. Under kAccumulate
/// the accumulators start from the tile already in `out`. A kernel
/// always computes and stores its whole tile, so the macro loop runs an
/// edge tile (fewer live rows or columns) into a zero-padded staging
/// tile and copies out the live part. Every shape is bitwise identical
/// to the equivalent single-panel calls.
using MicroKernelFn = void (*)(const float* a_panels, const float* b_panels,
                               std::int64_t k, float* out, std::int64_t ldo,
                               GemmEpilogue epilogue, const float* bias_row,
                               const float* bias_col);

/// One SIMD tier's micro-kernels by tile shape: kernel[RP-1][CP-1]
/// covers RP row panels x CP column panels, for RP, CP <= span; the
/// other entries are null. All come from the one template in
/// micro_kernel.hpp.
struct MicroKernelTable {
  MicroKernelFn kernel[2][2];
  std::int64_t span;  // most panels one tile covers along either axis
};

/// The portable tier (gemm_kernel.cpp), span 1: always available, and
/// the only tier on hosts without AVX2+FMA and under DLB_SIMD=scalar.
extern const MicroKernelTable kScalarKernels;
#if defined(DLB_HAVE_AVX2_BUILD)
/// gemm_kernel_avx2.cpp, span 1; only valid when cpuid reports AVX2+FMA.
extern const MicroKernelTable kAvx2Kernels;
#endif
#if defined(DLB_HAVE_AVX512_BUILD)
/// gemm_kernel_avx512.cpp, span 2; only valid when cpuid reports
/// AVX-512F.
extern const MicroKernelTable kAvx512Kernels;
#endif

/// The table of the active SIMD tier (runtime::active_simd_level).
const MicroKernelTable& select_micro_kernel();

}  // namespace detail

}  // namespace dlbench::tensor
