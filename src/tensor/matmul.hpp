#pragma once

// Dense GEMM entry points. Convolution lowers to matmul via im2col, and
// the fully connected layers are matmuls directly, so this is the hot
// path of every experiment.
//
// Every call routes through the packed-panel GEMM (gemm_kernel.hpp),
// whose micro-kernel is picked by runtime::active_simd_level(). Results
// are bitwise-deterministic across thread counts; see DESIGN.md §11 for
// the dispatch table and determinism contract.

#include "runtime/device.hpp"
#include "tensor/tensor.hpp"

namespace dlbench::tensor {

/// C = A(MxK) * B(KxN). Parallelized over macro-tiles of C.
Tensor matmul(const Tensor& a, const Tensor& b, const runtime::Device& dev);

/// C = A^T(MxK as KxM stored) * B(KxN)  → matmul_tn(a, b): a is [K, M].
Tensor matmul_tn(const Tensor& a, const Tensor& b, const runtime::Device& dev);

/// c[M, N] += A^T * B with a stored [K, M], in place: each element's
/// fma chain continues from c's value on entry (GemmEpilogue::
/// kAccumulate), so no [M, N] temporary is written. matmul_tn is this
/// on a +0-filled c. The dense layers' dW accumulation.
void matmul_tn_accumulate(const Tensor& a, const Tensor& b, Tensor& c,
                          const runtime::Device& dev);

/// C = A(MxK) * B^T where b is [N, K]  → result [M, N].
Tensor matmul_nt(const Tensor& a, const Tensor& b, const runtime::Device& dev);

/// Fused dense forward: C = A*B + bias[N], the bias applied in the GEMM
/// epilogue while the output tile is in registers (no second pass over
/// C). Bitwise-identical to matmul + add_row_bias.
Tensor matmul_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
                   const runtime::Device& dev);

/// Fused dense forward + activation: C = relu(A*B + bias[N]).
/// Bitwise-identical to matmul + add_row_bias + relu.
Tensor matmul_bias_relu(const Tensor& a, const Tensor& b, const Tensor& bias,
                        const runtime::Device& dev);

/// y[M,N] += bias[N] broadcast over rows.
void add_row_bias(Tensor& y, const Tensor& bias, const runtime::Device& dev);

/// Column-sum of a [M, N] tensor → [N] (bias gradient).
Tensor column_sums(const Tensor& x, const runtime::Device& dev);

}  // namespace dlbench::tensor
