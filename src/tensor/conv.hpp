#pragma once

// 2-D convolution lowered to GEMM via im2col/col2im, the same strategy
// Caffe popularized and that cuDNN-era frameworks used on the nets in
// this paper (5x5 kernels, strides 1, small paddings).

#include <cstdint>

#include "runtime/device.hpp"
#include "tensor/tensor.hpp"

namespace dlbench::tensor {

/// Static geometry of a conv layer application.
struct ConvGeom {
  std::int64_t in_c = 0, in_h = 0, in_w = 0;
  std::int64_t out_c = 0;
  std::int64_t kernel = 0;  // square kernels only (paper uses 5x5)
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::int64_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix: in_c * kernel * kernel.
  std::int64_t patch_size() const { return in_c * kernel * kernel; }
};

/// Unfolds one image [C, H, W] (flat span) into a [patch_size, out_h*out_w]
/// column matrix (flat buffer provided by the caller, zero-padding applied).
void im2col(const float* image, const ConvGeom& g, float* columns);

/// Folds a column matrix back into an image gradient (accumulating).
void col2im(const float* columns, const ConvGeom& g, float* image);

/// Forward conv: x [N, C, H, W], weight [out_c, patch_size], bias [out_c]
/// → y [N, out_c, out_h, out_w]. Parallel over batch samples.
/// `fuse_relu` applies ReLU to the output in the GEMM epilogue —
/// bitwise identical to a separate relu() pass, one fewer trip over the
/// activations (used by the FrozenModel conv+ReLU peephole, DESIGN.md
/// §15).
Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const ConvGeom& g,
                      const runtime::Device& dev, bool fuse_relu = false);

/// Backward conv. Given dy [N, out_c, oh, ow] computes dx (same shape as
/// x), dweight [out_c, patch_size] and dbias [out_c]. dweight[oc, p] is
/// one fma chain over k = (sample, position) ascending: the GEMM
/// dy · columnsᵀ with K = N·oh·ow, run one K block per sample with
/// GemmEpilogue::kAccumulate, im2col writing each sample's patch rows
/// straight into packed-B panels. Workers own disjoint blocks of dW
/// tiles for the whole batch, so dweight, dbias (one add chain per
/// channel, same order) and dx (per sample) are bitwise independent of
/// the worker count.
struct ConvGrads {
  Tensor dx;
  Tensor dweight;
  Tensor dbias;
};
ConvGrads conv2d_backward(const Tensor& x, const Tensor& weight,
                          const Tensor& dy, const ConvGeom& g,
                          const runtime::Device& dev);

/// Input gradient only: dx = col2im(Wᵀ · dy) per row of dy, bitwise
/// equal to conv2d_backward's dx. dx does not depend on the forward
/// input, so there is no im2col and no dW GEMM, and dy may hold any
/// number of rows (stacked cotangents, nn/layer.hpp).
Tensor conv2d_backward_dx(const Tensor& weight, const Tensor& dy,
                          const ConvGeom& g, const runtime::Device& dev);

}  // namespace dlbench::tensor
