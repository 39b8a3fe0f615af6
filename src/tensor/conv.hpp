#pragma once

// 2-D convolution lowered to GEMM, the im2col strategy Caffe
// popularized and that cuDNN-era frameworks used on the nets in this
// paper (5x5 kernels, strides 1, small paddings). The unfolded patch
// matrix is never staged: each sample's input is padded once and
// written straight into the packed-B panels of the GEMM, and the input
// gradient is folded back (col2im) into a padded accumulator block by
// block as the GEMM produces it (DESIGN.md §11).

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
/// GemmEpilogue::kAccumulate, each sample's patch rows written straight
/// into packed-B panels (detail::dw_panels). Workers own disjoint
/// blocks of dW tiles for the whole batch, so dweight, dbias (one add
/// chain per channel, same order) and dx (per sample) are bitwise
/// independent of the worker count.
struct ConvGrads {
  Tensor dx;
  Tensor dweight;
  Tensor dbias;
};
ConvGrads conv2d_backward(const Tensor& x, const Tensor& weight,
                          const Tensor& dy, const ConvGeom& g,
                          const runtime::Device& dev);

/// Parameter gradients only: conv2d_backward without dx (grads.dx is
/// empty), for a first layer whose input gradient nobody reads.
/// dweight and dbias are bitwise equal to conv2d_backward's.
ConvGrads conv2d_backward_params(const Tensor& x, const Tensor& weight,
                                 const Tensor& dy, const ConvGeom& g,
                                 const runtime::Device& dev);

/// Input gradient only: dx = col2im(Wᵀ · dy) per row of dy, bitwise
/// equal to conv2d_backward's dx. dx does not depend on the forward
/// input, so there is no im2col and no dW GEMM, and dy may hold any
/// number of rows (stacked cotangents, nn/layer.hpp).
Tensor conv2d_backward_dx(const Tensor& weight, const Tensor& dy,
                          const ConvGeom& g, const runtime::Device& dev);

namespace detail {

/// Floats pad_image writes: the padded image, in_c x (in_h + 2 pad) x
/// (in_w + 2 pad), then kGemmNR zeros that the panel writers'
/// fixed-width copies may read past the image.
std::int64_t padded_image_floats(const ConvGeom& g);

/// One image [C, H, W] with `pad` zeros around every channel plane,
/// written to `dst` (padded_image_floats(g) floats): every window of
/// the geometry then lies inside.
void pad_image(const float* image, const ConvGeom& g, float* dst);

/// The forward GEMM's B operand B(p, pos) = columns[p, pos] (patch row
/// p, output position pos), read from pad_image's output and written
/// as packed-B column panels q0..q1-1 (pack.hpp layout, K = patch_size;
/// panel q holds positions [16q, 16q + 16), zero lanes past
/// out_h*out_w) to `panels`. Bitwise equal to unfolding the image into
/// columns and packing them with pack_b_panels.
void fwd_panels(const float* padded, const ConvGeom& g, std::int64_t q0,
                std::int64_t q1, float* panels);

/// Floats dw_panels may write for patch rows [p0, p1): the panels plus
/// the overhang of the last row's fixed-width copies.
std::int64_t dw_panel_floats(const ConvGeom& g, std::int64_t p0,
                             std::int64_t p1);

/// The dW GEMM's B operand B(pos, p) = columns[p, pos] for patch rows
/// [p0, p1) (p0 a multiple of kGemmNR), read from pad_image's output
/// and written as packed-B column panels (K = out_h*out_w; zero lanes
/// past p1) to `panels` (dw_panel_floats(g, p0, p1) floats). Bitwise
/// equal to packing those columns rows, transposed, with
/// pack_b_panels.
void dw_panels(const float* padded, const ConvGeom& g, std::int64_t p0,
               std::int64_t p1, float* panels);

}  // namespace detail

}  // namespace dlbench::tensor
