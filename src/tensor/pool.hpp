#pragma once

// Max / average pooling. The paper's default nets use MaxPooling(2x2),
// MaxPooling(3x3) and AveragePooling(3x3) (Tables IV and V); strides
// default to the window size (non-overlapping) unless specified, and a
// ceil-mode output size matches Caffe's pooling arithmetic.

#include <cstdint>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/tensor.hpp"

namespace dlbench::tensor {

struct PoolGeom {
  std::int64_t channels = 0, in_h = 0, in_w = 0;
  std::int64_t window = 2;
  std::int64_t stride = 2;
  /// Caffe rounds pooling output sizes up (covering the edge with a
  /// partial window); TF's VALID pooling and Torch round down. The
  /// paper's Table IV/V layer dimensions only come out exactly when
  /// each emulation uses its framework's historical rounding.
  bool ceil_mode = false;

  std::int64_t out_h() const { return out_dim(in_h); }
  std::int64_t out_w() const { return out_dim(in_w); }

 private:
  std::int64_t out_dim(std::int64_t in) const {
    if (in < window) return ceil_mode ? 1 : 0;  // window larger than input
    if (ceil_mode) return (in - window + stride - 1) / stride + 1;
    return (in - window) / stride + 1;
  }
};

/// Max pool forward. `argmax` (resized to the output's numel) records
/// the flat in-plane input offset of each selected element for the
/// backward pass. Each window is scanned in (iy, ix) order with strict
/// `>`, so the first maximum wins and NaN is never selected; a window
/// with no element above -inf keeps its first element's offset.
/// Windows fully inside the input run a clamp-free loop specialised for
/// windows 2 and 3 and vectorised across output columns; only ceil-mode
/// edge windows are clamped. Both give the same bits.
Tensor maxpool_forward(const Tensor& x, const PoolGeom& g,
                       std::vector<std::int32_t>& argmax,
                       const runtime::Device& dev);

/// Max pool backward: routes dy to the recorded argmax positions.
Tensor maxpool_backward(const Tensor& dy, const PoolGeom& g,
                        const std::vector<std::int32_t>& argmax,
                        const runtime::Device& dev);

/// Average pool forward: the window sum in (iy, ix) order divided by the
/// number of in-input elements (clamped on ceil-mode edges). Same
/// interior/edge split as max pool, same bits as a clamped loop.
Tensor avgpool_forward(const Tensor& x, const PoolGeom& g,
                       const runtime::Device& dev);

/// Average pool backward: spreads dy uniformly over each window, windows
/// in row-major output order, so every input element receives its
/// shares in the same order as a clamped loop over the whole plane.
Tensor avgpool_backward(const Tensor& dy, const PoolGeom& g,
                        const runtime::Device& dev);

}  // namespace dlbench::tensor
