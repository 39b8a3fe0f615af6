#pragma once

// Direct (loop-nest) convolution, no im2col lowering.
//
// The paper observes that Torch uses SpatialConvolutionMap on CPU for
// CIFAR-10 — a slower, non-GEMM kernel — and falls back to the GEMM
// implementation (SpatialConvolutionMM) on GPU, which even flips its
// accuracy slightly. The Torch emulation mirrors this: on the CPU
// device it builds Conv2dDirect (this file); on the GPU device it
// builds the im2col Conv2d. Both compute the same convolution; only the
// loop structure (and hence speed and float summation order) differs.

#include "nn/layer.hpp"
#include "tensor/conv.hpp"
#include "tensor/init.hpp"

namespace dlbench::nn {

/// Convolution evaluated as an explicit 6-deep loop nest. Weight layout
/// matches Conv2d ([out_c, in_c*k*k]) so checkpoints are compatible.
class Conv2dDirect final : public Layer {
 public:
  Conv2dDirect(tensor::ConvGeom geom, tensor::InitKind init, util::Rng& rng);

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  const tensor::ConvGeom& geom() const { return geom_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Conv2dDirect(tensor::ConvGeom geom, Tensor weight, Tensor bias);  // clone()

  tensor::ConvGeom geom_;
  Tensor weight_, bias_, dweight_, dbias_;
  Tensor cached_input_;
};

/// The direct-convolution forward kernel itself, shared by the layer
/// and the frozen inference view — the frozen Torch-on-CPU path must
/// keep this summation order, not the GEMM one, for its outputs to stay
/// bitwise identical to the training object's.
Tensor conv2d_direct_forward(const Tensor& x, const Tensor& weight,
                             const Tensor& bias, const tensor::ConvGeom& geom,
                             const runtime::Device& device);

}  // namespace dlbench::nn
