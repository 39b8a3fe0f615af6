#pragma once

// Concrete layers: everything the paper's default networks use
// (Tables IV and V): 5x5 convolutions, max/average pooling, fully
// connected layers, ReLU/Tanh activations, Dropout (TF's regularizer),
// local response normalization (TF's CIFAR-10 "Normalization"), and
// Flatten to bridge conv and fc stages.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "tensor/conv.hpp"
#include "tensor/init.hpp"
#include "tensor/pool.hpp"

namespace dlbench::nn {

/// 2-D convolution with square kernels; weight layout [out_c, in_c*k*k].
class Conv2d final : public Layer {
 public:
  Conv2d(tensor::ConvGeom geom, tensor::InitKind init, util::Rng& rng);

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;
  void backward_params(const Tensor& dy, const Context& ctx) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  const tensor::ConvGeom& geom() const { return geom_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Conv2d(tensor::ConvGeom geom, Tensor weight, Tensor bias);  // clone()

  tensor::ConvGeom geom_;
  Tensor weight_, bias_, dweight_, dbias_;
  Tensor cached_input_;
};

/// Fully connected layer; weight layout [in_features, out_features].
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features,
         tensor::InitKind init, util::Rng& rng);

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  Linear(Tensor weight, Tensor bias);  // clone()

  std::int64_t in_, out_;
  Tensor weight_, bias_, dweight_, dbias_;
  Tensor cached_input_;
};

/// Fully connected layer with the ReLU fused into the GEMM epilogue:
/// forward is a single tensor::matmul_bias_relu call, so the activation
/// is applied while each output tile is still in registers instead of
/// in a second pass over the output. Bitwise-identical to Linear
/// followed by ReLU (see DESIGN.md §11); gradients match too because
/// relu(z) > 0 exactly when z > 0, so the cached output doubles as the
/// backward mask.
class LinearReLU final : public Layer {
 public:
  LinearReLU(std::int64_t in_features, std::int64_t out_features,
             tensor::InitKind init, util::Rng& rng);

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  LinearReLU(Tensor weight, Tensor bias);  // clone()

  std::int64_t in_, out_;
  Tensor weight_, bias_, dweight_, dbias_;
  Tensor cached_input_, cached_output_;
};

/// Max pooling; records argmax indices for backward.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(tensor::PoolGeom geom) : geom_(geom) {}

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

  const tensor::PoolGeom& geom() const { return geom_; }

 private:
  tensor::PoolGeom geom_;
  std::vector<std::int32_t> argmax_;
};

/// Average pooling.
class AvgPool2d final : public Layer {
 public:
  explicit AvgPool2d(tensor::PoolGeom geom) : geom_(geom) {}

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

  const tensor::PoolGeom& geom() const { return geom_; }

 private:
  tensor::PoolGeom geom_;
  std::int64_t rows_ = 0;  // of the last forward
};

/// ReLU activation.
class ReLU final : public Layer {
 public:
  std::string describe() const override { return "ReLU"; }
  LayerPtr clone() const override { return std::make_unique<ReLU>(); }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

 private:
  Tensor cached_input_;
};

/// Tanh activation (Torch's historical default in the paper's nets).
class Tanh final : public Layer {
 public:
  std::string describe() const override { return "Tanh"; }
  LayerPtr clone() const override { return std::make_unique<Tanh>(); }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

 private:
  Tensor cached_output_;
};

/// Inverted dropout: active only in training mode, identity at test
/// time. This is TensorFlow's regularizer in the paper's comparison.
class Dropout final : public Layer {
 public:
  explicit Dropout(float drop_probability);

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

  float probability() const { return p_; }

 private:
  float p_;
  Tensor mask_;
  bool mask_valid_ = false;
  std::int64_t rows_ = 0;  // of the last forward
};

/// Cross-channel local response normalization (TF CIFAR-10 tutorial's
/// "norm" layers): y_i = x_i / (k + alpha * sum_{j in window} x_j^2)^beta.
class LocalResponseNorm final : public Layer {
 public:
  LocalResponseNorm(std::int64_t depth_radius = 4, float bias = 1.f,
                    float alpha = 0.001f / 9.0f, float beta = 0.75f);

  std::string describe() const override;
  LayerPtr clone() const override;
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

  std::int64_t radius() const { return radius_; }
  float bias() const { return k_; }
  float alpha() const { return alpha_; }
  float beta() const { return beta_; }

 private:
  Tensor backward_block(const Tensor& dy, const Context& ctx) const;

  std::int64_t radius_;
  float k_, alpha_, beta_;
  Tensor cached_input_, cached_scale_;  // scale = k + alpha * window sum
};

/// Reshapes [N, C, H, W] to [N, C*H*W]; backward restores the shape.
class Flatten final : public Layer {
 public:
  std::string describe() const override { return "Flatten"; }
  LayerPtr clone() const override { return std::make_unique<Flatten>(); }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& dy, const Context& ctx) override;

 private:
  tensor::Shape input_shape_;
};

/// LRN forward math, shared by the training layer and the frozen
/// inference view (nn/frozen.hpp). `scale_out`, when non-null, receives
/// the per-element k + alpha * window-sum tensor the backward pass
/// needs; the frozen path passes nullptr and skips that allocation.
Tensor lrn_forward(const Tensor& x, std::int64_t radius, float k, float alpha,
                   float beta, Tensor* scale_out, const Device& device);

}  // namespace dlbench::nn
