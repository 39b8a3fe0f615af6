#pragma once

// Immutable inference view of a trained model.
//
// A Sequential is a *training* object: every layer caches activations
// during forward() for the following backward(), so two threads cannot
// share one. Serving needs the opposite contract — many threads running
// forward passes over one set of weights — so freeze() snapshots a
// Sequential into a FrozenModel: a flat list of stateless inference ops
// over parameter copies that are never written again. Each fc weight
// is stored only as GEMM B panels, packed once at freeze time, so a
// forward packs just the activations.
// forward() is const, allocates all scratch per call, and is therefore
// safe to run concurrently from any number of threads. Copying a
// FrozenModel copies handles, not buffers, so server replicas share one
// set of weights (safe precisely because they are immutable).
//
// Inference semantics match Sequential::forward with training=false:
// Dropout is the identity (inverted dropout) and is dropped at freeze
// time, so outputs are bitwise identical to the training object's
// eval-mode forward on the same inputs and device.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/conv.hpp"
#include "tensor/pool.hpp"

namespace dlbench::nn {

/// Thread-safe, const-correct inference snapshot of a Sequential.
class FrozenModel {
 public:
  FrozenModel() = default;

  /// Copies every parameter of `model` into an immutable op list: conv
  /// weights and biases as tensors, fc weights as packed B panels
  /// (tensor::gemm_prepacked_b).
  /// Throws on layer kinds with no inference lowering (none exist in
  /// this codebase today). A peephole pass fuses each Linear or Conv2d
  /// op whose successor is a ReLU into one kLinearRelu / kConvRelu op
  /// executed in the GEMM epilogue (tensor::matmul_bias_relu /
  /// conv2d_forward's kBiasRowRelu) — bitwise-identical output, one
  /// fewer pass over the activations per fused layer. Elementwise ops
  /// that survive fusion (ReLU after conv-direct, Tanh) run in place
  /// on the intermediate activation, which forward() owns uniquely
  /// (DESIGN.md §15).
  static FrozenModel freeze(const Sequential& model);

  /// Logits for a batch. Pure: no member is written, all scratch is
  /// call-local; concurrent calls on any device are safe.
  Tensor forward(const Tensor& x, const runtime::Device& device) const;

  /// Predicted class per row of `x`.
  std::vector<std::int64_t> predict(const Tensor& x,
                                    const runtime::Device& device) const;

  bool empty() const { return ops_.empty(); }
  std::size_t size() const { return ops_.size(); }
  std::int64_t num_params() const;
  std::string describe() const;

  /// Base address of each fc op's packed weight panels, in op order.
  /// Copies of one model return the same addresses: replicas share one
  /// set of panels.
  std::vector<const float*> fc_panels() const;

 private:
  struct Op {
    enum class Kind {
      kConv,
      kConvRelu,    // fused conv+activation; see freeze() peephole
      kConvDirect,
      kLinear,
      kLinearRelu,  // fused fc+activation; see freeze() peephole
      kMaxPool,
      kAvgPool,
      kRelu,
      kTanh,
      kLrn,
      kFlatten,
    };
    Kind kind;
    // Copies, never mutated. fc ops leave `weight` empty: `panels`
    // holds their [fc_in, fc_out] weight packed for the GEMM kernel.
    Tensor weight, bias;
    std::shared_ptr<const std::vector<float>> panels;
    std::int64_t fc_in = 0, fc_out = 0;
    tensor::ConvGeom conv;
    tensor::PoolGeom pool;
    std::int64_t lrn_radius = 0;
    float lrn_k = 0.f, lrn_alpha = 0.f, lrn_beta = 0.f;
  };

  std::vector<Op> ops_;
};

}  // namespace dlbench::nn
