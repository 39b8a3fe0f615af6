#pragma once

// A feed-forward stack of layers with an integrated softmax
// cross-entropy head — the model shape every net in the paper uses.

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace dlbench::nn {

/// Output of one forward+loss evaluation.
struct LossResult {
  Tensor logits;        // [N, classes]
  Tensor probabilities; // softmax(logits)
  double loss = 0.0;    // mean cross-entropy
};

/// An owned sequence of layers ending (implicitly) in softmax
/// cross-entropy. The loss head lives here rather than as a layer so
/// the gradient seed (probs - onehot)/N is fused, as in all three
/// frameworks under study.
class Sequential {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<LayerPtr> layers);

  /// Appends a layer.
  void add(LayerPtr layer);

  std::size_t size() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Deep, independent replica: every layer is clone()d, so the copy
  /// shares no parameter buffers, gradient buffers, or activation
  /// caches with this model. Forward/backward on the replica is
  /// bitwise-identical to the original (same weights, same kernels)
  /// but safe to run on another thread — the adversarial crafting
  /// engine builds one replica per worker this way, mirroring the
  /// FrozenModel replica pattern from serve/ for mutable models. A
  /// replica starts with zeroed gradients and empty caches.
  Sequential clone() const;

  /// Plain forward pass, logits out.
  Tensor forward(const Tensor& x, const Context& ctx);

  /// Forward + softmax + mean cross-entropy against integer labels.
  LossResult forward_loss(const Tensor& x,
                          const std::vector<std::int64_t>& labels,
                          const Context& ctx);

  /// Backpropagates from the fused loss head through every layer,
  /// accumulating parameter gradients; returns dL/dinput.
  /// Requires a preceding forward_loss() on the same batch.
  Tensor backward(const LossResult& result,
                  const std::vector<std::int64_t>& labels,
                  const Context& ctx);

  /// backward() for a training step, which reads only the parameter
  /// gradients: the same gradients, bit for bit, but the first layer
  /// skips dL/dinput (Layer::backward_params).
  void backward_params(const LossResult& result,
                       const std::vector<std::int64_t>& labels,
                       const Context& ctx);

  /// Backpropagates an arbitrary logit-space gradient through the
  /// activations cached by the last forward (N rows) and returns
  /// dL/dinput. Under ctx.param_grads off, no parameter gradient is
  /// touched and `dlogits` may stack k cotangents as k*N rows; block b
  /// of the result is bitwise equal to a separate backward of block b
  /// (Layer::backward). The adversarial module seeds the classes x
  /// classes identity this way to get the whole logit Jacobian from
  /// one pass.
  Tensor backward_from_logits(const Tensor& dlogits, const Context& ctx);

  /// All parameters / gradients across layers, in layer order.
  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  void zero_grads();
  std::int64_t num_params();

  /// Predicted class per row. The library's inference runs
  /// nn::FrozenModel; this is the reference tests and perfbench compare.
  std::vector<std::int64_t> predict(const Tensor& x, const Context& ctx);

  /// Multi-line structural description.
  std::string describe() const;

 private:
  /// Lazily interns per-layer span labels ("fwd/<i>.<Type>", ...) the
  /// first time tracing is observed enabled. Rebuilt if layers change.
  void ensure_trace_labels();

  /// Backpropagates `dlogits` through every layer; returns dL/dinput,
  /// or, with `input_grad` off, runs the first layer's backward_params
  /// and returns an empty tensor.
  Tensor backward_layers(const Tensor& dlogits, const Context& ctx,
                         bool input_grad);

  std::vector<LayerPtr> layers_;
  std::vector<const char*> fwd_labels_;
  std::vector<const char*> bwd_labels_;
};

}  // namespace dlbench::nn
