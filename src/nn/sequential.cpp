#include "nn/sequential.hpp"

#include <sstream>

#include "runtime/trace.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace dlbench::nn {

namespace {

// "Conv2d(1->20, k5)" -> "Conv2d": span names stay short and stable
// across hyperparameter choices.
std::string layer_type_name(const std::string& description) {
  const auto paren = description.find('(');
  return paren == std::string::npos ? description : description.substr(0, paren);
}

}  // namespace

Sequential::Sequential(std::vector<LayerPtr> layers)
    : layers_(std::move(layers)) {}

void Sequential::add(LayerPtr layer) {
  DLB_CHECK(layer != nullptr, "cannot add a null layer");
  layers_.push_back(std::move(layer));
}

Sequential Sequential::clone() const {
  std::vector<LayerPtr> copies;
  copies.reserve(layers_.size());
  for (const auto& layer : layers_) copies.push_back(layer->clone());
  return Sequential(std::move(copies));
}

void Sequential::ensure_trace_labels() {
  if (fwd_labels_.size() == layers_.size()) return;
  fwd_labels_.clear();
  bwd_labels_.clear();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string type = layer_type_name(layers_[i]->describe());
    const std::string tag = std::to_string(i) + "." + type;
    fwd_labels_.push_back(runtime::trace::intern("fwd/" + tag));
    bwd_labels_.push_back(runtime::trace::intern("bwd/" + tag));
  }
}

Tensor Sequential::forward(const Tensor& x, const Context& ctx) {
  DLB_CHECK(!layers_.empty(), "empty model");
  const bool traced = runtime::trace::enabled();
  if (traced) ensure_trace_labels();
  Tensor h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    runtime::trace::Span span(traced ? fwd_labels_[i] : nullptr, "layer");
    h = layers_[i]->forward(h, ctx);
  }
  return h;
}

LossResult Sequential::forward_loss(const Tensor& x,
                                    const std::vector<std::int64_t>& labels,
                                    const Context& ctx) {
  LossResult r;
  r.logits = forward(x, ctx);
  runtime::trace::Span span("fwd/loss-head", "layer");
  r.probabilities = tensor::softmax_rows(r.logits, ctx.device);
  r.loss = tensor::cross_entropy_mean(r.probabilities, labels);
  return r;
}

namespace {

Tensor loss_head_backward(const LossResult& result,
                          const std::vector<std::int64_t>& labels,
                          const Context& ctx) {
  runtime::trace::Span span("bwd/loss-head", "layer");
  return tensor::softmax_cross_entropy_backward(result.probabilities, labels,
                                                ctx.device);
}

}  // namespace

Tensor Sequential::backward(const LossResult& result,
                            const std::vector<std::int64_t>& labels,
                            const Context& ctx) {
  return backward_from_logits(loss_head_backward(result, labels, ctx), ctx);
}

void Sequential::backward_params(const LossResult& result,
                                 const std::vector<std::int64_t>& labels,
                                 const Context& ctx) {
  backward_layers(loss_head_backward(result, labels, ctx), ctx,
                  /*input_grad=*/false);
}

Tensor Sequential::backward_from_logits(const Tensor& dlogits,
                                        const Context& ctx) {
  return backward_layers(dlogits, ctx, /*input_grad=*/true);
}

Tensor Sequential::backward_layers(const Tensor& dlogits, const Context& ctx,
                                   bool input_grad) {
  DLB_CHECK(!layers_.empty(), "empty model");
  const bool traced = runtime::trace::enabled();
  if (traced) ensure_trace_labels();
  Tensor g = dlogits;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    runtime::trace::Span span(traced ? bwd_labels_[i] : nullptr, "layer");
    if (i == 0 && !input_grad) {
      layers_[0]->backward_params(g, ctx);
      return Tensor();
    }
    g = layers_[i]->backward(g, ctx);
  }
  return g;
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* p : layer->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_)
    for (Tensor* g : layer->grads()) out.push_back(g);
  return out;
}

void Sequential::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

std::int64_t Sequential::num_params() {
  std::int64_t n = 0;
  for (auto& layer : layers_) n += layer->num_params();
  return n;
}

std::vector<std::int64_t> Sequential::predict(const Tensor& x,
                                              const Context& ctx) {
  Context eval_ctx = ctx;
  eval_ctx.training = false;
  Tensor logits = forward(x, eval_ctx);
  return tensor::argmax_rows(logits);
}

std::string Sequential::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i)
    os << "  (" << i << ") " << layers_[i]->describe() << "\n";
  return os.str();
}

}  // namespace dlbench::nn
