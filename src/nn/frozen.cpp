#include "nn/frozen.hpp"

#include <sstream>

#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "runtime/trace.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"
#include "util/error.hpp"

namespace dlbench::nn {

FrozenModel FrozenModel::freeze(const Sequential& model) {
  DLB_CHECK(model.size() > 0, "cannot freeze an empty model");
  // fc weights are immutable from here on, so they are packed into GEMM
  // B panels once, straight from the layer's tensor, and only the
  // panels are kept.
  const auto freeze_fc = [](Op& op, const Tensor& weight, const Tensor& bias) {
    op.fc_in = weight.dim(0);
    op.fc_out = weight.dim(1);
    op.bias = bias.clone();
    auto panels = std::make_shared<std::vector<float>>(static_cast<std::size_t>(
        tensor::gemm_col_panels(op.fc_out) * tensor::kGemmNR * op.fc_in));
    tensor::pack_b_panels(weight.raw(), op.fc_out, 1, op.fc_in, op.fc_out,
                          panels->data(), runtime::Device::cpu());
    op.panels = std::move(panels);
  };
  FrozenModel frozen;
  frozen.ops_.reserve(model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    const Layer& layer = model.layer(i);
    Op op{};
    if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      op.kind = Op::Kind::kConv;
      op.conv = conv->geom();
      op.weight = conv->weight().clone();
      op.bias = conv->bias().clone();
    } else if (const auto* direct =
                   dynamic_cast<const Conv2dDirect*>(&layer)) {
      op.kind = Op::Kind::kConvDirect;
      op.conv = direct->geom();
      op.weight = direct->weight().clone();
      op.bias = direct->bias().clone();
    } else if (const auto* fc = dynamic_cast<const Linear*>(&layer)) {
      op.kind = Op::Kind::kLinear;
      freeze_fc(op, fc->weight(), fc->bias());
    } else if (const auto* fcr = dynamic_cast<const LinearReLU*>(&layer)) {
      op.kind = Op::Kind::kLinearRelu;
      freeze_fc(op, fcr->weight(), fcr->bias());
    } else if (const auto* mp = dynamic_cast<const MaxPool2d*>(&layer)) {
      op.kind = Op::Kind::kMaxPool;
      op.pool = mp->geom();
    } else if (const auto* ap = dynamic_cast<const AvgPool2d*>(&layer)) {
      op.kind = Op::Kind::kAvgPool;
      op.pool = ap->geom();
    } else if (dynamic_cast<const ReLU*>(&layer) != nullptr) {
      op.kind = Op::Kind::kRelu;
    } else if (dynamic_cast<const Tanh*>(&layer) != nullptr) {
      op.kind = Op::Kind::kTanh;
    } else if (const auto* lrn =
                   dynamic_cast<const LocalResponseNorm*>(&layer)) {
      op.kind = Op::Kind::kLrn;
      op.lrn_radius = lrn->radius();
      op.lrn_k = lrn->bias();
      op.lrn_alpha = lrn->alpha();
      op.lrn_beta = lrn->beta();
    } else if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
      op.kind = Op::Kind::kFlatten;
    } else if (dynamic_cast<const Dropout*>(&layer) != nullptr) {
      continue;  // identity at inference: drop it entirely
    } else {
      DLB_CHECK(false, "no inference lowering for layer '"
                           << layer.describe() << "'");
    }
    // Peephole: ReLU directly after a Linear or Conv2d runs in the
    // GEMM epilogue. Dropout was already elided above, so fc ->
    // dropout -> relu chains fuse too. relu(A*B + bias) via the
    // epilogue is bitwise-identical to the two-op sequence on every
    // SIMD tier (DESIGN.md §11, §15).
    if (op.kind == Op::Kind::kRelu && !frozen.ops_.empty()) {
      if (frozen.ops_.back().kind == Op::Kind::kLinear) {
        frozen.ops_.back().kind = Op::Kind::kLinearRelu;
        continue;
      }
      if (frozen.ops_.back().kind == Op::Kind::kConv) {
        frozen.ops_.back().kind = Op::Kind::kConvRelu;
        continue;
      }
    }
    frozen.ops_.push_back(std::move(op));
  }
  return frozen;
}

Tensor FrozenModel::forward(const Tensor& x,
                            const runtime::Device& device) const {
  DLB_CHECK(!ops_.empty(), "empty frozen model");
  // fc op: y = x·W + b [then ReLU]. Only the activation (A) is packed
  // per call; the same panels feed the same macro loop as
  // tensor::matmul_bias[_relu], so the bits are identical to it.
  const auto fc = [&device](const Op& op, const Tensor& in) {
    const bool relu = op.kind == Op::Kind::kLinearRelu;
    runtime::trace::Span span(relu ? "matmul_bias_relu" : "matmul_bias",
                              "kernel");
    DLB_CHECK(in.shape().rank() == 2 && in.dim(1) == op.fc_in,
              "fc " << op.fc_in << "->" << op.fc_out << ": input "
                    << in.shape().to_string());
    const std::int64_t m = in.dim(0);
    Tensor out = Tensor::uninit(tensor::Shape({m, op.fc_out}));
    tensor::gemm_prepacked_b(
        in.raw(), op.fc_in, 1, op.panels->data(), out.raw(), m, op.fc_in,
        op.fc_out,
        relu ? tensor::GemmEpilogue::kBiasColRelu
             : tensor::GemmEpilogue::kBiasColAdd,
        op.bias.raw(), device);
    return out;
  };
  Tensor h = x;
  // Elementwise ops run in place once `h` is an intermediate this call
  // produced (and so uniquely owns); the caller's input — and anything
  // reshape-aliasing it — is never mutated.
  bool owned = false;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kConv:
        h = tensor::conv2d_forward(h, op.weight, op.bias, op.conv, device);
        owned = true;
        break;
      case Op::Kind::kConvRelu:
        h = tensor::conv2d_forward(h, op.weight, op.bias, op.conv, device,
                                   /*fuse_relu=*/true);
        owned = true;
        break;
      case Op::Kind::kConvDirect:
        h = conv2d_direct_forward(h, op.weight, op.bias, op.conv, device);
        owned = true;
        break;
      case Op::Kind::kLinear:
      case Op::Kind::kLinearRelu:
        h = fc(op, h);
        owned = true;
        break;
      case Op::Kind::kMaxPool: {
        // Grow-only per-thread scratch: inference discards the argmax
        // table, so rebuilding the vector every call would be the one
        // remaining per-forward heap allocation on this path.
        thread_local std::vector<std::int32_t> argmax;
        h = tensor::maxpool_forward(h, op.pool, argmax, device);
        owned = true;
        break;
      }
      case Op::Kind::kAvgPool:
        h = tensor::avgpool_forward(h, op.pool, device);
        owned = true;
        break;
      case Op::Kind::kRelu:
        if (owned) {
          tensor::relu_inplace(h, device);
        } else {
          h = tensor::relu(h, device);
          owned = true;
        }
        break;
      case Op::Kind::kTanh:
        if (owned) {
          tensor::tanh_inplace(h, device);
        } else {
          h = tensor::tanh_op(h, device);
          owned = true;
        }
        break;
      case Op::Kind::kLrn:
        h = lrn_forward(h, op.lrn_radius, op.lrn_k, op.lrn_alpha, op.lrn_beta,
                        /*scale_out=*/nullptr, device);
        owned = true;
        break;
      case Op::Kind::kFlatten: {
        const std::int64_t n = h.dim(0);
        // reshape aliases the same buffer: ownership is unchanged.
        h = h.reshape({n, h.numel() / n});
        break;
      }
    }
  }
  return h;
}

std::vector<std::int64_t> FrozenModel::predict(
    const Tensor& x, const runtime::Device& device) const {
  return tensor::argmax_rows(forward(x, device));
}

std::int64_t FrozenModel::num_params() const {
  std::int64_t n = 0;
  for (const Op& op : ops_) {
    const bool fc =
        op.kind == Op::Kind::kLinear || op.kind == Op::Kind::kLinearRelu;
    n += (fc ? op.fc_in * op.fc_out : op.weight.numel()) + op.bias.numel();
  }
  return n;
}

std::vector<const float*> FrozenModel::fc_panels() const {
  std::vector<const float*> out;
  for (const Op& op : ops_)
    if (op.panels) out.push_back(op.panels->data());
  return out;
}

std::string FrozenModel::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    os << "  (" << i << ") ";
    switch (op.kind) {
      case Op::Kind::kConv:
        os << "conv" << op.conv.kernel << "x" << op.conv.kernel << " "
           << op.conv.in_c << "->" << op.conv.out_c;
        break;
      case Op::Kind::kConvRelu:
        os << "conv+relu" << op.conv.kernel << "x" << op.conv.kernel << " "
           << op.conv.in_c << "->" << op.conv.out_c;
        break;
      case Op::Kind::kConvDirect:
        os << "conv-direct" << op.conv.kernel << "x" << op.conv.kernel << " "
           << op.conv.in_c << "->" << op.conv.out_c;
        break;
      case Op::Kind::kLinear:
        os << "fc " << op.fc_in << "->" << op.fc_out;
        break;
      case Op::Kind::kLinearRelu:
        os << "fc+relu " << op.fc_in << "->" << op.fc_out;
        break;
      case Op::Kind::kMaxPool:
        os << "maxpool" << op.pool.window << "x" << op.pool.window;
        break;
      case Op::Kind::kAvgPool:
        os << "avgpool" << op.pool.window << "x" << op.pool.window;
        break;
      case Op::Kind::kRelu:
        os << "ReLU";
        break;
      case Op::Kind::kTanh:
        os << "Tanh";
        break;
      case Op::Kind::kLrn:
        os << "lrn r=" << op.lrn_radius;
        break;
      case Op::Kind::kFlatten:
        os << "Flatten";
        break;
    }
    os << " [frozen]\n";
  }
  return os.str();
}

}  // namespace dlbench::nn
