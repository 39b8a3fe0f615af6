#include "nn/layers.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace dlbench::nn {

using tensor::Shape;

// ---- Conv2d ----

Conv2d::Conv2d(tensor::ConvGeom geom, tensor::InitKind init, util::Rng& rng)
    : geom_(geom),
      weight_(Shape({geom.out_c, geom.patch_size()})),
      bias_(Shape({geom.out_c})),
      dweight_(Shape({geom.out_c, geom.patch_size()})),
      dbias_(Shape({geom.out_c})) {
  tensor::initialize(weight_, init, geom.patch_size(),
                     geom.out_c * geom.kernel * geom.kernel, rng);
}

Conv2d::Conv2d(tensor::ConvGeom geom, Tensor weight, Tensor bias)
    : geom_(geom),
      weight_(std::move(weight)),
      bias_(std::move(bias)),
      dweight_(weight_.shape()),
      dbias_(bias_.shape()) {}

std::string Conv2d::describe() const {
  std::ostringstream os;
  os << "conv" << geom_.kernel << "x" << geom_.kernel << " " << geom_.in_c
     << "->" << geom_.out_c;
  if (geom_.pad != 0) os << " pad" << geom_.pad;
  if (geom_.stride != 1) os << " stride" << geom_.stride;
  return os.str();
}

Tensor Conv2d::forward(const Tensor& x, const Context& ctx) {
  cached_input_ = x;
  return tensor::conv2d_forward(x, weight_, bias_, geom_, ctx.device);
}

Tensor Conv2d::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "Conv2d::backward before forward");
  cotangent_blocks(dy, cached_input_.dim(0), ctx);
  if (!ctx.param_grads)
    return tensor::conv2d_backward_dx(weight_, dy, geom_, ctx.device);
  auto g = tensor::conv2d_backward(cached_input_, weight_, dy, geom_,
                                   ctx.device);
  tensor::add_inplace(dweight_, g.dweight, ctx.device);
  tensor::add_inplace(dbias_, g.dbias, ctx.device);
  return g.dx;
}

void Conv2d::backward_params(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "Conv2d::backward before forward");
  DLB_CHECK(ctx.param_grads, "backward_params needs Context::param_grads");
  cotangent_blocks(dy, cached_input_.dim(0), ctx);
  auto g = tensor::conv2d_backward_params(cached_input_, weight_, dy, geom_,
                                          ctx.device);
  tensor::add_inplace(dweight_, g.dweight, ctx.device);
  tensor::add_inplace(dbias_, g.dbias, ctx.device);
}

// ---- Linear ----

Linear::Linear(std::int64_t in_features, std::int64_t out_features,
               tensor::InitKind init, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Shape({in_features, out_features})),
      bias_(Shape({out_features})),
      dweight_(Shape({in_features, out_features})),
      dbias_(Shape({out_features})) {
  DLB_CHECK(in_features > 0 && out_features > 0,
            "Linear dims must be positive");
  tensor::initialize(weight_, init, in_features, out_features, rng);
}

Linear::Linear(Tensor weight, Tensor bias)
    : in_(weight.dim(0)),
      out_(weight.dim(1)),
      weight_(std::move(weight)),
      bias_(std::move(bias)),
      dweight_(weight_.shape()),
      dbias_(bias_.shape()) {}

std::string Linear::describe() const {
  std::ostringstream os;
  os << "fc " << in_ << "->" << out_;
  return os.str();
}

Tensor Linear::forward(const Tensor& x, const Context& ctx) {
  DLB_CHECK(x.shape().rank() == 2 && x.dim(1) == in_,
            "Linear expects [N, " << in_ << "], got "
                                  << x.shape().to_string());
  cached_input_ = x;
  return tensor::matmul_bias(x, weight_, bias_, ctx.device);
}

Tensor Linear::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "Linear::backward before forward");
  cotangent_blocks(dy, cached_input_.dim(0), ctx);
  if (ctx.param_grads) {
    // dW[in, out] += x^T [in, N] * dy [N, out], straight into the
    // gradient: on the zeroed gradient of a step's one backward this is
    // the bits of a fresh product added to zero.
    tensor::matmul_tn_accumulate(cached_input_, dy, dweight_, ctx.device);
    Tensor db = tensor::column_sums(dy, ctx.device);
    tensor::add_inplace(dbias_, db, ctx.device);
  }
  // dx[N, in] = dy [N, out] * W^T [out, in]; every GEMM row is its own
  // full-K chain, so stacked rows match separate calls bitwise.
  return tensor::matmul_nt(dy, weight_, ctx.device);
}

// ---- LinearReLU ----

LinearReLU::LinearReLU(std::int64_t in_features, std::int64_t out_features,
                       tensor::InitKind init, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Shape({in_features, out_features})),
      bias_(Shape({out_features})),
      dweight_(Shape({in_features, out_features})),
      dbias_(Shape({out_features})) {
  DLB_CHECK(in_features > 0 && out_features > 0,
            "LinearReLU dims must be positive");
  tensor::initialize(weight_, init, in_features, out_features, rng);
}

LinearReLU::LinearReLU(Tensor weight, Tensor bias)
    : in_(weight.dim(0)),
      out_(weight.dim(1)),
      weight_(std::move(weight)),
      bias_(std::move(bias)),
      dweight_(weight_.shape()),
      dbias_(bias_.shape()) {}

std::string LinearReLU::describe() const {
  std::ostringstream os;
  os << "fc+relu " << in_ << "->" << out_;
  return os.str();
}

Tensor LinearReLU::forward(const Tensor& x, const Context& ctx) {
  DLB_CHECK(x.shape().rank() == 2 && x.dim(1) == in_,
            "LinearReLU expects [N, " << in_ << "], got "
                                      << x.shape().to_string());
  cached_input_ = x;
  cached_output_ = tensor::matmul_bias_relu(x, weight_, bias_, ctx.device);
  return cached_output_;
}

Tensor LinearReLU::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "LinearReLU::backward before forward");
  // The cached output is a valid ReLU mask: y > 0 iff pre-activation > 0.
  Tensor dz = per_block(dy, cached_input_.dim(0), ctx, [&](const Tensor& b) {
    return tensor::relu_backward(cached_output_, b, ctx.device);
  });
  if (ctx.param_grads) {
    tensor::matmul_tn_accumulate(cached_input_, dz, dweight_, ctx.device);
    Tensor db = tensor::column_sums(dz, ctx.device);
    tensor::add_inplace(dbias_, db, ctx.device);
  }
  return tensor::matmul_nt(dz, weight_, ctx.device);
}

// ---- pooling ----

std::string MaxPool2d::describe() const {
  std::ostringstream os;
  os << "maxpool" << geom_.window << "x" << geom_.window << " stride"
     << geom_.stride << (geom_.ceil_mode ? " ceil" : "");
  return os.str();
}

Tensor MaxPool2d::forward(const Tensor& x, const Context& ctx) {
  return tensor::maxpool_forward(x, geom_, argmax_, ctx.device);
}

Tensor MaxPool2d::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!argmax_.empty(), "MaxPool2d::backward before forward");
  const auto rows = static_cast<std::int64_t>(argmax_.size()) /
                    (geom_.channels * geom_.out_h() * geom_.out_w());
  return per_block(dy, rows, ctx, [&](const Tensor& b) {
    return tensor::maxpool_backward(b, geom_, argmax_, ctx.device);
  });
}

std::string AvgPool2d::describe() const {
  std::ostringstream os;
  os << "avgpool" << geom_.window << "x" << geom_.window << " stride"
     << geom_.stride << (geom_.ceil_mode ? " ceil" : "");
  return os.str();
}

Tensor AvgPool2d::forward(const Tensor& x, const Context& ctx) {
  rows_ = x.dim(0);
  return tensor::avgpool_forward(x, geom_, ctx.device);
}

Tensor AvgPool2d::backward(const Tensor& dy, const Context& ctx) {
  // Caches nothing but the row count: each sample's plane is spread
  // independently, so a stacked dy runs as one batch.
  cotangent_blocks(dy, rows_, ctx);
  return tensor::avgpool_backward(dy, geom_, ctx.device);
}

// ---- activations ----

Tensor ReLU::forward(const Tensor& x, const Context& ctx) {
  cached_input_ = x;
  return tensor::relu(x, ctx.device);
}

Tensor ReLU::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "ReLU::backward before forward");
  return per_block(dy, cached_input_.dim(0), ctx, [&](const Tensor& b) {
    return tensor::relu_backward(cached_input_, b, ctx.device);
  });
}

Tensor Tanh::forward(const Tensor& x, const Context& ctx) {
  cached_output_ = tensor::tanh_op(x, ctx.device);
  return cached_output_;
}

Tensor Tanh::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_output_.empty(), "Tanh::backward before forward");
  return per_block(dy, cached_output_.dim(0), ctx, [&](const Tensor& b) {
    return tensor::tanh_backward(cached_output_, b, ctx.device);
  });
}

// ---- dropout ----

Dropout::Dropout(float drop_probability) : p_(drop_probability) {
  DLB_CHECK(p_ >= 0.f && p_ < 1.f, "dropout probability must be in [0,1)");
}

std::string Dropout::describe() const {
  std::ostringstream os;
  os << "dropout p=" << p_;
  return os.str();
}

Tensor Dropout::forward(const Tensor& x, const Context& ctx) {
  rows_ = x.dim(0);
  if (!ctx.training || p_ == 0.f) {
    mask_valid_ = false;
    return x;
  }
  DLB_CHECK(ctx.rng != nullptr, "Dropout in training mode needs an Rng");
  mask_ = Tensor(x.shape());
  const float keep = 1.f - p_;
  const float scale = 1.f / keep;
  float* pm = mask_.raw();
  // Inverted dropout mask drawn serially for determinism.
  for (std::int64_t i = 0; i < mask_.numel(); ++i)
    pm[i] = ctx.rng->bernoulli(keep) ? scale : 0.f;
  mask_valid_ = true;
  return tensor::mul(x, mask_, ctx.device);
}

Tensor Dropout::backward(const Tensor& dy, const Context& ctx) {
  if (!mask_valid_) {
    cotangent_blocks(dy, rows_, ctx);
    return dy;
  }
  return per_block(dy, rows_, ctx, [&](const Tensor& b) {
    return tensor::mul(b, mask_, ctx.device);
  });
}

// ---- local response normalization ----

namespace {

// s^-beta on the hot path. For the default beta = 0.75 this is
// 1/(sqrt(s)*sqrt(sqrt(s))) — ~20x cheaper than std::pow per element.
inline float pow_neg_beta(float s, float beta) {
  if (beta == 0.75f) {
    const float r = std::sqrt(s);
    return 1.f / (r * std::sqrt(r));
  }
  return std::pow(s, -beta);
}

}  // namespace

LocalResponseNorm::LocalResponseNorm(std::int64_t depth_radius, float bias,
                                     float alpha, float beta)
    : radius_(depth_radius), k_(bias), alpha_(alpha), beta_(beta) {
  DLB_CHECK(radius_ >= 0, "LRN radius must be non-negative");
}

std::string LocalResponseNorm::describe() const {
  std::ostringstream os;
  os << "lrn r=" << radius_ << " beta=" << beta_;
  return os.str();
}

Tensor LocalResponseNorm::forward(const Tensor& x, const Context& ctx) {
  cached_input_ = x;
  return lrn_forward(x, radius_, k_, alpha_, beta_, &cached_scale_,
                     ctx.device);
}

Tensor lrn_forward(const Tensor& x, std::int64_t radius, float k, float alpha,
                   float beta, Tensor* scale_out, const Device& device) {
  DLB_CHECK(x.shape().rank() == 4, "LRN expects [N, C, H, W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t hw = h * w;
  if (scale_out != nullptr) *scale_out = Tensor(x.shape());
  Tensor y(x.shape());
  const float* px = x.raw();
  float* ps = scale_out != nullptr ? scale_out->raw() : nullptr;
  float* py = y.raw();

  device.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* xi = px + static_cast<std::int64_t>(i) * c * hw;
          float* si = ps ? ps + static_cast<std::int64_t>(i) * c * hw : nullptr;
          float* yi = py + static_cast<std::int64_t>(i) * c * hw;
          for (std::int64_t pos = 0; pos < hw; ++pos) {
            for (std::int64_t ch = 0; ch < c; ++ch) {
              const std::int64_t lo_c = std::max<std::int64_t>(0, ch - radius);
              const std::int64_t hi_c = std::min(c - 1, ch + radius);
              float acc = 0.f;
              for (std::int64_t j = lo_c; j <= hi_c; ++j) {
                const float v = xi[j * hw + pos];
                acc += v * v;
              }
              const float scale = k + alpha * acc;
              if (si) si[ch * hw + pos] = scale;
              yi[ch * hw + pos] =
                  xi[ch * hw + pos] * pow_neg_beta(scale, beta);
            }
          }
        }
      },
      1);
  return y;
}

Tensor LocalResponseNorm::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "LRN::backward before forward");
  return per_block(dy, cached_input_.dim(0), ctx,
                   [&](const Tensor& b) { return backward_block(b, ctx); });
}

Tensor LocalResponseNorm::backward_block(const Tensor& dy,
                                         const Context& ctx) const {
  const Tensor& x = cached_input_;
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t hw = h * w;
  Tensor dx(x.shape());
  const float* px = x.raw();
  const float* ps = cached_scale_.raw();
  const float* pdy = dy.raw();
  float* pdx = dx.raw();

  // dx_j = dy_j * s_j^-beta
  //        - 2 alpha beta x_j * sum_{i: j in win(i)} dy_i x_i s_i^{-beta-1}
  ctx.device.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* xi = px + static_cast<std::int64_t>(i) * c * hw;
          const float* si = ps + static_cast<std::int64_t>(i) * c * hw;
          const float* gi = pdy + static_cast<std::int64_t>(i) * c * hw;
          float* di = pdx + static_cast<std::int64_t>(i) * c * hw;
          for (std::int64_t pos = 0; pos < hw; ++pos) {
            for (std::int64_t ch = 0; ch < c; ++ch) {
              const float s = si[ch * hw + pos];
              float grad = gi[ch * hw + pos] * pow_neg_beta(s, beta_);
              const std::int64_t lo_c = std::max<std::int64_t>(0, ch - radius_);
              const std::int64_t hi_c = std::min(c - 1, ch + radius_);
              float cross = 0.f;
              for (std::int64_t j = lo_c; j <= hi_c; ++j) {
                const float sj = si[j * hw + pos];
                cross += gi[j * hw + pos] * xi[j * hw + pos] *
                         pow_neg_beta(sj, beta_) / sj;
              }
              grad -= 2.f * alpha_ * beta_ * xi[ch * hw + pos] * cross;
              di[ch * hw + pos] = grad;
            }
          }
        }
      },
      1);
  return dx;
}

// ---- flatten ----

Tensor Flatten::forward(const Tensor& x, const Context&) {
  DLB_CHECK(x.shape().rank() >= 2, "Flatten expects a batched tensor");
  input_shape_ = x.shape();
  const std::int64_t n = x.dim(0);
  return x.reshape(Shape({n, x.numel() / n}));
}

Tensor Flatten::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(input_shape_.rank() != 0, "Flatten::backward before forward");
  const std::int64_t rows = input_shape_.dim(0);
  return dy.reshape(
      input_shape_.with_batch(cotangent_blocks(dy, rows, ctx) * rows));
}

// ---- clone ----
//
// Parameterized layers rebuild through their weight-taking constructor
// from deep copies of the weights; it gives them zeroed gradient
// buffers and empty caches, which is exactly the "fresh layer, same
// weights" contract.

LayerPtr Conv2d::clone() const {
  return LayerPtr(new Conv2d(geom_, weight_.clone(), bias_.clone()));
}

LayerPtr Linear::clone() const {
  return LayerPtr(new Linear(weight_.clone(), bias_.clone()));
}

LayerPtr LinearReLU::clone() const {
  return LayerPtr(new LinearReLU(weight_.clone(), bias_.clone()));
}

LayerPtr MaxPool2d::clone() const { return std::make_unique<MaxPool2d>(geom_); }

LayerPtr AvgPool2d::clone() const { return std::make_unique<AvgPool2d>(geom_); }

LayerPtr Dropout::clone() const { return std::make_unique<Dropout>(p_); }

LayerPtr LocalResponseNorm::clone() const {
  return std::make_unique<LocalResponseNorm>(radius_, k_, alpha_, beta_);
}

}  // namespace dlbench::nn
