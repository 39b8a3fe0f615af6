// Layer-level tests: forward semantics, backward vs numeric gradients,
// training/eval mode behavior, parameter bookkeeping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace dlbench::nn {
namespace {

using runtime::Device;
using tensor::Shape;
using tensor::Tensor;

Context eval_ctx() {
  Context ctx;
  ctx.device = Device::cpu();
  ctx.training = false;
  return ctx;
}

// Numeric input-gradient check for any layer: loss = sum(layer(x)).
void check_input_gradient(Layer& layer, const Tensor& x, float tol = 0.05f) {
  Context ctx = eval_ctx();
  Tensor y = layer.forward(x, ctx);
  Tensor dy(y.shape(), 1.f);
  Tensor dx = layer.backward(dy, ctx);
  ASSERT_EQ(dx.shape(), x.shape());

  const float eps = 1e-2f;
  const std::int64_t stride = std::max<std::int64_t>(1, x.numel() / 9);
  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    Tensor xp = x.clone(), xm = x.clone();
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double fp = tensor::sum(layer.forward(xp, ctx));
    const double fm = tensor::sum(layer.forward(xm, ctx));
    const double numeric = (fp - fm) / (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, tol) << "input grad at " << i;
  }
}

TEST(Conv2dLayer, ForwardShapeAndDescribe) {
  util::Rng rng(1);
  tensor::ConvGeom g{1, 28, 28, 20, 5, 1, 0};
  Conv2d conv(g, tensor::InitKind::kXavierUniform, rng);
  Context ctx = eval_ctx();
  Tensor x = Tensor::randn(Shape({2, 1, 28, 28}), rng);
  Tensor y = conv.forward(x, ctx);
  EXPECT_EQ(y.shape(), Shape({2, 20, 24, 24}));
  EXPECT_EQ(conv.describe(), "conv5x5 1->20");
  EXPECT_EQ(conv.num_params(), 20 * 25 + 20);
}

TEST(Conv2dLayer, BackwardBeforeForwardThrows) {
  util::Rng rng(2);
  tensor::ConvGeom g{1, 8, 8, 2, 3, 1, 0};
  Conv2d conv(g, tensor::InitKind::kXavierUniform, rng);
  Tensor dy(Shape({1, 2, 6, 6}), 1.f);
  Context ctx = eval_ctx();
  EXPECT_THROW(conv.backward(dy, ctx), dlbench::Error);
}

TEST(Conv2dLayer, InputGradientNumeric) {
  util::Rng rng(3);
  tensor::ConvGeom g{2, 6, 6, 3, 3, 1, 1};
  Conv2d conv(g, tensor::InitKind::kXavierUniform, rng);
  Tensor x = Tensor::randn(Shape({2, 2, 6, 6}), rng);
  check_input_gradient(conv, x);
}

TEST(Conv2dDirectLayer, MatchesGemmConvolution) {
  util::Rng rng1(4), rng2(4);
  tensor::ConvGeom g{3, 7, 7, 4, 3, 1, 1};
  Conv2d gemm_conv(g, tensor::InitKind::kXavierUniform, rng1);
  Conv2dDirect direct_conv(g, tensor::InitKind::kXavierUniform, rng2);
  Context ctx = eval_ctx();
  util::Rng xr(5);
  Tensor x = Tensor::randn(Shape({2, 3, 7, 7}), xr);
  Tensor a = gemm_conv.forward(x, ctx);
  Tensor b = direct_conv.forward(x, ctx);
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a.at(i), b.at(i), 2e-4f);

  // Gradients agree too.
  Tensor dy(a.shape(), 1.f);
  Tensor dxa = gemm_conv.backward(dy, ctx);
  Tensor dxb = direct_conv.backward(dy, ctx);
  for (std::int64_t i = 0; i < dxa.numel(); ++i)
    ASSERT_NEAR(dxa.at(i), dxb.at(i), 2e-4f);
  auto ga = gemm_conv.grads();
  auto gb = direct_conv.grads();
  for (std::size_t p = 0; p < ga.size(); ++p)
    for (std::int64_t i = 0; i < ga[p]->numel(); ++i)
      ASSERT_NEAR(ga[p]->at(i), gb[p]->at(i), 2e-3f);
}

TEST(LinearLayer, ForwardComputesAffine) {
  util::Rng rng(6);
  Linear fc(3, 2, tensor::InitKind::kXavierUniform, rng);
  fc.params()[0]->fill(1.f);  // weight all ones
  fc.params()[1]->fill(0.5f); // bias
  Context ctx = eval_ctx();
  Tensor x(Shape({1, 3}), std::vector<float>{1, 2, 3});
  Tensor y = fc.forward(x, ctx);
  EXPECT_FLOAT_EQ(y.at(0), 6.5f);
  EXPECT_FLOAT_EQ(y.at(1), 6.5f);
}

TEST(LinearLayer, RejectsWrongInputWidth) {
  util::Rng rng(7);
  Linear fc(3, 2, tensor::InitKind::kXavierUniform, rng);
  Context ctx = eval_ctx();
  Tensor x(Shape({1, 4}));
  EXPECT_THROW(fc.forward(x, ctx), dlbench::Error);
}

TEST(LinearLayer, GradientsNumeric) {
  util::Rng rng(8);
  Linear fc(5, 4, tensor::InitKind::kXavierUniform, rng);
  Tensor x = Tensor::randn(Shape({3, 5}), rng);
  check_input_gradient(fc, x, 0.02f);

  // Weight gradient numeric spot-check.
  Context ctx = eval_ctx();
  fc.zero_grads();
  Tensor y = fc.forward(x, ctx);
  Tensor dy(y.shape(), 1.f);
  (void)fc.backward(dy, ctx);
  Tensor* w = fc.params()[0];
  Tensor* dw = fc.grads()[0];
  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 7L, w->numel() - 1}) {
    const float saved = w->at(i);
    w->data()[i] = saved + eps;
    const double fp = tensor::sum(fc.forward(x, ctx));
    w->data()[i] = saved - eps;
    const double fm = tensor::sum(fc.forward(x, ctx));
    w->data()[i] = saved;
    EXPECT_NEAR(dw->at(i), (fp - fm) / (2 * eps), 0.05) << "dw " << i;
  }
}

TEST(Activations, InputGradientsNumeric) {
  util::Rng rng(9);
  Tensor x = Tensor::randn(Shape({2, 3, 4, 4}), rng);
  // Push values away from ReLU's kink so the finite-difference probe
  // (eps = 1e-2) does not straddle it.
  for (auto& v : x.data())
    if (std::fabs(v) < 0.05f) v = v < 0 ? -0.05f : 0.05f;
  {
    ReLU relu;
    check_input_gradient(relu, x, 0.02f);
  }
  {
    Tanh tanh_layer;
    check_input_gradient(tanh_layer, x, 0.02f);
  }
}

TEST(Dropout, IdentityInEvalMode) {
  Dropout drop(0.5f);
  Context ctx = eval_ctx();
  util::Rng rng(10);
  Tensor x = Tensor::randn(Shape({4, 4}), rng);
  Tensor y = drop.forward(x, ctx);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y.at(i), x.at(i));
}

TEST(Dropout, TrainingMasksAndRescales) {
  Dropout drop(0.5f);
  Context ctx = eval_ctx();
  ctx.training = true;
  util::Rng rng(11);
  ctx.rng = &rng;
  Tensor x(Shape({10000}), 1.f);
  Tensor y = drop.forward(x, ctx);
  std::int64_t zeros = 0;
  for (float v : y.data()) {
    if (v == 0.f) ++zeros;
    else EXPECT_FLOAT_EQ(v, 2.f);  // inverted dropout scaling
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
  // Expected value preserved.
  EXPECT_NEAR(tensor::mean_of(y), 1.0, 0.05);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop(0.5f);
  Context ctx = eval_ctx();
  ctx.training = true;
  util::Rng rng(12);
  ctx.rng = &rng;
  Tensor x(Shape({100}), 1.f);
  Tensor y = drop.forward(x, ctx);
  Tensor dy(Shape({100}), 1.f);
  Tensor dx = drop.backward(dy, ctx);
  for (std::int64_t i = 0; i < 100; ++i)
    EXPECT_EQ(dx.at(i), y.at(i));  // same mask, same scale
}

TEST(Dropout, TrainingWithoutRngThrows) {
  Dropout drop(0.3f);
  Context ctx = eval_ctx();
  ctx.training = true;
  ctx.rng = nullptr;
  Tensor x(Shape({4}), 1.f);
  EXPECT_THROW(drop.forward(x, ctx), dlbench::Error);
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(-0.1f), dlbench::Error);
  EXPECT_THROW(Dropout(1.0f), dlbench::Error);
}

TEST(Lrn, NormalizesAcrossChannels) {
  LocalResponseNorm lrn(/*radius=*/1, /*bias=*/1.f, /*alpha=*/1.f,
                        /*beta=*/1.f);
  Context ctx = eval_ctx();
  Tensor x(Shape({1, 2, 1, 1}), std::vector<float>{1.f, 2.f});
  Tensor y = lrn.forward(x, ctx);
  // scale_0 = 1 + (1^2 + 2^2) = 6 → y_0 = 1/6
  EXPECT_NEAR(y.at(0), 1.f / 6.f, 1e-5);
  EXPECT_NEAR(y.at(1), 2.f / 6.f, 1e-5);
}

TEST(Lrn, InputGradientNumeric) {
  LocalResponseNorm lrn;  // default TF parameters
  util::Rng rng(13);
  Tensor x = Tensor::randn(Shape({1, 6, 3, 3}), rng, 0.f, 1.f);
  check_input_gradient(lrn, x, 0.03f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  Context ctx = eval_ctx();
  util::Rng rng(14);
  Tensor x = Tensor::randn(Shape({2, 3, 4, 5}), rng);
  Tensor y = flat.forward(x, ctx);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  Tensor dx = flat.backward(y, ctx);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Pooling, MaxPoolGradientNumericThroughLayer) {
  util::Rng rng(15);
  tensor::PoolGeom g{2, 6, 6, 2, 2, false};
  MaxPool2d pool(g);
  // Use distinct values so the argmax is stable under the probe eps.
  Tensor x = Tensor::randn(Shape({1, 2, 6, 6}), rng);
  check_input_gradient(pool, x, 0.02f);
}

TEST(Sequential, ParamsAndGradsAggregation) {
  util::Rng rng(16);
  Sequential model;
  model.add(std::make_unique<Linear>(4, 3, tensor::InitKind::kXavierUniform,
                                     rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(3, 2, tensor::InitKind::kXavierUniform,
                                     rng));
  EXPECT_EQ(model.params().size(), 4u);
  EXPECT_EQ(model.grads().size(), 4u);
  EXPECT_EQ(model.num_params(), 4 * 3 + 3 + 3 * 2 + 2);
  model.zero_grads();
  for (Tensor* g : model.grads())
    for (float v : g->data()) EXPECT_EQ(v, 0.f);
}

TEST(Sequential, ForwardLossAndBackwardShapes) {
  util::Rng rng(17);
  Sequential model;
  model.add(std::make_unique<Linear>(6, 10, tensor::InitKind::kXavierUniform,
                                     rng));
  Context ctx = eval_ctx();
  Tensor x = Tensor::randn(Shape({4, 6}), rng);
  std::vector<std::int64_t> labels{0, 3, 9, 5};
  LossResult res = model.forward_loss(x, labels, ctx);
  EXPECT_EQ(res.logits.shape(), Shape({4, 10}));
  EXPECT_GT(res.loss, 0.0);
  Tensor dx = model.backward(res, labels, ctx);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Sequential, LossDecreasesUnderManualSgd) {
  util::Rng rng(18);
  Sequential model;
  model.add(std::make_unique<Linear>(8, 10, tensor::InitKind::kXavierUniform,
                                     rng));
  Context ctx = eval_ctx();
  ctx.training = true;
  Tensor x = Tensor::randn(Shape({16, 8}), rng);
  std::vector<std::int64_t> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 10);

  double first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    model.zero_grads();
    LossResult res = model.forward_loss(x, labels, ctx);
    if (step == 0) first = res.loss;
    last = res.loss;
    model.backward(res, labels, ctx);
    auto params = model.params();
    auto grads = model.grads();
    for (std::size_t p = 0; p < params.size(); ++p)
      tensor::axpy_inplace(*params[p], -0.5f, *grads[p], ctx.device);
  }
  EXPECT_LT(last, first * 0.5);
}

TEST(Sequential, EmptyModelThrows) {
  Sequential model;
  Context ctx = eval_ctx();
  Tensor x(Shape({1, 2}));
  EXPECT_THROW(model.forward(x, ctx), dlbench::Error);
}

// ---- the stacked-cotangent backward contract (nn/layer.hpp) ----

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// One instance of every layer type, with a forward input of N = 2 rows.
struct LayerCase {
  std::string name;
  std::function<LayerPtr(util::Rng&)> make;
  Shape input;
  bool training = false;  // Dropout's mask exists only in training mode
};

std::vector<LayerCase> every_layer_type() {
  const tensor::ConvGeom conv{2, 6, 6, 3, 3, 1, 1};
  const tensor::PoolGeom pool{3, 6, 6, 3, 2, false};
  const auto init = tensor::InitKind::kXavierUniform;
  return {
      {"Conv2d",
       [=](util::Rng& r) { return LayerPtr(new Conv2d(conv, init, r)); },
       Shape({2, 2, 6, 6})},
      {"Conv2dDirect",
       [=](util::Rng& r) { return LayerPtr(new Conv2dDirect(conv, init, r)); },
       Shape({2, 2, 6, 6})},
      {"Linear",
       [=](util::Rng& r) { return LayerPtr(new Linear(12, 5, init, r)); },
       Shape({2, 12})},
      {"LinearReLU",
       [=](util::Rng& r) { return LayerPtr(new LinearReLU(12, 5, init, r)); },
       Shape({2, 12})},
      {"MaxPool2d", [=](util::Rng&) { return LayerPtr(new MaxPool2d(pool)); },
       Shape({2, 3, 6, 6})},
      {"AvgPool2d", [=](util::Rng&) { return LayerPtr(new AvgPool2d(pool)); },
       Shape({2, 3, 6, 6})},
      {"ReLU", [](util::Rng&) { return LayerPtr(new ReLU()); },
       Shape({2, 3, 4})},
      {"Tanh", [](util::Rng&) { return LayerPtr(new Tanh()); },
       Shape({2, 3, 4})},
      {"Dropout(train)", [](util::Rng&) { return LayerPtr(new Dropout(0.5f)); },
       Shape({2, 3, 4}), /*training=*/true},
      {"Dropout(eval)", [](util::Rng&) { return LayerPtr(new Dropout(0.5f)); },
       Shape({2, 3, 4})},
      {"LocalResponseNorm",
       [](util::Rng&) { return LayerPtr(new LocalResponseNorm(2)); },
       Shape({2, 5, 3, 3})},
      {"Flatten", [](util::Rng&) { return LayerPtr(new Flatten()); },
       Shape({2, 3, 2, 2})},
  };
}

// k stacked cotangents under param_grads off give, block for block, the
// bits of k separate full backward passes, and leave every parameter
// gradient untouched; stacking with param_grads on throws.
TEST(StackedBackward, EveryLayerMatchesSeparatePassesBitwise) {
  constexpr std::int64_t kBlocks = 3;
  for (const LayerCase& c : every_layer_type()) {
    SCOPED_TRACE(c.name);
    util::Rng rng(21);
    LayerPtr layer = c.make(rng);
    Context full = eval_ctx();
    full.training = c.training;
    full.rng = &rng;
    Context input_only = full;
    input_only.param_grads = false;

    const Tensor x = Tensor::randn(c.input, rng);
    const Tensor y = layer->forward(x, full);
    const std::int64_t rows = y.dim(0);
    const Tensor dy = Tensor::randn(y.shape().with_batch(kBlocks * rows), rng);

    std::vector<Tensor> separate;
    for (std::int64_t b = 0; b < kBlocks; ++b) {
      layer->zero_grads();
      separate.push_back(
          layer->backward(dy.rows(b * rows, rows), full).clone());
    }

    for (Tensor* g : layer->grads()) g->fill(-7.25f);  // sentinel
    const Tensor single = layer->backward(dy.rows(0, rows), input_only);
    EXPECT_TRUE(same_bits(single, separate[0]));
    const Tensor stacked = layer->backward(dy, input_only);
    ASSERT_EQ(stacked.shape(), x.shape().with_batch(kBlocks * x.dim(0)));
    for (std::int64_t b = 0; b < kBlocks; ++b)
      EXPECT_TRUE(same_bits(stacked.rows(b * x.dim(0), x.dim(0)), separate[b]))
          << "block " << b;
    for (Tensor* g : layer->grads())
      for (float v : g->data()) ASSERT_EQ(v, -7.25f);

    EXPECT_THROW(layer->backward(dy, full), dlbench::Error);
    EXPECT_THROW(layer->backward(dy.rows(0, rows + 1), input_only),
                 dlbench::Error);
  }
}

TEST(StackedBackward, EveryLayerRejectsBackwardBeforeForward) {
  for (const LayerCase& c : every_layer_type()) {
    SCOPED_TRACE(c.name);
    util::Rng rng(22);
    LayerPtr layer = c.make(rng);
    Context ctx = eval_ctx();
    ctx.param_grads = false;
    EXPECT_THROW(layer->backward(Tensor(c.input), ctx), dlbench::Error);
  }
}

}  // namespace
}  // namespace dlbench::nn
