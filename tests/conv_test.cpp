// Convolution and pooling kernels: im2col/col2im structure, forward
// against a naive reference, backward against numeric gradients and a
// bitwise fma-chain oracle, the ceil/floor pooling arithmetic the
// paper's nets depend on, and the pooling fast paths bitwise against a
// clamped per-window oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "conv_reference.hpp"
#include "runtime/device.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"
#include "util/rng.hpp"

namespace dlbench::tensor {
namespace {

using runtime::Device;

// Naive direct convolution used as the reference implementation.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                  const ConvGeom& g) {
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  Tensor y({n, g.out_c, oh, ow});
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t oc = 0; oc < g.out_c; ++oc)
      for (std::int64_t y0 = 0; y0 < oh; ++y0)
        for (std::int64_t x0 = 0; x0 < ow; ++x0) {
          double acc = b.at(oc);
          for (std::int64_t ic = 0; ic < g.in_c; ++ic)
            for (std::int64_t ky = 0; ky < g.kernel; ++ky)
              for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
                const std::int64_t iy = y0 * g.stride + ky - g.pad;
                const std::int64_t ix = x0 * g.stride + kx - g.pad;
                if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w)
                  continue;
                acc += static_cast<double>(
                           w.at(oc * g.patch_size() +
                                (ic * g.kernel + ky) * g.kernel + kx)) *
                       x.at(((i * g.in_c + ic) * g.in_h + iy) * g.in_w + ix);
              }
          y.data()[((i * g.out_c + oc) * oh + y0) * ow + x0] =
              static_cast<float>(acc);
        }
  return y;
}

TEST(ConvGeom, OutputArithmetic) {
  ConvGeom g{/*in_c=*/1, /*in_h=*/28, /*in_w=*/28, /*out_c=*/20,
             /*kernel=*/5, /*stride=*/1, /*pad=*/0};
  EXPECT_EQ(g.out_h(), 24);
  EXPECT_EQ(g.patch_size(), 25);
  g.pad = 2;
  EXPECT_EQ(g.out_h(), 28);  // SAME padding
}

TEST(Im2Col, RoundTripThroughCol2ImIsOverlapCount) {
  // col2im(im2col(x)) multiplies each pixel by the number of windows
  // covering it; with kernel 1 that count is 1 → exact roundtrip.
  ConvGeom g{2, 4, 4, 1, /*kernel=*/1, /*stride=*/1, /*pad=*/0};
  util::Rng rng(1);
  Tensor x = Tensor::randn(Shape({1, 2, 4, 4}), rng);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size() * 16));
  im2col(x.raw(), g, cols.data());
  Tensor back(Shape({1, 2, 4, 4}));
  col2im(cols.data(), g, back.raw());
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(back.at(i), x.at(i));
}

TEST(Im2Col, ZeroPadsOutOfBounds) {
  ConvGeom g{1, 2, 2, 1, /*kernel=*/3, /*stride=*/1, /*pad=*/1};
  Tensor x(Shape({1, 1, 2, 2}), 1.f);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) *
                          static_cast<std::size_t>(g.out_h() * g.out_w()));
  im2col(x.raw(), g, cols.data());
  // Top-left output's top-left kernel tap reads the (-1,-1) pad → 0.
  EXPECT_EQ(cols[0], 0.f);
}

using ConvParam = std::tuple<int, int, int, int, int, bool>;  // ic,oc,hw,k,pad,par

class ConvShapes : public ::testing::TestWithParam<ConvParam> {
 protected:
  Device dev() const {
    return std::get<5>(GetParam()) ? Device::parallel(4) : Device::cpu();
  }
};

TEST_P(ConvShapes, ForwardMatchesNaive) {
  auto [ic, oc, hw, k, pad, par] = GetParam();
  (void)par;
  ConvGeom g{ic, hw, hw, oc, k, 1, pad};
  if (g.out_h() <= 0) GTEST_SKIP();
  util::Rng rng(static_cast<std::uint64_t>(ic * 100 + oc * 10 + hw));
  Tensor x = Tensor::randn(Shape({3, ic, hw, hw}), rng);
  Tensor w = Tensor::randn(Shape({oc, g.patch_size()}), rng, 0.f, 0.5f);
  Tensor b = Tensor::randn(Shape({oc}), rng);
  Tensor got = conv2d_forward(x, w, b, g, dev());
  Tensor want = naive_conv(x, w, b, g);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_NEAR(got.at(i), want.at(i), 1e-3f) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapes,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Values(2, 6),
                       ::testing::Values(6, 9), ::testing::Values(3, 5),
                       ::testing::Values(0, 2), ::testing::Bool()),
    [](const ::testing::TestParamInfo<ConvParam>& info) {
      return "ic" + std::to_string(std::get<0>(info.param)) + "oc" +
             std::to_string(std::get<1>(info.param)) + "hw" +
             std::to_string(std::get<2>(info.param)) + "k" +
             std::to_string(std::get<3>(info.param)) + "p" +
             std::to_string(std::get<4>(info.param)) +
             (std::get<5>(info.param) ? "Par" : "Ser");
    });

TEST(ConvBackward, GradientsMatchNumeric) {
  ConvGeom g{2, 6, 6, 3, /*kernel=*/3, /*stride=*/1, /*pad=*/1};
  util::Rng rng(11);
  Tensor x = Tensor::randn(Shape({2, 2, 6, 6}), rng);
  Tensor w = Tensor::randn(Shape({3, g.patch_size()}), rng, 0.f, 0.5f);
  Tensor b = Tensor::randn(Shape({3}), rng);
  const Device dev = Device::cpu();

  // Loss = sum(conv(x)); dL/dy = ones.
  Tensor y = conv2d_forward(x, w, b, g, dev);
  Tensor dy(y.shape(), 1.f);
  ConvGrads grads = conv2d_backward(x, w, dy, g, dev);

  const float eps = 1e-2f;
  auto loss_at = [&](const Tensor& xx, const Tensor& ww, const Tensor& bb) {
    return sum(conv2d_forward(xx, ww, bb, g, dev));
  };
  // Spot-check a handful of coordinates of each gradient.
  for (std::int64_t i : {0L, 7L, 31L, x.numel() - 1}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double numeric = (loss_at(xp, w, b) - loss_at(xm, w, b)) / (2 * eps);
    EXPECT_NEAR(grads.dx.at(i), numeric, 0.05) << "dx " << i;
  }
  for (std::int64_t i : {0L, 5L, w.numel() - 1}) {
    Tensor wp = w.clone(), wm = w.clone();
    wp.data()[i] += eps;
    wm.data()[i] -= eps;
    const double numeric = (loss_at(x, wp, b) - loss_at(x, wm, b)) / (2 * eps);
    EXPECT_NEAR(grads.dweight.at(i), numeric, 0.05) << "dw " << i;
  }
  for (std::int64_t i : {0L, 2L}) {
    Tensor bp = b.clone(), bm = b.clone();
    bp.data()[i] += eps;
    bm.data()[i] -= eps;
    const double numeric = (loss_at(x, w, bp) - loss_at(x, w, bm)) / (2 * eps);
    EXPECT_NEAR(grads.dbias.at(i), numeric, 0.05) << "db " << i;
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

Device device_with(int workers) {
  return workers == 1 ? Device::cpu() : Device::parallel(workers);
}

// dW and db are single chains over (sample, position) and every dW tile
// has one owner, so every output is bitwise independent of the worker
// count.
TEST(ConvBackward, SerialAndParallelAgree) {
  ConvGeom g{3, 8, 8, 4, /*kernel=*/3, /*stride=*/1, /*pad=*/1};
  util::Rng rng(12);
  Tensor x = Tensor::randn(Shape({5, 3, 8, 8}), rng);
  Tensor w = Tensor::randn(Shape({4, g.patch_size()}), rng);
  Tensor dy = Tensor::randn(Shape({5, 4, 8, 8}), rng);
  ConvGrads a = conv2d_backward(x, w, dy, g, Device::cpu());
  for (const int workers : {2, 3, 4}) {
    ConvGrads b = conv2d_backward(x, w, dy, g, Device::parallel(workers));
    EXPECT_TRUE(same_bits(a.dx, b.dx)) << "dx, workers=" << workers;
    EXPECT_TRUE(same_bits(a.dweight, b.dweight)) << "dW, workers=" << workers;
    EXPECT_TRUE(same_bits(a.dbias, b.dbias)) << "db, workers=" << workers;
  }
}

// The contract conv2d_backward documents, spelled out: dW[oc, p] is
// the multiply-add chain over k = (sample, position) ascending, and
// db[oc] the add chain in the same order.
void chain_oracle(const Tensor& x, const Tensor& dy, const ConvGeom& g,
                  Tensor& dw, Tensor& db) {
  const bool fused = gemm_fuses();
  const std::int64_t n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  dw = Tensor(Shape({g.out_c, g.patch_size()}));
  db = Tensor(Shape({g.out_c}));
  for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
    float bacc = 0.f;
    for (std::int64_t i = 0; i < n; ++i)
      for (std::int64_t j = 0; j < oh * ow; ++j)
        bacc += dy.at((i * g.out_c + oc) * oh * ow + j);
    db.data()[oc] = bacc;
    for (std::int64_t c = 0; c < g.in_c; ++c)
      for (std::int64_t ky = 0; ky < g.kernel; ++ky)
        for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
          float acc = 0.f;
          for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t y0 = 0; y0 < oh; ++y0)
              for (std::int64_t x0 = 0; x0 < ow; ++x0) {
                const std::int64_t iy = y0 * g.stride + ky - g.pad;
                const std::int64_t ix = x0 * g.stride + kx - g.pad;
                const bool inside =
                    iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
                const float col =
                    inside ? x.at(((i * g.in_c + c) * g.in_h + iy) * g.in_w +
                                  ix)
                           : 0.f;
                const float d = dy.at(((i * g.out_c + oc) * oh + y0) * ow + x0);
                // The double product of two floats is exact, so the cast
                // rounds it once, and no compiler can fuse it into the add.
                acc = fused ? std::fma(d, col, acc)
                            : acc + static_cast<float>(
                                        static_cast<double>(d) * col);
              }
          dw.data()[oc * g.patch_size() + (c * g.kernel + ky) * g.kernel +
                    kx] = acc;
        }
  }
}

TEST(ConvBackward, WeightGradsEqualFmaChainOracle) {
  struct Case {
    ConvGeom g;
    std::int64_t n;
  };
  const Case cases[] = {
      {{1, 7, 7, 5, 3, 1, 1}, 3},     // patch 9 < 16, out_c % 6 != 0
      {{3, 9, 9, 8, 5, 2, 0}, 1},     // patch 75 % 16 != 0, stride 2, n = 1
      {{2, 6, 6, 13, 3, 1, 0}, 5},    // out_c 13, n = 5 on 2/3/4 workers
      {{1, 6, 5, 32, 3, 1, 1}, 7},    // out_c > patch: split by channels
      {{4, 9, 9, 20, 5, 1, 2}, 7},    // patch 100, padded like the nets
      {{3, 10, 10, 7, 3, 2, 2}, 2},   // stride 2 with padding
      {{2, 5, 5, 6, 5, 1, 0}, 3},     // 1x1 output
  };
  util::Rng rng(31);
  for (const Case& c : cases) {
    const ConvGeom& g = c.g;
    Tensor x = Tensor::randn(Shape({c.n, g.in_c, g.in_h, g.in_w}), rng);
    Tensor w = Tensor::randn(Shape({g.out_c, g.patch_size()}), rng);
    Tensor dy = Tensor::randn(Shape({c.n, g.out_c, g.out_h(), g.out_w()}), rng);
    Tensor want_dw, want_db;
    chain_oracle(x, dy, g, want_dw, want_db);
    const Tensor want_dx = conv2d_backward_dx(w, dy, g, Device::cpu());
    for (const int workers : {1, 2, 3, 4}) {
      const std::string tag = "in_c " + std::to_string(g.in_c) + " out_c " +
                              std::to_string(g.out_c) + " n " +
                              std::to_string(c.n) + " workers " +
                              std::to_string(workers);
      ConvGrads got = conv2d_backward(x, w, dy, g, device_with(workers));
      EXPECT_TRUE(same_bits(got.dweight, want_dw)) << "dW, " << tag;
      EXPECT_TRUE(same_bits(got.dbias, want_db)) << "db, " << tag;
      EXPECT_TRUE(same_bits(got.dx, want_dx)) << "dx, " << tag;
    }
  }
}

// ---- pooling ----

TEST(Pool, GeometryCeilVsFloor) {
  PoolGeom floor_g{1, 24, 24, 3, 2, /*ceil=*/false};
  PoolGeom ceil_g{1, 24, 24, 3, 2, /*ceil=*/true};
  EXPECT_EQ(floor_g.out_h(), 11);  // Torch MNIST: 24 -> 11
  EXPECT_EQ(ceil_g.out_h(), 12);   // Caffe rounding
  PoolGeom tf{64, 32, 32, 3, 2, false};
  EXPECT_EQ(tf.out_h(), 15);  // TF CIFAR: 32 -> 15
}

TEST(Pool, MaxForwardPicksMaxAndArgmax) {
  PoolGeom g{1, 4, 4, 2, 2, false};
  Tensor x(Shape({1, 1, 4, 4}),
           std::vector<float>{1, 2, 5, 4,    //
                              3, 0, 1, 1,    //
                              9, 1, 0, 0,    //
                              1, 1, 0, 7});
  std::vector<std::int32_t> argmax;
  Tensor y = maxpool_forward(x, g, argmax, Device::cpu());
  EXPECT_EQ(y.at(0), 3.f);
  EXPECT_EQ(y.at(1), 5.f);
  EXPECT_EQ(y.at(2), 9.f);
  EXPECT_EQ(y.at(3), 7.f);
  EXPECT_EQ(argmax[2], 8);  // flat offset of the 9
}

TEST(Pool, MaxBackwardRoutesToArgmax) {
  PoolGeom g{1, 4, 4, 2, 2, false};
  util::Rng rng(13);
  Tensor x = Tensor::randn(Shape({1, 1, 4, 4}), rng);
  std::vector<std::int32_t> argmax;
  (void)maxpool_forward(x, g, argmax, Device::cpu());
  Tensor dy(Shape({1, 1, 2, 2}), std::vector<float>{1, 2, 3, 4});
  Tensor dx = maxpool_backward(dy, g, argmax, Device::cpu());
  EXPECT_DOUBLE_EQ(sum(dx), 10.0);  // gradient mass preserved
  EXPECT_EQ(dx.at(argmax[0]), 1.f);
}

TEST(Pool, AvgForwardAveragesWindow) {
  PoolGeom g{1, 2, 2, 2, 2, false};
  Tensor x(Shape({1, 1, 2, 2}), std::vector<float>{1, 2, 3, 6});
  Tensor y = avgpool_forward(x, g, Device::cpu());
  EXPECT_FLOAT_EQ(y.at(0), 3.f);
}

TEST(Pool, AvgPartialWindowUsesActualCount) {
  // ceil mode: last window covers a 1-wide strip; mean over 2 cells.
  PoolGeom g{1, 3, 3, 2, 2, /*ceil=*/true};
  Tensor x(Shape({1, 1, 3, 3}), 6.f);
  Tensor y = avgpool_forward(x, g, Device::cpu());
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.at(i), 6.f);
}

TEST(Pool, AvgBackwardMatchesNumeric) {
  PoolGeom g{2, 5, 5, 3, 2, /*ceil=*/true};
  util::Rng rng(14);
  Tensor x = Tensor::randn(Shape({1, 2, 5, 5}), rng);
  Tensor y = avgpool_forward(x, g, Device::cpu());
  Tensor dy(y.shape(), 1.f);
  Tensor dx = avgpool_backward(dy, g, Device::cpu());
  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 12L, x.numel() - 1}) {
    Tensor xp = x.clone(), xm = x.clone();
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double numeric = (sum(avgpool_forward(xp, g, Device::cpu())) -
                            sum(avgpool_forward(xm, g, Device::cpu()))) /
                           (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, 0.05);
  }
}

TEST(Pool, ParallelMatchesSerial) {
  PoolGeom g{4, 9, 9, 3, 2, true};
  util::Rng rng(15);
  Tensor x = Tensor::randn(Shape({6, 4, 9, 9}), rng);
  std::vector<std::int32_t> am1, am2;
  Tensor a = maxpool_forward(x, g, am1, Device::cpu());
  Tensor b = maxpool_forward(x, g, am2, Device::parallel(4));
  for (std::int64_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a.at(i), b.at(i));
  EXPECT_EQ(am1, am2);
}

// A window holding only -inf and NaN has no element above the initial
// -inf, so nothing is selected; its argmax must still lie inside the
// window (its first element), or backward routes the gradient to an
// unrelated input.
TEST(Pool, MaxWindowWithoutSelectableElementRoutesInsideItself) {
  const float ninf = -std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  PoolGeom g{1, 4, 4, 2, 2, false};
  Tensor x(Shape({1, 1, 4, 4}),
           std::vector<float>{5, 1, ninf, nan,    //
                              2, 3, nan, ninf,    //
                              1, 1, 0, 0,         //
                              1, 1, 0, 0});
  std::vector<std::int32_t> argmax;
  Tensor y = maxpool_forward(x, g, argmax, Device::cpu());
  EXPECT_EQ(y.at(1), ninf);
  EXPECT_EQ(argmax[1], 2);  // (0, 2): the window's first element
  Tensor dy(Shape({1, 1, 2, 2}), std::vector<float>{1, 2, 3, 4});
  Tensor dx = maxpool_backward(dy, g, argmax, Device::cpu());
  EXPECT_EQ(dx.at(2), 2.f);
  EXPECT_EQ(dx.at(0), 1.f);  // window 0 is unaffected
}

// Generic clamped oracles: one window at a time, (iy, ix) order.
void pool_oracle(const Tensor& x, const PoolGeom& g, Tensor& max_y,
                 std::vector<std::int32_t>& argmax, Tensor& avg_y) {
  const std::int64_t planes = x.dim(0) * g.channels;
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  max_y = Tensor(Shape({x.dim(0), g.channels, oh, ow}));
  avg_y = Tensor(Shape({x.dim(0), g.channels, oh, ow}));
  argmax.assign(static_cast<std::size_t>(max_y.numel()), -1);
  for (std::int64_t pc = 0; pc < planes; ++pc) {
    const float* in = x.raw() + pc * g.in_h * g.in_w;
    for (std::int64_t y0 = 0; y0 < oh; ++y0)
      for (std::int64_t x0 = 0; x0 < ow; ++x0) {
        const std::int64_t ys = y0 * g.stride, xs = x0 * g.stride;
        const std::int64_t ye = std::min(ys + g.window, g.in_h);
        const std::int64_t xe = std::min(xs + g.window, g.in_w);
        float best = -std::numeric_limits<float>::infinity();
        auto best_idx = static_cast<std::int32_t>(ys * g.in_w + xs);
        float acc = 0.f;
        for (std::int64_t iy = ys; iy < ye; ++iy)
          for (std::int64_t ix = xs; ix < xe; ++ix) {
            const float v = in[iy * g.in_w + ix];
            acc += v;
            if (v > best) {
              best = v;
              best_idx = static_cast<std::int32_t>(iy * g.in_w + ix);
            }
          }
        const std::int64_t o = (pc * oh + y0) * ow + x0;
        max_y.data()[o] = best;
        argmax[static_cast<std::size_t>(o)] = best_idx;
        avg_y.data()[o] = acc / static_cast<float>((ye - ys) * (xe - xs));
      }
  }
}

Tensor avg_backward_oracle(const Tensor& dy, const PoolGeom& g) {
  const std::int64_t planes = dy.dim(0) * g.channels;
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  Tensor dx(Shape({dy.dim(0), g.channels, g.in_h, g.in_w}));
  for (std::int64_t pc = 0; pc < planes; ++pc) {
    float* din = dx.raw() + pc * g.in_h * g.in_w;
    for (std::int64_t y0 = 0; y0 < oh; ++y0)
      for (std::int64_t x0 = 0; x0 < ow; ++x0) {
        const std::int64_t ys = y0 * g.stride, xs = x0 * g.stride;
        const std::int64_t ye = std::min(ys + g.window, g.in_h);
        const std::int64_t xe = std::min(xs + g.window, g.in_w);
        const float share = dy.at((pc * oh + y0) * ow + x0) /
                            static_cast<float>((ye - ys) * (xe - xs));
        for (std::int64_t iy = ys; iy < ye; ++iy)
          for (std::int64_t ix = xs; ix < xe; ++ix)
            din[iy * g.in_w + ix] += share;
      }
  }
  return dx;
}

// The interior fast paths (fixed windows 2 and 3, the generic fixed
// window, no clamps) and the clamped edge windows together must equal
// the oracle bit for bit: windows 2/3/4, strides 1-3, ceil on and off,
// odd sizes and inputs smaller than the window, with ties, NaN and
// -inf in the data.
TEST(Pool, FastPathsMatchClampedOracleBitwise) {
  const float ninf = -std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(41);
  int geometries = 0;
  for (const std::int64_t window : {2, 3, 4})
    for (const std::int64_t stride : {1, 2, 3})
      for (const bool ceil_mode : {false, true})
        for (const std::int64_t h : {1, 3, 6, 9})
          for (const std::int64_t w : {2, 5, 8, 11}) {
            const PoolGeom g{2, h, w, window, stride, ceil_mode};
            if (g.out_h() <= 0 || g.out_w() <= 0) continue;
            ++geometries;
            Tensor x(Shape({2, 2, h, w}));
            for (std::int64_t i = 0; i < x.numel(); ++i) {
              // Small integers make ties common.
              const auto r = rng.uniform_index(20);
              x.data()[i] = r == 0   ? nan
                            : r == 1 ? ninf
                                     : static_cast<float>(r % 5);
            }
            Tensor want_max, want_avg;
            std::vector<std::int32_t> want_arg;
            pool_oracle(x, g, want_max, want_arg, want_avg);
            Tensor dy = Tensor::randn(want_max.shape(), rng);
            const Tensor want_dx = avg_backward_oracle(dy, g);
            const std::string tag =
                "window " + std::to_string(window) + " stride " +
                std::to_string(stride) + (ceil_mode ? " ceil " : " floor ") +
                std::to_string(h) + "x" + std::to_string(w);
            for (const int workers : {1, 3}) {
              const Device dev = device_with(workers);
              std::vector<std::int32_t> arg(3, 7);  // stale contents
              EXPECT_TRUE(same_bits(maxpool_forward(x, g, arg, dev), want_max))
                  << "max " << tag;
              EXPECT_EQ(arg, want_arg) << "argmax " << tag;
              EXPECT_TRUE(same_bits(avgpool_forward(x, g, dev), want_avg))
                  << "avg " << tag;
              EXPECT_TRUE(same_bits(avgpool_backward(dy, g, dev), want_dx))
                  << "avg backward " << tag;
            }
          }
  EXPECT_GT(geometries, 100);
}

}  // namespace
}  // namespace dlbench::tensor
