// Differential kernel tests: the blocked/parallel GEMM family against a
// naive double-accumulation triple loop, and the im2col convolution
// against the direct reference implementation, each across a large set
// of randomized shapes; im2col/col2im against per-element oracles; the
// pre-packed GEMM entry points and K-blocked kAccumulate chains against
// gemm_packed; gemm_packed's row and column splits and its edge tiles
// against the fma-chain oracle; plus determinism checks (serial vs
// threaded, and run-to-run under threads).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "conv_reference.hpp"
#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "runtime/device.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"
#include "util/rng.hpp"

namespace dlbench::tensor {
namespace {

using runtime::Device;

// References accumulate in double, so the comparison tolerance reflects
// only float rounding inside the kernels under test.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape().dim(0), k = a.shape().dim(1),
                     n = b.shape().dim(1);
  Tensor c(Shape({m, n}));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(i * k + p)) *
               static_cast<double>(b.at(p * n + j));
      c.at(i * n + j) = static_cast<float>(acc);
    }
  return c;
}

Tensor naive_matmul_tn(const Tensor& a, const Tensor& b) {
  // a is [K, M] stored; result is A^T * B = [M, N].
  const std::int64_t k = a.shape().dim(0), m = a.shape().dim(1),
                     n = b.shape().dim(1);
  Tensor c(Shape({m, n}));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(p * m + i)) *
               static_cast<double>(b.at(p * n + j));
      c.at(i * n + j) = static_cast<float>(acc);
    }
  return c;
}

Tensor naive_matmul_nt(const Tensor& a, const Tensor& b) {
  // b is [N, K]; result is A * B^T = [M, N].
  const std::int64_t m = a.shape().dim(0), k = a.shape().dim(1),
                     n = b.shape().dim(0);
  Tensor c(Shape({m, n}));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(i * k + p)) *
               static_cast<double>(b.at(j * k + p));
      c.at(i * n + j) = static_cast<float>(acc);
    }
  return c;
}

void expect_close(const Tensor& got, const Tensor& want, double tol,
                  const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const double g = got.at(i), w = want.at(i);
    ASSERT_NEAR(g, w, tol + 1e-4 * std::max(std::abs(g), std::abs(w)))
        << what << " at flat index " << i;
  }
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(a.at(i), b.at(i)) << what << " differs at flat index " << i;
}

constexpr int kMatmulShapes = 60;   // per variant; >= 50 required
constexpr int kConvShapes = 54;     // >= 50 required

struct MatDims {
  std::int64_t m, k, n;
};

MatDims random_dims(util::Rng& rng) {
  // Spans tiny degenerate shapes (1x1x1) through sizes large enough to
  // exercise the blocked path and multiple thread chunks.
  return {1 + static_cast<std::int64_t>(rng.uniform_index(48)),
          1 + static_cast<std::int64_t>(rng.uniform_index(40)),
          1 + static_cast<std::int64_t>(rng.uniform_index(40))};
}

TEST(KernelDiffTest, MatmulMatchesNaiveAcrossRandomShapes) {
  util::Rng rng(101);
  const Device serial = Device::cpu();
  const Device threaded = Device::parallel(4);
  for (int it = 0; it < kMatmulShapes; ++it) {
    const MatDims d = random_dims(rng);
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    const Tensor want = naive_matmul(a, b);
    const std::string what = "matmul " + std::to_string(d.m) + "x" +
                             std::to_string(d.k) + "x" + std::to_string(d.n);
    expect_close(matmul(a, b, serial), want, 1e-3, what + " serial");
    expect_close(matmul(a, b, threaded), want, 1e-3, what + " threaded");
  }
}

TEST(KernelDiffTest, MatmulTnMatchesNaiveAcrossRandomShapes) {
  util::Rng rng(202);
  const Device serial = Device::cpu();
  const Device threaded = Device::parallel(4);
  for (int it = 0; it < kMatmulShapes; ++it) {
    const MatDims d = random_dims(rng);
    Tensor a = Tensor::randn(Shape({d.k, d.m}), rng);  // stored transposed
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    const Tensor want = naive_matmul_tn(a, b);
    const std::string what = "matmul_tn " + std::to_string(d.m) + "x" +
                             std::to_string(d.k) + "x" + std::to_string(d.n);
    expect_close(matmul_tn(a, b, serial), want, 1e-3, what + " serial");
    expect_close(matmul_tn(a, b, threaded), want, 1e-3, what + " threaded");
  }
}

TEST(KernelDiffTest, MatmulNtMatchesNaiveAcrossRandomShapes) {
  util::Rng rng(303);
  const Device serial = Device::cpu();
  const Device threaded = Device::parallel(4);
  for (int it = 0; it < kMatmulShapes; ++it) {
    const MatDims d = random_dims(rng);
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.n, d.k}), rng);  // stored transposed
    const Tensor want = naive_matmul_nt(a, b);
    const std::string what = "matmul_nt " + std::to_string(d.m) + "x" +
                             std::to_string(d.k) + "x" + std::to_string(d.n);
    expect_close(matmul_nt(a, b, serial), want, 1e-3, what + " serial");
    expect_close(matmul_nt(a, b, threaded), want, 1e-3, what + " threaded");
  }
}

// Each row of C is produced by exactly one thread with a fixed-order
// inner loop, so 1-thread and N-thread results must agree bit for bit.
TEST(KernelDiffTest, MatmulFamilyIsThreadCountDeterministic) {
  util::Rng rng(404);
  const Device serial = Device::cpu();
  for (int it = 0; it < 12; ++it) {
    const MatDims d = random_dims(rng);
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    Tensor at = Tensor::randn(Shape({d.k, d.m}), rng);
    Tensor bt = Tensor::randn(Shape({d.n, d.k}), rng);
    for (const int threads : {2, 3, 8}) {
      const Device dev = Device::parallel(threads);
      const std::string tag = " (threads=" + std::to_string(threads) + ")";
      expect_bitwise_equal(matmul(a, b, dev), matmul(a, b, serial),
                           "matmul" + tag);
      expect_bitwise_equal(matmul_tn(at, b, dev), matmul_tn(at, b, serial),
                           "matmul_tn" + tag);
      expect_bitwise_equal(matmul_nt(a, bt, dev), matmul_nt(a, bt, serial),
                           "matmul_nt" + tag);
    }
  }
}

// Weight layouts match ([out_c, patch_size] / [out_c]); copy so the
// two implementations evaluate the identical function.
void copy_params(nn::Layer& from, nn::Layer& to) {
  auto src = from.params();
  auto dst = to.params();
  ASSERT_EQ(src.size(), dst.size());
  for (std::size_t p = 0; p < src.size(); ++p) {
    auto s = src[p]->data();
    auto d = dst[p]->data();
    ASSERT_EQ(s.size(), d.size());
    std::copy(s.begin(), s.end(), d.begin());
  }
}

ConvGeom random_geom(util::Rng& rng) {
  ConvGeom g;
  g.in_c = 1 + static_cast<std::int64_t>(rng.uniform_index(3));
  g.kernel = 1 + static_cast<std::int64_t>(rng.uniform_index(3));  // 1..3
  g.stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
  g.pad = static_cast<std::int64_t>(rng.uniform_index(g.kernel));
  // Ensure at least one full output position.
  const std::int64_t min_hw = g.kernel;
  g.in_h = min_hw + static_cast<std::int64_t>(rng.uniform_index(7));
  g.in_w = min_hw + static_cast<std::int64_t>(rng.uniform_index(7));
  g.out_c = 1 + static_cast<std::int64_t>(rng.uniform_index(4));
  return g;
}

// im2col conv vs the direct loop reference: forward, dx, dweight, dbias
// over randomized geometries, on both serial and threaded devices.
TEST(KernelDiffTest, Im2colConvMatchesDirectReference) {
  util::Rng rng(505);
  nn::Context serial_ctx;  // Device::cpu(), inference
  nn::Context threaded_ctx;
  threaded_ctx.device = Device::parallel(4);
  for (int it = 0; it < kConvShapes; ++it) {
    const ConvGeom g = random_geom(rng);
    const std::int64_t batch =
        1 + static_cast<std::int64_t>(rng.uniform_index(3));
    nn::Conv2d conv(g, InitKind::kXavierUniform, rng);
    util::Rng scratch(1);
    nn::Conv2dDirect ref(g, InitKind::kXavierUniform, scratch);
    copy_params(conv, ref);
    Tensor x = Tensor::randn(Shape({batch, g.in_c, g.in_h, g.in_w}), rng);
    const std::string what =
        "conv c" + std::to_string(g.in_c) + " k" + std::to_string(g.kernel) +
        " s" + std::to_string(g.stride) + " p" + std::to_string(g.pad) +
        " hw" + std::to_string(g.in_h) + "x" + std::to_string(g.in_w);

    for (nn::Context* ctx : {&serial_ctx, &threaded_ctx}) {
      conv.zero_grads();
      ref.zero_grads();
      Tensor y_im2col = conv.forward(x, *ctx);
      Tensor y_direct = ref.forward(x, *ctx);
      expect_close(y_im2col, y_direct, 1e-4, what + " forward");

      Tensor dy = Tensor::rand_uniform(y_im2col.shape(), rng, -1.f, 1.f);
      Tensor dx_im2col = conv.backward(dy, *ctx);
      Tensor dx_direct = ref.backward(dy, *ctx);
      expect_close(dx_im2col, dx_direct, 1e-4, what + " dx");
      expect_close(*conv.grads()[0], *ref.grads()[0], 1e-3,
                   what + " dweight");
      expect_close(*conv.grads()[1], *ref.grads()[1], 1e-3, what + " dbias");
    }
  }
}

// Forward and dx are partitioned per batch sample (one writer per output
// region, fixed-order accumulation inside), so thread count cannot
// change the bits.
TEST(KernelDiffTest, ConvForwardAndDxAreThreadCountDeterministic) {
  util::Rng rng(606);
  nn::Context serial_ctx;
  for (int it = 0; it < 10; ++it) {
    const ConvGeom g = random_geom(rng);
    nn::Conv2d conv(g, InitKind::kXavierUniform, rng);
    Tensor x = Tensor::randn(Shape({4, g.in_c, g.in_h, g.in_w}), rng);

    conv.zero_grads();
    Tensor y_serial = conv.forward(x, serial_ctx);
    Tensor dy = Tensor::rand_uniform(y_serial.shape(), rng, -1.f, 1.f);
    Tensor dx_serial = conv.backward(dy, serial_ctx);

    for (const int threads : {2, 5}) {
      nn::Context ctx;
      ctx.device = Device::parallel(threads);
      conv.zero_grads();
      const std::string tag = " (threads=" + std::to_string(threads) + ")";
      expect_bitwise_equal(conv.forward(x, ctx), y_serial,
                           "conv forward" + tag);
      expect_bitwise_equal(conv.backward(dy, ctx), dx_serial,
                           "conv dx" + tag);
    }
  }
}

// dweight/dbias are single chains over the whole batch, and each dW
// tile has one owning worker, so threaded runs agree bit for bit with
// each other and with the serial run.
TEST(KernelDiffTest, ConvWeightGradsAreRunToRunDeterministicUnderThreads) {
  util::Rng rng(707);
  for (int it = 0; it < 8; ++it) {
    const ConvGeom g = random_geom(rng);
    nn::Conv2d conv(g, InitKind::kXavierUniform, rng);
    Tensor x = Tensor::randn(Shape({6, g.in_c, g.in_h, g.in_w}), rng);
    nn::Context serial_ctx;
    conv.zero_grads();
    Tensor dy = Tensor::rand_uniform(conv.forward(x, serial_ctx).shape(),
                                     rng, -1.f, 1.f);
    conv.backward(dy, serial_ctx);
    Tensor dw_serial = conv.grads()[0]->clone();
    Tensor db_serial = conv.grads()[1]->clone();

    nn::Context ctx;
    ctx.device = Device::parallel(4);
    conv.zero_grads();
    conv.forward(x, ctx);
    conv.backward(dy, ctx);
    Tensor dw_first = conv.grads()[0]->clone();
    Tensor db_first = conv.grads()[1]->clone();

    // Run-to-run bit-exactness under the same thread count.
    for (int rep = 0; rep < 3; ++rep) {
      conv.zero_grads();
      conv.forward(x, ctx);
      conv.backward(dy, ctx);
      expect_bitwise_equal(*conv.grads()[0], dw_first, "dweight rep");
      expect_bitwise_equal(*conv.grads()[1], db_first, "dbias rep");
    }

    expect_bitwise_equal(dw_first, dw_serial, "dweight serial-vs-threaded");
    expect_bitwise_equal(db_first, db_serial, "dbias serial-vs-threaded");
  }
}

// Per-element im2col/col2im oracles: a bounds test on every (row, y, x).
// col2im keeps the (c, ky, kx, y, x) accumulation order, so the row-run
// implementations must match both bit for bit.
void naive_im2col(const float* image, const ConvGeom& g, float* columns) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t ky = 0; ky < g.kernel; ++ky)
      for (std::int64_t kx = 0; kx < g.kernel; ++kx)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
            const std::int64_t iy = y * g.stride + ky - g.pad;
            const std::int64_t ix = x * g.stride + kx - g.pad;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            columns[(row * oh + y) * ow + x] =
                inside ? image[(c * g.in_h + iy) * g.in_w + ix] : 0.f;
          }
}

void naive_col2im(const float* columns, const ConvGeom& g, float* image) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::fill(image, image + g.in_c * g.in_h * g.in_w, 0.f);
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t ky = 0; ky < g.kernel; ++ky)
      for (std::int64_t kx = 0; kx < g.kernel; ++kx)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
            const std::int64_t iy = y * g.stride + ky - g.pad;
            const std::int64_t ix = x * g.stride + kx - g.pad;
            if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
              image[(c * g.in_h + iy) * g.in_w + ix] +=
                  columns[(row * oh + y) * ow + x];
          }
}

TEST(KernelDiffTest, Im2colCol2imRowRunsMatchPerElementOracle) {
  util::Rng rng(1414);
  // Hand-picked: kernels wider than the unpadded input, so some kernel
  // columns have no in-image output at all.
  std::vector<ConvGeom> geoms = {
      {2, 1, 1, 1, 3, 1, 1}, {1, 2, 3, 1, 5, 1, 2}, {1, 3, 2, 1, 5, 2, 2},
      {3, 4, 1, 1, 4, 2, 2}, {1, 1, 4, 1, 3, 2, 1}};
  while (geoms.size() < 60) {
    ConvGeom g;
    g.in_c = 1 + static_cast<std::int64_t>(rng.uniform_index(3));
    g.in_h = 1 + static_cast<std::int64_t>(rng.uniform_index(9));
    g.in_w = 1 + static_cast<std::int64_t>(rng.uniform_index(9));
    g.out_c = 1;
    g.kernel = 1 + static_cast<std::int64_t>(rng.uniform_index(5));
    g.stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
    g.pad = static_cast<std::int64_t>(rng.uniform_index(3));
    if (g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel)
      geoms.push_back(g);
  }
  for (const ConvGeom& g : geoms) {
    const std::string what =
        "conv c" + std::to_string(g.in_c) + " hw" + std::to_string(g.in_h) +
        "x" + std::to_string(g.in_w) + " k" + std::to_string(g.kernel) +
        " s" + std::to_string(g.stride) + " p" + std::to_string(g.pad);
    const Tensor image = Tensor::randn(Shape({g.in_c, g.in_h, g.in_w}), rng);
    const Shape col_shape({g.patch_size(), g.out_h() * g.out_w()});
    Tensor want_cols(col_shape), got_cols(col_shape);
    naive_im2col(image.raw(), g, want_cols.raw());
    got_cols.fill(-1.f);  // every element must be written
    im2col(image.raw(), g, got_cols.raw());
    expect_bitwise_equal(got_cols, want_cols, what + " im2col");

    const Tensor cols = Tensor::randn(col_shape, rng);
    Tensor want_img(image.shape()), got_img(image.shape());
    naive_col2im(cols.raw(), g, want_img.raw());
    got_img.fill(-1.f);
    col2im(cols.raw(), g, got_img.raw());
    expect_bitwise_equal(got_img, want_img, what + " col2im");
  }
}

// ---------------------------------------------------------------------------
// The conv lowering (conv.cpp) writes GEMM panels straight from a padded
// image and folds dx back block by block. Its oracle is the explicit
// lowering: im2col columns packed by pack_b_panels, gemm_packed per
// sample, and a per-element col2im. Every output must match bit for bit.
// ---------------------------------------------------------------------------

std::string geom_name(const ConvGeom& g) {
  return "c" + std::to_string(g.in_c) + " hw" + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " oc" + std::to_string(g.out_c) + " k" +
         std::to_string(g.kernel) + " s" + std::to_string(g.stride) + " p" +
         std::to_string(g.pad);
}

// Hand-picked edges (in_c = 1, out_h*out_w below, at and off a multiple
// of 16, kernels wider than the input, a kernel wider than one 8-float
// run) plus random ones: stride 1-2, pad 0-2.
std::vector<ConvGeom> lowering_geoms(util::Rng& rng, std::size_t count) {
  std::vector<ConvGeom> geoms = {
      {1, 4, 4, 3, 3, 1, 1},    {1, 3, 3, 2, 5, 1, 2},
      {3, 16, 16, 7, 5, 1, 2},  {2, 14, 14, 9, 5, 1, 2},
      {1, 3, 2, 4, 5, 2, 2},    {2, 12, 12, 5, 9, 1, 4},
      {3, 9, 7, 13, 3, 2, 0},   {4, 6, 6, 8, 1, 1, 0}};
  while (geoms.size() < count) {
    ConvGeom g;
    g.in_c = 1 + static_cast<std::int64_t>(rng.uniform_index(4));
    g.in_h = 1 + static_cast<std::int64_t>(rng.uniform_index(18));
    g.in_w = 1 + static_cast<std::int64_t>(rng.uniform_index(18));
    g.out_c = 1 + static_cast<std::int64_t>(rng.uniform_index(14));
    g.kernel = 1 + static_cast<std::int64_t>(rng.uniform_index(6));
    g.stride = 1 + static_cast<std::int64_t>(rng.uniform_index(2));
    g.pad = static_cast<std::int64_t>(rng.uniform_index(3));
    if (g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel)
      geoms.push_back(g);
  }
  return geoms;
}

Tensor flat(const std::vector<float>& v, std::int64_t count) {
  return Tensor(Shape({count}),
                std::span<const float>(v.data(), static_cast<std::size_t>(count)));
}

TEST(KernelDiffTest, PanelWritersMatchIm2colPackedPanels) {
  util::Rng rng(2121);
  const Device serial = Device::cpu();
  for (const ConvGeom& g : lowering_geoms(rng, 60)) {
    const std::string what = geom_name(g);
    const std::int64_t ohw = g.out_h() * g.out_w(), patch = g.patch_size();
    const Tensor image = Tensor::randn(Shape({g.in_c, g.in_h, g.in_w}), rng);
    std::vector<float> columns(static_cast<std::size_t>(patch * ohw));
    im2col(image.raw(), g, columns.data());
    std::vector<float> padded(
        static_cast<std::size_t>(detail::padded_image_floats(g)), -1.f);
    detail::pad_image(image.raw(), g, padded.data());

    // Forward: positions on the lanes, K = patch.
    const std::int64_t fwd_floats = gemm_col_panels(ohw) * kGemmNR * patch;
    std::vector<float> want(static_cast<std::size_t>(fwd_floats));
    std::vector<float> got(want.size(), -1.f);
    pack_b_panels(columns.data(), ohw, 1, patch, ohw, want.data(), serial);
    detail::fwd_panels(padded.data(), g, 0, gemm_col_panels(ohw), got.data());
    expect_bitwise_equal(flat(got, fwd_floats), flat(want, fwd_floats),
                         what + " fwd_panels");
    // A sub-range of panels, as a worker of the tiny-batch path writes it.
    if (gemm_col_panels(ohw) > 1) {
      std::fill(got.begin(), got.end(), -1.f);
      detail::fwd_panels(padded.data(), g, 1, gemm_col_panels(ohw),
                         got.data() + patch * kGemmNR);
      expect_bitwise_equal(flat(got, fwd_floats).rows(patch * kGemmNR,
                                                      fwd_floats - patch * kGemmNR),
                           flat(want, fwd_floats).rows(patch * kGemmNR,
                                                       fwd_floats - patch * kGemmNR),
                           what + " fwd_panels from panel 1");
    }

    // dW: patch rows on the lanes, K = ohw; the whole patch and a block
    // starting at the second panel, as a dW grid column block.
    for (const std::int64_t p0 : {std::int64_t{0}, kGemmNR}) {
      if (p0 >= patch) continue;
      const std::int64_t p1 = std::min(patch, p0 + 3 * kGemmNR);
      const std::int64_t dw_floats = gemm_col_panels(p1 - p0) * kGemmNR * ohw;
      std::vector<float> want_dw(static_cast<std::size_t>(dw_floats));
      std::vector<float> got_dw(
          static_cast<std::size_t>(detail::dw_panel_floats(g, p0, p1)), -1.f);
      pack_b_panels(columns.data() + p0 * ohw, 1, ohw, ohw, p1 - p0,
                    want_dw.data(), serial);
      detail::dw_panels(padded.data(), g, p0, p1, got_dw.data());
      expect_bitwise_equal(flat(got_dw, dw_floats), flat(want_dw, dw_floats),
                           what + " dw_panels from " + std::to_string(p0));
    }
  }
}

// The explicit lowering of one conv layer, sample by sample.
struct ConvReference {
  Tensor y, y_relu, dx, dweight, dbias;
};

ConvReference reference_conv(const Tensor& x, const Tensor& w,
                             const Tensor& b, const Tensor& dy,
                             const ConvGeom& g) {
  const Device serial = Device::cpu();
  const std::int64_t n = x.dim(0), ohw = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w, out_sz = g.out_c * ohw;
  ConvReference r{Tensor(dy.shape()), Tensor(dy.shape()), Tensor(x.shape()),
                  Tensor(w.shape()), Tensor(b.shape())};
  std::vector<float> columns(static_cast<std::size_t>(patch * ohw));
  std::vector<float> dcolumns(columns.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* dyo = dy.raw() + i * out_sz;
    im2col(x.raw() + i * in_sz, g, columns.data());
    gemm_packed(w.raw(), patch, 1, columns.data(), ohw, 1,
                r.y.raw() + i * out_sz, g.out_c, patch, ohw,
                GemmEpilogue::kBiasRowInit, b.raw(), serial);
    gemm_packed(w.raw(), patch, 1, columns.data(), ohw, 1,
                r.y_relu.raw() + i * out_sz, g.out_c, patch, ohw,
                GemmEpilogue::kBiasRowRelu, b.raw(), serial);
    // dW continues one fma chain over (sample, position); db one add
    // chain per channel in the same order.
    gemm_packed(dyo, ohw, 1, columns.data(), 1, ohw, r.dweight.raw(), g.out_c,
                ohw, patch, GemmEpilogue::kAccumulate, nullptr, serial);
    for (std::int64_t oc = 0; oc < g.out_c; ++oc)
      for (std::int64_t j = 0; j < ohw; ++j)
        r.dbias.raw()[oc] += dyo[oc * ohw + j];
    // dcolumns = Wᵀ · dy_i, folded per element.
    gemm_packed(w.raw(), 1, patch, dyo, ohw, 1, dcolumns.data(), patch,
                g.out_c, ohw, GemmEpilogue::kNone, nullptr, serial);
    naive_col2im(dcolumns.data(), g, r.dx.raw() + i * in_sz);
  }
  return r;
}

TEST(KernelDiffTest, ConvLoweringBitwiseMatchesExplicitIm2col) {
  util::Rng rng(2323);
  const Device devices[] = {Device::cpu(), Device::parallel(2),
                            Device::parallel(4)};
  for (const ConvGeom& g : lowering_geoms(rng, 24)) {
    for (const std::int64_t n : {1, 3, 25}) {
      const std::string what = geom_name(g) + " n" + std::to_string(n);
      const Tensor x = Tensor::randn(Shape({n, g.in_c, g.in_h, g.in_w}), rng);
      const Tensor w = Tensor::randn(Shape({g.out_c, g.patch_size()}), rng);
      const Tensor b = Tensor::randn(Shape({g.out_c}), rng);
      const Tensor dy =
          Tensor::randn(Shape({n, g.out_c, g.out_h(), g.out_w()}), rng);
      const ConvReference want = reference_conv(x, w, b, dy, g);
      for (const Device& dev : devices) {
        const std::string on = what + " on " + std::to_string(dev.workers()) +
                               (dev.is_parallel() ? " workers" : " serial");
        expect_bitwise_equal(conv2d_forward(x, w, b, g, dev), want.y,
                             on + " forward");
        expect_bitwise_equal(conv2d_forward(x, w, b, g, dev, true),
                             want.y_relu, on + " forward+relu");
        const ConvGrads all = conv2d_backward(x, w, dy, g, dev);
        expect_bitwise_equal(all.dx, want.dx, on + " dx");
        expect_bitwise_equal(all.dweight, want.dweight, on + " dweight");
        expect_bitwise_equal(all.dbias, want.dbias, on + " dbias");
        const ConvGrads params = conv2d_backward_params(x, w, dy, g, dev);
        EXPECT_TRUE(params.dx.empty()) << on;
        expect_bitwise_equal(params.dweight, want.dweight,
                             on + " params dweight");
        expect_bitwise_equal(params.dbias, want.dbias, on + " params dbias");
        expect_bitwise_equal(conv2d_backward_dx(w, dy, g, dev), want.dx,
                             on + " backward_dx");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-GEMM layer (gemm_kernel.hpp): parity with the double-precision
// oracle at the blocking edges, direct driver coverage of strides and
// epilogues, fused-epilogue bitwise equivalence, and determinism at the
// register-blocking boundaries.
// ---------------------------------------------------------------------------

// Shapes that hit every edge of the 6x16 blocking and its paired 12x32
// macro tiles: K=1, N below one panel, M not divisible by MR, and sizes
// straddling the row-pair (12) and column-pair (32) boundaries.
const MatDims kEdgeDims[] = {
    {1, 1, 1},   {1, 1, 15},  {5, 1, 16},  {6, 1, 7},   {6, 1, 1},
    {7, 3, 15},  {11, 2, 31}, {12, 5, 32}, {13, 8, 33}, {18, 1, 16},
    {23, 7, 48}, {24, 9, 31}, {25, 4, 64}, {48, 1, 33}, {50, 13, 50},
    {12, 1, 32}, {36, 2, 96}, {5, 40, 11}, {1, 40, 96}, {96, 3, 1},
};

// The packed path against the double-precision oracle over the edge
// shapes plus randoms (>= 50 total). This is a tolerance comparison;
// bitwise coverage is below.
TEST(KernelDiffTest, PackedMatmulMatchesRowsReferenceAcrossShapes) {
  util::Rng rng(808);
  const Device serial = Device::cpu();
  const Device threaded = Device::parallel(4);
  std::vector<MatDims> dims(std::begin(kEdgeDims), std::end(kEdgeDims));
  while (dims.size() < 56) dims.push_back(random_dims(rng));
  for (const MatDims& d : dims) {
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    const Tensor want = naive_matmul(a, b);
    const std::string what = "packed-vs-naive " + std::to_string(d.m) + "x" +
                             std::to_string(d.k) + "x" + std::to_string(d.n);
    expect_close(matmul(a, b, serial), want, 1e-3, what + " serial");
    expect_close(matmul(a, b, threaded), want, 1e-3, what + " threaded");
  }
}

// Double-precision reference for a gemm_packed call with arbitrary
// element strides and epilogue.
Tensor naive_gemm_ep(const Tensor& a, std::int64_t a_rs, std::int64_t a_cs,
                     const Tensor& b, std::int64_t b_rs, std::int64_t b_cs,
                     std::int64_t m, std::int64_t k, std::int64_t n,
                     GemmEpilogue ep, const Tensor* bias) {
  Tensor c(Shape({m, n}));
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = (ep == GemmEpilogue::kBiasRowInit ||
                    ep == GemmEpilogue::kBiasRowRelu)
                       ? static_cast<double>(bias->at(i))
                       : 0.0;
      for (std::int64_t p = 0; p < k; ++p)
        acc += static_cast<double>(a.at(i * a_rs + p * a_cs)) *
               static_cast<double>(b.at(p * b_rs + j * b_cs));
      if (ep == GemmEpilogue::kBiasColAdd || ep == GemmEpilogue::kBiasColRelu)
        acc += static_cast<double>(bias->at(j));
      if (ep == GemmEpilogue::kBiasColRelu || ep == GemmEpilogue::kBiasRowRelu)
        acc = acc > 0.0 ? acc : 0.0;
      c.at(i * n + j) = static_cast<float>(acc);
    }
  return c;
}

// Direct gemm_packed calls: every epilogue x the three stride patterns
// the matmul family uses (row-major, transposed A, transposed B), on
// serial and threaded devices.
TEST(KernelDiffTest, GemmPackedCoversStridesEpiloguesAndBothRoundings) {
  util::Rng rng(909);
  const Device serial = Device::cpu();
  const Device threaded = Device::parallel(3);
  const MatDims cases[] = {{5, 3, 17}, {12, 7, 32}, {13, 1, 33}, {26, 9, 31}};
  const GemmEpilogue eps[] = {
      GemmEpilogue::kNone, GemmEpilogue::kBiasColAdd,
      GemmEpilogue::kBiasColRelu, GemmEpilogue::kBiasRowInit,
      GemmEpilogue::kBiasRowRelu};
  for (const MatDims& d : cases) {
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor at = Tensor::randn(Shape({d.k, d.m}), rng);  // A^T storage
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    Tensor bt = Tensor::randn(Shape({d.n, d.k}), rng);  // B^T storage
    Tensor bias_col = Tensor::randn(Shape({d.n}), rng);
    Tensor bias_row = Tensor::randn(Shape({d.m}), rng);
    for (const GemmEpilogue ep : eps) {
      const bool row = ep == GemmEpilogue::kBiasRowInit ||
                       ep == GemmEpilogue::kBiasRowRelu;
      const Tensor* bias =
          ep == GemmEpilogue::kNone ? nullptr : (row ? &bias_row : &bias_col);
      const std::string what =
          "gemm_packed " + std::to_string(d.m) + "x" + std::to_string(d.k) +
          "x" + std::to_string(d.n) + " ep=" +
          std::to_string(static_cast<int>(ep));
      struct StrideCase {
        const Tensor* src;
        std::int64_t rs, cs;
        const char* tag;
      };
      const StrideCase a_cases[] = {{&a, d.k, 1, " a-rowmajor"},
                                    {&at, 1, d.m, " a-transposed"}};
      const StrideCase b_cases[] = {{&b, d.n, 1, " b-rowmajor"},
                                    {&bt, 1, d.k, " b-transposed"}};
      for (const StrideCase& ac : a_cases) {
        for (const StrideCase& bc : b_cases) {
          const Tensor want =
              naive_gemm_ep(*ac.src, ac.rs, ac.cs, *bc.src, bc.rs, bc.cs,
                            d.m, d.k, d.n, ep, bias);
          for (const Device* dev : {&serial, &threaded}) {
            Tensor got = Tensor::uninit(Shape({d.m, d.n}));
            gemm_packed(ac.src->raw(), ac.rs, ac.cs, bc.src->raw(), bc.rs,
                        bc.cs, got.raw(), d.m, d.k, d.n, ep,
                        bias ? bias->raw() : nullptr, *dev);
            expect_close(got, want, 1e-3, what + ac.tag + bc.tag);
          }
        }
      }
    }
  }
}

// The pre-packed entry points run the same macro loop over the same
// panels as gemm_packed, so they must match it bit for bit: every edge
// shape, every epilogue, 1/2/4 threads.
TEST(KernelDiffTest, PrepackedEntryPointsBitwiseMatchGemmPacked) {
  util::Rng rng(1313);
  const GemmEpilogue eps[] = {
      GemmEpilogue::kNone, GemmEpilogue::kBiasColAdd,
      GemmEpilogue::kBiasColRelu, GemmEpilogue::kBiasRowInit,
      GemmEpilogue::kBiasRowRelu};
  for (const MatDims& d : kEdgeDims) {
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    Tensor bias_col = Tensor::randn(Shape({d.n}), rng);
    Tensor bias_row = Tensor::randn(Shape({d.m}), rng);
    std::vector<float> pa(static_cast<std::size_t>(gemm_row_panels(d.m) *
                                                   kGemmMR * d.k));
    std::vector<float> pb(static_cast<std::size_t>(gemm_col_panels(d.n) *
                                                   kGemmNR * d.k));
    pack_a_panels(a.raw(), d.k, 1, d.m, d.k, pa.data(), Device::cpu());
    pack_b_panels(b.raw(), d.n, 1, d.k, d.n, pb.data(), Device::cpu());
    for (const GemmEpilogue ep : eps) {
      const bool row = ep == GemmEpilogue::kBiasRowInit ||
                       ep == GemmEpilogue::kBiasRowRelu;
      const float* bias = ep == GemmEpilogue::kNone
                              ? nullptr
                              : (row ? bias_row.raw() : bias_col.raw());
      for (const int threads : {1, 2, 4}) {
        const Device dev =
            threads == 1 ? Device::cpu() : Device::parallel(threads);
        const std::string what =
            std::to_string(d.m) + "x" + std::to_string(d.k) + "x" +
            std::to_string(d.n) + " ep=" +
            std::to_string(static_cast<int>(ep)) +
            " threads=" + std::to_string(threads);
        Tensor want = Tensor::uninit(Shape({d.m, d.n}));
        Tensor got_ab = Tensor::uninit(Shape({d.m, d.n}));
        Tensor got_b = Tensor::uninit(Shape({d.m, d.n}));
        gemm_packed(a.raw(), d.k, 1, b.raw(), d.n, 1, want.raw(), d.m, d.k,
                    d.n, ep, bias, dev);
        gemm_prepacked(pa.data(), pb.data(), got_ab.raw(), d.n, d.m, d.k,
                       d.n, ep, bias, dev);
        gemm_prepacked_b(a.raw(), d.k, 1, pb.data(), got_b.raw(), d.m, d.k,
                         d.n, ep, bias, dev);
        expect_bitwise_equal(got_ab, want, what + " prepacked A and B");
        expect_bitwise_equal(got_b, want, what + " prepacked B");
      }
    }
  }
}

// kAccumulate resumes each element's chain from C, and an fp32 store
// and reload does not round, so a GEMM split into K blocks (the first
// with kNone or kBiasRowInit, the rest with kAccumulate) equals the
// single call bit for bit: every edge shape, 1/2/4 threads, through
// gemm_packed and through gemm_prepacked on panels packed per block
// into a C with a wider row stride.
TEST(KernelDiffTest, KBlocksWithAccumulateBitwiseMatchSingleCall) {
  util::Rng rng(1414);
  for (const MatDims& d : kEdgeDims) {
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    Tensor bias_row = Tensor::randn(Shape({d.m}), rng);
    // Blocks of 1, 2, 3, ... columns of K, so every block size from a
    // single step up is covered.
    std::vector<std::int64_t> starts;
    for (std::int64_t k0 = 0, len = 1; k0 < d.k; k0 += len++)
      starts.push_back(k0);
    starts.push_back(d.k);
    const std::int64_t ldc = d.n + 3;
    for (const GemmEpilogue first :
         {GemmEpilogue::kNone, GemmEpilogue::kBiasRowInit}) {
      const float* bias = first == GemmEpilogue::kNone ? nullptr : bias_row.raw();
      for (const int threads : {1, 2, 4}) {
        const Device dev =
            threads == 1 ? Device::cpu() : Device::parallel(threads);
        const std::string what =
            std::to_string(d.m) + "x" + std::to_string(d.k) + "x" +
            std::to_string(d.n) + " first=" +
            std::to_string(static_cast<int>(first)) +
            " threads=" + std::to_string(threads);
        Tensor want = Tensor::uninit(Shape({d.m, d.n}));
        gemm_packed(a.raw(), d.k, 1, b.raw(), d.n, 1, want.raw(), d.m, d.k,
                    d.n, first, bias, dev);
        Tensor got = Tensor::uninit(Shape({d.m, d.n}));
        Tensor wide(Shape({d.m, ldc}), 99.f);
        for (std::size_t blk = 0; blk + 1 < starts.size(); ++blk) {
          const std::int64_t k0 = starts[blk], kb = starts[blk + 1] - k0;
          const GemmEpilogue ep = blk == 0 ? first : GemmEpilogue::kAccumulate;
          gemm_packed(a.raw() + k0, d.k, 1, b.raw() + k0 * d.n, d.n, 1,
                      got.raw(), d.m, kb, d.n, ep, bias, dev);
          std::vector<float> pa(static_cast<std::size_t>(
              gemm_row_panels(d.m) * kGemmMR * kb));
          std::vector<float> pb(static_cast<std::size_t>(
              gemm_col_panels(d.n) * kGemmNR * kb));
          pack_a_panels(a.raw() + k0, d.k, 1, d.m, kb, pa.data(), dev);
          pack_b_panels(b.raw() + k0 * d.n, d.n, 1, kb, d.n, pb.data(), dev);
          gemm_prepacked(pa.data(), pb.data(), wide.raw(), ldc, d.m, kb, d.n,
                         ep, bias, dev);
        }
        expect_bitwise_equal(got, want, what + " gemm_packed blocks");
        Tensor narrowed = Tensor::uninit(Shape({d.m, d.n}));
        for (std::int64_t r = 0; r < d.m; ++r)
          for (std::int64_t j = 0; j < d.n; ++j)
            narrowed.data()[r * d.n + j] = wide.at(r * ldc + j);
        expect_bitwise_equal(narrowed, want, what + " gemm_prepacked blocks");
        for (std::int64_t r = 0; r < d.m; ++r)
          for (std::int64_t j = d.n; j < ldc; ++j)
            ASSERT_EQ(wide.at(r * ldc + j), 99.f)
                << what << ": wrote past n at row " << r;
      }
    }
  }
}

// The fused epilogues run while the tile is still in registers, but the
// float operations and their order are exactly those of the unfused
// sequence, so the results must be bitwise identical — this is what
// lets layers fuse without disturbing golden trajectories.
TEST(KernelDiffTest, FusedBiasEpiloguesBitwiseMatchUnfusedSequence) {
  util::Rng rng(1010);
  const Device serial = Device::cpu();
  const Device threaded = Device::parallel(4);
  for (const MatDims& d : kEdgeDims) {
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    Tensor bias = Tensor::randn(Shape({d.n}), rng);
    const std::string what = "fused " + std::to_string(d.m) + "x" +
                             std::to_string(d.k) + "x" + std::to_string(d.n);
    for (const Device* dev : {&serial, &threaded}) {
      Tensor unfused = matmul(a, b, *dev);
      add_row_bias(unfused, bias, *dev);
      expect_bitwise_equal(matmul_bias(a, b, bias, *dev), unfused,
                           what + " bias");
      expect_bitwise_equal(matmul_bias_relu(a, b, bias, *dev),
                           relu(unfused, *dev), what + " bias+relu");
    }
  }
}

// Thread-count and run-to-run bitwise determinism for the fused entry
// points, over shapes that straddle the pairing boundaries (the
// paired-tile grouping shifts with the worker chunking; the bits must
// not).
TEST(KernelDiffTest, FusedMatmulBiasIsThreadCountDeterministic) {
  util::Rng rng(1111);
  const Device serial = Device::cpu();
  for (const MatDims& d : kEdgeDims) {
    Tensor a = Tensor::randn(Shape({d.m, d.k}), rng);
    Tensor b = Tensor::randn(Shape({d.k, d.n}), rng);
    Tensor bias = Tensor::randn(Shape({d.n}), rng);
    const Tensor want = matmul_bias(a, b, bias, serial);
    const Tensor want_relu = matmul_bias_relu(a, b, bias, serial);
    for (const int threads : {2, 3, 8}) {
      const Device dev = Device::parallel(threads);
      const std::string tag = std::to_string(d.m) + "x" + std::to_string(d.k) +
                              "x" + std::to_string(d.n) + " threads=" +
                              std::to_string(threads);
      for (int rep = 0; rep < 2; ++rep) {
        expect_bitwise_equal(matmul_bias(a, b, bias, dev), want,
                             "matmul_bias " + tag);
        expect_bitwise_equal(matmul_bias_relu(a, b, bias, dev), want_relu,
                             "matmul_bias_relu " + tag);
      }
    }
  }
}

// [r, c] -> [c, r], an exact copy.
Tensor transposed(const Tensor& x) {
  const std::int64_t r = x.dim(0), c = x.dim(1);
  Tensor t = Tensor::uninit(Shape({c, r}));
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) t.data()[j * r + i] = x.at(i * c + j);
  return t;
}

const GemmEpilogue kAllEpilogues[] = {
    GemmEpilogue::kNone,        GemmEpilogue::kBiasColAdd,
    GemmEpilogue::kBiasColRelu, GemmEpilogue::kBiasRowInit,
    GemmEpilogue::kBiasRowRelu, GemmEpilogue::kAccumulate};

// The fma-chain oracle's C for every epilogue of one row-major A [m, k]
// and B [k, n], with random biases and a random C on entry for
// kAccumulate: the chain from zero, from the row bias or from C, then
// the column bias and the ReLU.
struct EpilogueOracle {
  EpilogueOracle(const Tensor& a, const Tensor& b, util::Rng& rng)
      : m(a.dim(0)),
        n(b.dim(1)),
        bias_col(Tensor::randn(Shape({n}), rng)),
        bias_row(Tensor::randn(Shape({m}), rng)),
        c_start(Tensor::randn(Shape({m, n}), rng)),
        zero_chain(Shape({m, n})),
        row_chain(Tensor::uninit(Shape({m, n}))),
        acc_chain(c_start.clone()) {
    for (std::int64_t i = 0; i < m; ++i)
      std::fill(row_chain.raw() + i * n, row_chain.raw() + (i + 1) * n,
                bias_row.at(i));
    const bool fused = gemm_fuses();
    for (Tensor* chain : {&zero_chain, &row_chain, &acc_chain})
      gemm_chain_oracle(a.raw(), b.raw(), chain->raw(), m, a.dim(1), n,
                        fused);
  }

  static bool row_bias(GemmEpilogue ep) {
    return ep == GemmEpilogue::kBiasRowInit || ep == GemmEpilogue::kBiasRowRelu;
  }
  static bool col_bias(GemmEpilogue ep) {
    return ep == GemmEpilogue::kBiasColAdd || ep == GemmEpilogue::kBiasColRelu;
  }

  Tensor want(GemmEpilogue ep) const {
    Tensor w = ep == GemmEpilogue::kAccumulate ? acc_chain.clone()
               : row_bias(ep)                  ? row_chain.clone()
                                               : zero_chain.clone();
    const bool relu = ep == GemmEpilogue::kBiasColRelu ||
                      ep == GemmEpilogue::kBiasRowRelu;
    for (std::int64_t i = 0; i < m * n; ++i) {
      float& v = w.data()[i];
      if (col_bias(ep)) v += bias_col.at(i % n);
      if (relu) v = v > 0.f ? v : 0.f;
    }
    return w;
  }

  const float* bias(GemmEpilogue ep) const {
    return col_bias(ep)   ? bias_col.raw()
           : row_bias(ep) ? bias_row.raw()
                          : nullptr;
  }

  std::int64_t m, n;
  Tensor bias_col, bias_row, c_start;
  Tensor zero_chain, row_chain, acc_chain;
};

// gemm_packed splits a GEMM whose B is the wide operand over column
// blocks of B (each worker packs its own block), and any other over row
// panels of C. Either way each C element must be the fma-chain oracle's
// chain bit for bit, on 1-4 workers. The shapes are a batch-50
// 3136 -> 1024 fc layer's forward (x W), dx (dy W^T, B transposed) and
// dW (x^T dy, A transposed: the tall shape that keeps the row split),
// plus N = 1000, whose last column block and last panel are partial.
TEST(KernelDiffTest, ColumnAndRowSplitsBitwiseMatchFmaChainOracle) {
  struct Case {
    std::int64_t m, k, n;
    bool a_transposed, b_transposed, splits_columns;
    const char* name;
  };
  const Case cases[] = {
      {50, 3136, 1024, false, false, true, "fc forward"},
      {50, 1024, 3136, false, true, true, "fc dx"},
      {3136, 50, 1024, true, false, false, "fc dW"},
      {50, 3136, 1000, false, false, true, "ragged N"},
  };
  util::Rng rng(2424);
  for (const Case& cs : cases) {
    const std::int64_t m = cs.m, k = cs.k, n = cs.n;
    EXPECT_EQ(gemm_splits_columns(m, k, n), cs.splits_columns) << cs.name;
    // Row-major A [m, k] and B [k, n] for the oracle; the GEMM reads
    // them through the strides of the layer's storage.
    Tensor a = Tensor::randn(Shape({m, k}), rng);
    Tensor b = Tensor::randn(Shape({k, n}), rng);
    Tensor a_store = cs.a_transposed ? transposed(a) : a.clone();
    Tensor b_store = cs.b_transposed ? transposed(b) : b.clone();
    const std::int64_t a_rs = cs.a_transposed ? 1 : k;
    const std::int64_t a_cs = cs.a_transposed ? m : 1;
    const std::int64_t b_rs = cs.b_transposed ? 1 : n;
    const std::int64_t b_cs = cs.b_transposed ? k : 1;
    const EpilogueOracle oracle(a, b, rng);
    for (const GemmEpilogue ep : kAllEpilogues) {
      const Tensor want = oracle.want(ep);
      for (const int workers : {1, 2, 3, 4}) {
        const Device dev =
            workers == 1 ? Device::cpu() : Device::parallel(workers);
        Tensor got = oracle.c_start.clone();
        gemm_packed(a_store.raw(), a_rs, a_cs, b_store.raw(), b_rs, b_cs,
                    got.raw(), m, k, n, ep, oracle.bias(ep), dev);
        expect_bitwise_equal(got, want,
                             std::string(cs.name) + " ep=" +
                                 std::to_string(static_cast<int>(ep)) +
                                 " workers=" + std::to_string(workers));
      }
    }
  }
}

// Edge tiles run on the same wide kernels as interior ones, through a
// zero-padded staging tile of which only the live part is copied out.
// Every tile shape (a lone or paired row panel with 1-6 live rows in
// the last, the same for column panels with 1-16 live columns) must
// give the oracle's chain bit for bit, and write nothing outside the
// live m x n: m over every residue mod 12 and n over every residue mod
// 32 (each with 2-4 panels, so the workers' row ranges split pairs),
// every epilogue, through all three entry points, gemm_prepacked into
// a C whose row stride leaves padding, on 1/2/4 workers. Canaries sit
// in that padding and past the end of C.
TEST(KernelDiffTest, EdgeTilesMatchFmaChainOracle) {
  constexpr float kCanary = -7777.f;
  constexpr std::int64_t kTail = 2 * kGemmNR;  // canaries past C
  util::Rng rng(2626);
  const Device devs[] = {Device::cpu(), Device::parallel(2),
                         Device::parallel(4)};
  for (const std::int64_t k : {1L, 25L, 64L, 129L}) {
    for (std::int64_t m = 2 * kGemmMR + 1; m <= 4 * kGemmMR; ++m) {
      Tensor a = Tensor::randn(Shape({m, k}), rng);
      std::vector<float> pa(
          static_cast<std::size_t>(gemm_row_panels(m) * kGemmMR * k));
      pack_a_panels(a.raw(), k, 1, m, k, pa.data(), Device::cpu());
      for (std::int64_t n = 2 * kGemmNR + 1; n <= 4 * kGemmNR; ++n) {
        Tensor b = Tensor::randn(Shape({k, n}), rng);
        std::vector<float> pb(
            static_cast<std::size_t>(gemm_col_panels(n) * kGemmNR * k));
        pack_b_panels(b.raw(), n, 1, k, n, pb.data(), Device::cpu());
        const EpilogueOracle oracle(a, b, rng);
        const std::int64_t ldc = n + 5;
        for (const GemmEpilogue ep : kAllEpilogues) {
          const Tensor want = oracle.want(ep);
          for (const Device& dev : devs) {
            for (const int entry : {0, 1, 2}) {
              const std::int64_t rs = entry == 2 ? ldc : n;
              std::vector<float> c(static_cast<std::size_t>(m * rs + kTail),
                                   kCanary);
              for (std::int64_t i = 0; i < m; ++i)
                std::copy(oracle.c_start.raw() + i * n,
                          oracle.c_start.raw() + (i + 1) * n,
                          c.data() + i * rs);
              if (entry == 0)
                gemm_packed(a.raw(), k, 1, b.raw(), n, 1, c.data(), m, k, n,
                            ep, oracle.bias(ep), dev);
              else if (entry == 1)
                gemm_prepacked_b(a.raw(), k, 1, pb.data(), c.data(), m, k,
                                 n, ep, oracle.bias(ep), dev);
              else
                gemm_prepacked(pa.data(), pb.data(), c.data(), ldc, m, k, n,
                               ep, oracle.bias(ep), dev);
              const std::string what =
                  std::to_string(m) + "x" + std::to_string(k) + "x" +
                  std::to_string(n) +
                  " ep=" + std::to_string(static_cast<int>(ep)) +
                  " workers=" + std::to_string(dev.workers()) +
                  " entry=" + std::to_string(entry);
              for (std::int64_t i = 0; i < m; ++i) {
                for (std::int64_t j = 0; j < n; ++j)
                  ASSERT_EQ(c[static_cast<std::size_t>(i * rs + j)],
                            want.at(i * n + j))
                      << what << " at (" << i << ", " << j << ")";
                for (std::int64_t j = n; j < rs; ++j)
                  ASSERT_EQ(c[static_cast<std::size_t>(i * rs + j)], kCanary)
                      << what << " row padding of row " << i;
              }
              for (std::int64_t t = 0; t < kTail; ++t)
                ASSERT_EQ(c[static_cast<std::size_t>(m * rs + t)], kCanary)
                    << what << " past C";
            }
          }
        }
      }
    }
  }
}

// Transposed-B packing (matmul_nt's W^T) runs in k tiles; its panels
// must equal the packing layout element by element (B(k, 16p + j), zero
// past n), for k around and off the tile size, for panels narrower than
// 16 columns, whole and as a panel range.
TEST(KernelDiffTest, TiledTransposedPackMatchesPanelLayout) {
  util::Rng rng(2525);
  for (const std::int64_t k : {1L, 5L, 63L, 64L, 65L, 130L, 200L}) {
    for (const std::int64_t n : {1L, 7L, 15L, 16L, 17L, 40L}) {
      Tensor bt = Tensor::randn(Shape({n, k}), rng);  // B^T storage
      const std::int64_t panels = gemm_col_panels(n);
      std::vector<float> want(static_cast<std::size_t>(panels * k * kGemmNR));
      for (std::int64_t p = 0; p < panels; ++p)
        for (std::int64_t kk = 0; kk < k; ++kk)
          for (std::int64_t j = 0; j < kGemmNR; ++j) {
            const std::int64_t col = p * kGemmNR + j;
            want[static_cast<std::size_t>((p * k + kk) * kGemmNR + j)] =
                col < n ? bt.at(col * k + kk) : 0.f;
          }
      const std::string what =
          "k=" + std::to_string(k) + " n=" + std::to_string(n);
      for (const int workers : {1, 3}) {
        const Device dev =
            workers == 1 ? Device::cpu() : Device::parallel(workers);
        std::vector<float> got(want.size(), -1.f);
        pack_b_panels(bt.raw(), 1, k, k, n, got.data(), dev);
        EXPECT_EQ(got, want) << what << " workers=" << workers;
      }
      // The last panel alone, as one column-split block packs it.
      std::vector<float> tail(static_cast<std::size_t>(k * kGemmNR), -1.f);
      pack_b_panel_range(bt.raw(), 1, k, k, n, panels - 1, panels,
                         tail.data());
      EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                             want.end() - static_cast<std::ptrdiff_t>(
                                              tail.size())))
          << what << " last panel";
    }
  }
}

// Every tile shape of the active tier's kernel table (on AVX-512:
// 6x32, 12x16 and 12x32) against the equivalent sequence of 6x16 calls
// of the same table, on hand-packed panels, every epilogue
// (kAccumulate from a random C): grouping tiles into one call must not
// change a single bit (each output element keeps its own ascending-k
// chain). Tiers of span 1 have only the 6x16 shape.
TEST(KernelDiffTest, WideAvx512TilesBitwiseMatchSingleTileCalls) {
  const detail::MicroKernelTable& table = detail::select_micro_kernel();
  const detail::MicroKernelFn single = table.kernel[0][0];
  ASSERT_NE(single, nullptr);
  util::Rng rng(1212);
  const Device serial = Device::cpu();
  for (const std::int64_t k : {1L, 7L, 64L, 129L}) {
    const std::int64_t m = 2 * kGemmMR, n = 2 * kGemmNR;
    Tensor a = Tensor::randn(Shape({m, k}), rng);
    Tensor b = Tensor::randn(Shape({k, n}), rng);
    Tensor bias_col = Tensor::randn(Shape({n}), rng);
    Tensor bias_row = Tensor::randn(Shape({m}), rng);
    Tensor c_start = Tensor::randn(Shape({m, n}), rng);
    const std::vector<float> start(c_start.raw(), c_start.raw() + m * n);
    std::vector<float> pa(static_cast<std::size_t>(2 * kGemmMR * k));
    std::vector<float> pb(static_cast<std::size_t>(2 * kGemmNR * k));
    pack_a_panels(a.raw(), k, 1, m, k, pa.data(), serial);
    pack_b_panels(b.raw(), n, 1, k, n, pb.data(), serial);
    // Covers the 2 x 2 panels of C with tiles of rows x cols panels.
    const auto run = [&](detail::MicroKernelFn kernel, std::int64_t rows,
                         std::int64_t cols, GemmEpilogue ep) {
      std::vector<float> c = start;
      for (std::int64_t rp = 0; rp < 2; rp += rows)
        for (std::int64_t cp = 0; cp < 2; cp += cols)
          kernel(pa.data() + rp * k * kGemmMR, pb.data() + cp * k * kGemmNR,
                 k, c.data() + rp * kGemmMR * n + cp * kGemmNR, n, ep,
                 bias_row.raw() + rp * kGemmMR,
                 bias_col.raw() + cp * kGemmNR);
      return c;
    };
    for (const GemmEpilogue ep : kAllEpilogues) {
      const std::vector<float> want = run(single, 1, 1, ep);
      for (std::int64_t rows = 1; rows <= table.span; ++rows)
        for (std::int64_t cols = 1; cols <= table.span; ++cols) {
          const detail::MicroKernelFn kernel =
              table.kernel[rows - 1][cols - 1];
          ASSERT_NE(kernel, nullptr) << rows << "x" << cols;
          EXPECT_EQ(want, run(kernel, rows, cols, ep))
              << rows << "x" << cols << " tile k=" << k
              << " ep=" << static_cast<int>(ep);
        }
    }
  }
}

}  // namespace
}  // namespace dlbench::tensor
