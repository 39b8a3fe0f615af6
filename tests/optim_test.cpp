// Optimizer tests: SGD/momentum/weight-decay semantics, Adam bias
// correction, lr schedules (including Caffe's two-phase CIFAR-10 one).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "optim/optimizer.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::optim {
namespace {

using runtime::Device;
using tensor::Shape;
using tensor::Tensor;

TEST(LrSchedule, FixedRate) {
  LrSchedule s(0.05);
  EXPECT_DOUBLE_EQ(s.rate(0), 0.05);
  EXPECT_DOUBLE_EQ(s.rate(100000), 0.05);
  EXPECT_DOUBLE_EQ(s.base(), 0.05);
}

TEST(LrSchedule, TwoPhaseCaffeCifar) {
  // Caffe CIFAR-10: 0.001 for the first 80% of steps, then 0.0001.
  LrSchedule s(0.001, {4000}, {0.0001});
  EXPECT_DOUBLE_EQ(s.rate(0), 0.001);
  EXPECT_DOUBLE_EQ(s.rate(3999), 0.001);
  EXPECT_DOUBLE_EQ(s.rate(4000), 0.0001);
  EXPECT_DOUBLE_EQ(s.rate(999999), 0.0001);
}

TEST(LrSchedule, MultistepMonotoneBoundaries) {
  LrSchedule s(1.0, {10, 20}, {0.1, 0.01});
  EXPECT_DOUBLE_EQ(s.rate(15), 0.1);
  EXPECT_DOUBLE_EQ(s.rate(25), 0.01);
  EXPECT_THROW(LrSchedule(1.0, {20, 10}, {0.1, 0.01}), dlbench::Error);
  EXPECT_THROW(LrSchedule(1.0, {10}, {0.1, 0.01}), dlbench::Error);
  EXPECT_THROW(LrSchedule(-1.0), dlbench::Error);
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Tensor w(Shape({2}), std::vector<float>{1.f, -1.f});
  Tensor g(Shape({2}), std::vector<float>{0.5f, -0.5f});
  Sgd sgd(LrSchedule(0.1));
  sgd.step({&w}, {&g}, 0, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), 0.95f);
  EXPECT_FLOAT_EQ(w.at(1), -0.95f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Tensor w(Shape({1}), std::vector<float>{1.f});
  Tensor g(Shape({1}), std::vector<float>{0.f});
  Sgd sgd(LrSchedule(0.1), 0.0, /*weight_decay=*/0.5);
  sgd.step({&w}, {&g}, 0, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), 1.f - 0.1f * 0.5f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Tensor w(Shape({1}), std::vector<float>{0.f});
  Tensor g(Shape({1}), std::vector<float>{1.f});
  Sgd sgd(LrSchedule(1.0), /*momentum=*/0.9);
  sgd.step({&w}, {&g}, 0, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), -1.f);  // v = 1
  sgd.step({&w}, {&g}, 1, Device::cpu());
  EXPECT_FLOAT_EQ(w.at(0), -1.f - 1.9f);  // v = 0.9 + 1
}

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(Sgd(LrSchedule(0.1), -0.1), dlbench::Error);
  EXPECT_THROW(Sgd(LrSchedule(0.1), 1.0), dlbench::Error);
  EXPECT_THROW(Sgd(LrSchedule(0.1), 0.0, -1.0), dlbench::Error);
}

TEST(Sgd, ShapeMismatchThrows) {
  Tensor w(Shape({2}));
  Tensor g(Shape({3}));
  Sgd sgd(LrSchedule(0.1));
  EXPECT_THROW(sgd.step({&w}, {&g}, 0, Device::cpu()), dlbench::Error);
  EXPECT_THROW(sgd.step({&w}, {}, 0, Device::cpu()), dlbench::Error);
}

TEST(Adam, FirstStepIsLrSizedRegardlessOfGradScale) {
  // With bias correction, the first Adam update is ~lr * sign(g).
  for (float scale : {0.001f, 1.f, 1000.f}) {
    Tensor w(Shape({1}), std::vector<float>{0.f});
    Tensor g(Shape({1}), std::vector<float>{scale});
    Adam adam(LrSchedule(0.01));
    adam.step({&w}, {&g}, 0, Device::cpu());
    EXPECT_NEAR(w.at(0), -0.01f, 1e-4f) << "scale " << scale;
  }
}

TEST(Adam, ConvergesOnQuadraticFasterThanItDiverges) {
  // Minimize f(w) = (w - 3)^2 with gradients 2(w - 3).
  Tensor w(Shape({1}), std::vector<float>{0.f});
  Adam adam(LrSchedule(0.1));
  for (int step = 0; step < 300; ++step) {
    Tensor g(Shape({1}), std::vector<float>{2.f * (w.at(0) - 3.f)});
    adam.step({&w}, {&g}, step, Device::cpu());
  }
  EXPECT_NEAR(w.at(0), 3.f, 0.05f);
}

// CRC-32 of the parameters and both moments after five steps on seeded
// gradients, captured from the scalar update loop at 7d176d5: the
// vectorized loop (vector sqrt and divide, a scalar remainder) must give
// the same bits. Lengths below, around and above one vector (1, 15, 17)
// and one past a 4096-element parallel grain, so a 2-worker split starts
// mid-vector; weight decay off and on.
TEST(Adam, UpdateBitsAreStable) {
  const std::uint32_t want[] = {0x124739c3u, 0x4936c376u};
  for (const int wd_on : {0, 1}) {
    for (const int workers : {1, 2}) {
      util::Rng rng(2626);
      std::vector<Tensor> params, grads;
      for (const std::int64_t len : {1, 15, 17, 4097}) {
        params.push_back(Tensor::randn(Shape({len}), rng));
        grads.emplace_back(Shape({len}));
      }
      std::vector<Tensor*> p, g;
      for (std::size_t i = 0; i < params.size(); ++i) {
        p.push_back(&params[i]);
        g.push_back(&grads[i]);
      }
      Adam adam(LrSchedule(1e-3), 0.9, 0.999, 1e-8, wd_on ? 5e-4 : 0.0);
      const Device dev =
          workers == 1 ? Device::cpu() : Device::parallel(workers);
      for (std::int64_t step = 0; step < 5; ++step) {
        for (Tensor& grad : grads) grad = Tensor::randn(grad.shape(), rng);
        adam.step(p, g, step, dev);
      }
      std::uint32_t crc = 0;
      const std::vector<Tensor>* groups[] = {
          &params, &adam.first_moments(), &adam.second_moments()};
      for (const auto* group : groups)
        for (const Tensor& t : *group)
          crc = util::crc32_update(
              crc, t.raw(),
              static_cast<std::size_t>(t.numel()) * sizeof(float));
      EXPECT_EQ(crc, want[wd_on])
          << std::hex << "crc 0x" << crc << " weight decay " << wd_on
          << " workers " << workers;
    }
  }
}

TEST(Adam, RejectsBadHyperparameters) {
  EXPECT_THROW(Adam(LrSchedule(0.1), 1.0), dlbench::Error);
  EXPECT_THROW(Adam(LrSchedule(0.1), 0.9, 1.0), dlbench::Error);
  EXPECT_THROW(Adam(LrSchedule(0.1), 0.9, 0.999, 0.0), dlbench::Error);
}

TEST(Optim, RebindingToDifferentModelThrows) {
  Tensor w1(Shape({2})), g1(Shape({2}));
  Tensor w2(Shape({3})), g2(Shape({3}));
  Sgd sgd(LrSchedule(0.1), 0.9);
  sgd.step({&w1}, {&g1}, 0, Device::cpu());
  EXPECT_THROW(sgd.step({&w1, &w2}, {&g1, &g2}, 1, Device::cpu()),
               dlbench::Error);
}

TEST(Optim, SgdConvergesOnLeastSquares) {
  // w* = argmin ||Xw - y||^2 on a tiny fixed problem.
  util::Rng rng(1);
  const int n = 32, d = 4;
  Tensor X = Tensor::randn(Shape({n, d}), rng);
  std::vector<float> w_true = {1.f, -2.f, 0.5f, 3.f};
  std::vector<float> y(n);
  for (int i = 0; i < n; ++i) {
    float acc = 0;
    for (int j = 0; j < d; ++j) acc += X.at(i * d + j) * w_true[j];
    y[static_cast<std::size_t>(i)] = acc;
  }
  Tensor w(Shape({d}));
  Sgd sgd(LrSchedule(0.05), 0.9);
  for (int step = 0; step < 400; ++step) {
    Tensor grad(Shape({d}));
    for (int i = 0; i < n; ++i) {
      float pred = 0;
      for (int j = 0; j < d; ++j) pred += X.at(i * d + j) * w.at(j);
      const float err = pred - y[static_cast<std::size_t>(i)];
      for (int j = 0; j < d; ++j)
        grad.data()[j] += 2.f * err * X.at(i * d + j) / n;
    }
    sgd.step({&w}, {&grad}, step, Device::cpu());
  }
  for (int j = 0; j < d; ++j) EXPECT_NEAR(w.at(j), w_true[j], 0.02f);
}

TEST(Optim, ParallelDeviceMatchesSerial) {
  util::Rng rng(2);
  Tensor w1 = Tensor::randn(Shape({1000}), rng);
  Tensor w2 = w1.clone();
  Tensor g = Tensor::randn(Shape({1000}), rng);
  Sgd a(LrSchedule(0.01), 0.9, 0.001);
  Sgd b(LrSchedule(0.01), 0.9, 0.001);
  for (int step = 0; step < 5; ++step) {
    a.step({&w1}, {&g}, step, Device::cpu());
    b.step({&w2}, {&g}, step, Device::parallel(4));
  }
  for (std::int64_t i = 0; i < w1.numel(); ++i)
    ASSERT_EQ(w1.at(i), w2.at(i));
}

}  // namespace
}  // namespace dlbench::optim
