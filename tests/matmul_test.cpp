// GEMM kernels: correctness against a naive reference, across devices
// and transposition variants, over randomized shapes (property tests).

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/matmul.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::tensor {
namespace {

using runtime::Device;

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t x = 0; x < k; ++x)
        acc += static_cast<double>(a.at(i * k + x)) * b.at(x * n + j);
      c.data()[i * n + j] = static_cast<float>(acc);
    }
  return c;
}

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-3f) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a.at(i), b.at(i), tol) << "at " << i;
}

// (M, K, N, parallel)
using GemmParam = std::tuple<int, int, int, bool>;

class GemmShapes : public ::testing::TestWithParam<GemmParam> {
 protected:
  Device dev() const {
    return std::get<3>(GetParam()) ? Device::parallel(4) : Device::cpu();
  }
};

TEST_P(GemmShapes, MatmulMatchesNaive) {
  auto [m, k, n, parallel] = GetParam();
  (void)parallel;
  util::Rng rng(static_cast<std::uint64_t>(m * 73 + k * 7 + n));
  Tensor a = Tensor::randn(Shape({m, k}), rng);
  Tensor b = Tensor::randn(Shape({k, n}), rng);
  expect_close(matmul(a, b, dev()), naive_matmul(a, b));
}

TEST_P(GemmShapes, MatmulTnMatchesExplicitTranspose) {
  auto [m, k, n, parallel] = GetParam();
  (void)parallel;
  util::Rng rng(static_cast<std::uint64_t>(m + k + n));
  Tensor at = Tensor::randn(Shape({k, m}), rng);  // stored transposed
  Tensor b = Tensor::randn(Shape({k, n}), rng);
  // Materialize a = at^T, then compare.
  Tensor a({m, k});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t x = 0; x < k; ++x)
      a.data()[i * k + x] = at.at(x * m + i);
  expect_close(matmul_tn(at, b, dev()), naive_matmul(a, b));
}

// The dense layers' dW path: from a +0-filled C each element is the
// chain a plain GEMM of the materialized transpose computes, bit for
// bit; from any other C it adds the product onto it.
TEST_P(GemmShapes, MatmulTnAccumulateContinuesFromC) {
  auto [m, k, n, parallel] = GetParam();
  (void)parallel;
  util::Rng rng(static_cast<std::uint64_t>(m * 5 + k * 7 + n));
  Tensor at = Tensor::randn(Shape({k, m}), rng);  // stored transposed
  Tensor b = Tensor::randn(Shape({k, n}), rng);
  Tensor a({m, k});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t x = 0; x < k; ++x)
      a.data()[i * k + x] = at.at(x * m + i);
  const Tensor fresh = matmul(a, b, dev());
  Tensor zeros(Shape({m, n}));
  matmul_tn_accumulate(at, b, zeros, dev());
  for (std::int64_t i = 0; i < fresh.numel(); ++i)
    ASSERT_EQ(zeros.at(i), fresh.at(i)) << "at " << i;
  Tensor c = Tensor::randn(Shape({m, n}), rng);
  Tensor want = c.clone();
  for (std::int64_t i = 0; i < want.numel(); ++i)
    want.data()[i] += fresh.at(i);
  matmul_tn_accumulate(at, b, c, dev());
  expect_close(c, want);
}

TEST_P(GemmShapes, MatmulNtMatchesExplicitTranspose) {
  auto [m, k, n, parallel] = GetParam();
  (void)parallel;
  util::Rng rng(static_cast<std::uint64_t>(m * 3 + k + n * 11));
  Tensor a = Tensor::randn(Shape({m, k}), rng);
  Tensor bt = Tensor::randn(Shape({n, k}), rng);  // stored transposed
  Tensor b({k, n});
  for (std::int64_t x = 0; x < k; ++x)
    for (std::int64_t j = 0; j < n; ++j)
      b.data()[x * n + j] = bt.at(j * k + x);
  expect_close(matmul_nt(a, bt, dev()), naive_matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Combine(::testing::Values(1, 3, 7, 64),
                       ::testing::Values(1, 5, 33),
                       ::testing::Values(1, 4, 17),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<GemmParam>& info) {
      return "M" + std::to_string(std::get<0>(info.param)) + "K" +
             std::to_string(std::get<1>(info.param)) + "N" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "Par" : "Ser");
    });

TEST(Gemm, SerialAndParallelBitIdentical) {
  util::Rng rng(9);
  Tensor a = Tensor::randn(Shape({37, 23}), rng);
  Tensor b = Tensor::randn(Shape({23, 19}), rng);
  Tensor serial = matmul(a, b, Device::cpu());
  Tensor parallel = matmul(a, b, Device::parallel(4));
  for (std::int64_t i = 0; i < serial.numel(); ++i)
    ASSERT_EQ(serial.at(i), parallel.at(i));
}

TEST(Gemm, InnerDimMismatchThrows) {
  Tensor a(Shape({2, 3}));
  Tensor b(Shape({4, 5}));
  EXPECT_THROW(matmul(a, b, Device::cpu()), dlbench::Error);
  EXPECT_THROW(matmul_tn(a, b, Device::cpu()), dlbench::Error);
  EXPECT_THROW(matmul_nt(a, b, Device::cpu()), dlbench::Error);
  Tensor at(Shape({4, 2}));  // inner dims match b; C must be [2, 5]
  Tensor c(Shape({2, 4}));
  EXPECT_THROW(matmul_tn_accumulate(at, b, c, Device::cpu()), dlbench::Error);
}

TEST(Gemm, AddRowBiasBroadcasts) {
  Tensor y(Shape({2, 3}), 1.f);
  Tensor bias(Shape({3}), std::vector<float>{1.f, 2.f, 3.f});
  add_row_bias(y, bias, Device::cpu());
  EXPECT_EQ(y.at(0), 2.f);
  EXPECT_EQ(y.at(1), 3.f);
  EXPECT_EQ(y.at(5), 4.f);
}

TEST(Gemm, AddRowBiasShapeChecked) {
  Tensor y(Shape({2, 3}));
  Tensor bad(Shape({4}));
  EXPECT_THROW(add_row_bias(y, bad, Device::cpu()), dlbench::Error);
}

TEST(Gemm, ColumnSums) {
  Tensor x(Shape({2, 3}), std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor sums = column_sums(x, Device::cpu());
  EXPECT_EQ(sums.at(0), 5.f);
  EXPECT_EQ(sums.at(1), 7.f);
  EXPECT_EQ(sums.at(2), 9.f);
  Tensor psums = column_sums(x, Device::parallel(3));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(sums.at(i), psums.at(i));
}

}  // namespace
}  // namespace dlbench::tensor
