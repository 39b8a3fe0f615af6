#include "tensor/matmul.hpp"

#include "runtime/trace.hpp"
#include "tensor/gemm_kernel.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace {

void check_rank2(const Tensor& a, const Tensor& b, const char* name) {
  DLB_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
            name << " expects rank-2 operands");
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, const Device& dev) {
  runtime::trace::Span span("matmul", "kernel");
  check_rank2(a, b, "matmul");
  const std::int64_t M = a.dim(0), K = a.dim(1);
  DLB_CHECK(b.dim(0) == K, "matmul: inner dims " << K << " vs " << b.dim(0));
  const std::int64_t N = b.dim(1);
  Tensor c = Tensor::uninit(Shape({M, N}));  // gemm_packed writes all of C
  gemm_packed(a.raw(), K, 1, b.raw(), N, 1, c.raw(), M, K, N,
              GemmEpilogue::kNone, nullptr, dev);
  return c;
}

Tensor matmul_bias(const Tensor& a, const Tensor& b, const Tensor& bias,
                   const Device& dev) {
  runtime::trace::Span span("matmul_bias", "kernel");
  check_rank2(a, b, "matmul_bias");
  const std::int64_t M = a.dim(0), K = a.dim(1);
  DLB_CHECK(b.dim(0) == K,
            "matmul_bias: inner dims " << K << " vs " << b.dim(0));
  const std::int64_t N = b.dim(1);
  DLB_CHECK(bias.shape().rank() == 1 && bias.dim(0) == N,
            "matmul_bias: bias must be [N]");
  Tensor c = Tensor::uninit(Shape({M, N}));  // gemm_packed writes all of C
  gemm_packed(a.raw(), K, 1, b.raw(), N, 1, c.raw(), M, K, N,
              GemmEpilogue::kBiasColAdd, bias.raw(), dev);
  return c;
}

Tensor matmul_bias_relu(const Tensor& a, const Tensor& b, const Tensor& bias,
                        const Device& dev) {
  runtime::trace::Span span("matmul_bias_relu", "kernel");
  check_rank2(a, b, "matmul_bias_relu");
  const std::int64_t M = a.dim(0), K = a.dim(1);
  DLB_CHECK(b.dim(0) == K,
            "matmul_bias_relu: inner dims " << K << " vs " << b.dim(0));
  const std::int64_t N = b.dim(1);
  DLB_CHECK(bias.shape().rank() == 1 && bias.dim(0) == N,
            "matmul_bias_relu: bias must be [N]");
  Tensor c = Tensor::uninit(Shape({M, N}));  // gemm_packed writes all of C
  gemm_packed(a.raw(), K, 1, b.raw(), N, 1, c.raw(), M, K, N,
              GemmEpilogue::kBiasColRelu, bias.raw(), dev);
  return c;
}

void matmul_tn_accumulate(const Tensor& a, const Tensor& b, Tensor& c,
                          const Device& dev) {
  runtime::trace::Span span("matmul_tn", "kernel");
  // a is stored [K, M]; C[M, N] += sum_k a[k, m] * b[k, n].
  check_rank2(a, b, "matmul_tn");
  const std::int64_t K = a.dim(0), M = a.dim(1);
  DLB_CHECK(b.dim(0) == K, "matmul_tn: inner dims " << K << " vs " << b.dim(0));
  const std::int64_t N = b.dim(1);
  DLB_CHECK(c.shape() == Shape({M, N}),
            "matmul_tn: C is " << c.shape().to_string() << ", want [" << M
                               << ", " << N << "]");
  // A(m, k) lives at a[k*M + m]: row stride 1, column stride M.
  gemm_packed(a.raw(), 1, M, b.raw(), N, 1, c.raw(), M, K, N,
              GemmEpilogue::kAccumulate, nullptr, dev);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b, const Device& dev) {
  check_rank2(a, b, "matmul_tn");
  Tensor c(Shape({a.dim(1), b.dim(1)}));  // +0: the chain starts there
  matmul_tn_accumulate(a, b, c, dev);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, const Device& dev) {
  runtime::trace::Span span("matmul_nt", "kernel");
  // b is stored [N, K]; compute C[M, N] = sum_k a[m, k] * b[n, k].
  check_rank2(a, b, "matmul_nt");
  const std::int64_t M = a.dim(0), K = a.dim(1);
  DLB_CHECK(b.dim(1) == K, "matmul_nt: inner dims " << K << " vs " << b.dim(1));
  const std::int64_t N = b.dim(0);
  Tensor c = Tensor::uninit(Shape({M, N}));  // gemm_packed writes all of C
  // B(k, n) lives at b[n*K + k]: row stride 1, column stride K — the
  // packing layer absorbs the column-wise gather once per panel.
  gemm_packed(a.raw(), K, 1, b.raw(), 1, K, c.raw(), M, K, N,
              GemmEpilogue::kNone, nullptr, dev);
  return c;
}

void add_row_bias(Tensor& y, const Tensor& bias, const Device& dev) {
  DLB_CHECK(y.shape().rank() == 2 && bias.shape().rank() == 1,
            "add_row_bias expects [M,N] and [N]");
  const std::int64_t M = y.dim(0), N = y.dim(1);
  DLB_CHECK(bias.dim(0) == N, "bias length mismatch");
  float* py = y.raw();
  const float* pb = bias.raw();
  dev.parallel_for(
      static_cast<std::size_t>(M),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t m = lo; m < hi; ++m) {
          float* row = py + m * static_cast<std::size_t>(N);
          for (std::int64_t n = 0; n < N; ++n) row[n] += pb[n];
        }
      },
      16);
}

Tensor column_sums(const Tensor& x, const Device& dev) {
  DLB_CHECK(x.shape().rank() == 2, "column_sums expects rank-2 tensor");
  const std::int64_t M = x.dim(0), N = x.dim(1);
  Tensor out({N});
  float* po = out.raw();
  const float* px = x.raw();
  // Parallel over columns to avoid write contention.
  dev.parallel_for(
      static_cast<std::size_t>(N),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t n = lo; n < hi; ++n) {
          float acc = 0.f;
          for (std::int64_t m = 0; m < M; ++m)
            acc += px[static_cast<std::size_t>(m * N) + n];
          po[n] = acc;
        }
      },
      64);
  return out;
}

}  // namespace dlbench::tensor
