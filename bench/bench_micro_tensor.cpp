// Microbenchmarks for the tensor kernels that dominate every
// experiment: GEMM, im2col convolution, direct convolution, pooling,
// softmax. Uses google-benchmark. Shapes are taken from the paper's
// actual layers (Tables IV and V), plus square GEMM sizes for the
// packed kernel (DESIGN.md §11, EXPERIMENTS.md).
//
// Every bench reports arithmetic throughput (counter "GFLOPs", in
// GFLOP/s) and memory throughput (counter "GBps", in GB/s, counting
// each operand tensor once per pass) so regressions show up in units
// that are comparable across shapes; scripts/perf_smoke.sh keys off
// the GFLOPs counter of the GEMM/conv benches.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "optim/optimizer.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/pack.hpp"
#include "tensor/pool.hpp"

namespace {

using namespace dlbench;
using runtime::Device;
using tensor::Shape;
using tensor::Tensor;

Device device_for(bool parallel) {
  return parallel ? Device::gpu() : Device::cpu();
}

// Attach per-second rate counters: `flops` and `bytes` are per
// iteration; google-benchmark scales by iterations/elapsed itself.
void set_rates(benchmark::State& state, double flops, double bytes) {
  using benchmark::Counter;
  state.counters["GFLOPs"] =
      Counter(flops * 1e-9, Counter::kIsIterationInvariantRate);
  state.counters["GBps"] =
      Counter(bytes * 1e-9, Counter::kIsIterationInvariantRate);
}

double gemm_flops(double m, double k, double n) { return 2.0 * m * k * n; }
double gemm_bytes(double m, double k, double n) {
  return 4.0 * (m * k + k * n + m * n);
}

// GEMM at the TF-MNIST fc1 shape: [batch, 3136] x [3136, 1024].
void BM_MatmulFc1(benchmark::State& state) {
  const auto batch = state.range(0);
  const Device dev = device_for(state.range(1));
  util::Rng rng(1);
  Tensor a = Tensor::randn(Shape({batch, 3136}), rng);
  Tensor b = Tensor::randn(Shape({3136, 1024}), rng);
  for (auto _ : state) {
    Tensor c = tensor::matmul(a, b, dev);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * batch * 3136 * 1024 * 2);
  set_rates(state, gemm_flops(static_cast<double>(batch), 3136, 1024),
            gemm_bytes(static_cast<double>(batch), 3136, 1024));
}
BENCHMARK(BM_MatmulFc1)->Args({16, 0})->Args({16, 1})->Args({64, 1})->UseRealTime();

// Square GEMM through the packed kernel (the production matmul path).
// scripts/perf_smoke.sh gates it at the active SIMD tier and, at 384,
// again under DLB_SIMD=scalar (the portable micro-kernel).
void BM_GemmPacked(benchmark::State& state) {
  const auto s = state.range(0);
  const Device dev = device_for(true);
  util::Rng rng(7);
  Tensor a = Tensor::randn(Shape({s, s}), rng);
  Tensor b = Tensor::randn(Shape({s, s}), rng);
  for (auto _ : state) {
    Tensor c = tensor::matmul(a, b, dev);
    benchmark::DoNotOptimize(c.raw());
  }
  const double d = static_cast<double>(s);
  set_rates(state, gemm_flops(d, d, d), gemm_bytes(d, d, d));
}
BENCHMARK(BM_GemmPacked)->Arg(256)->Arg(384)->Arg(512)->UseRealTime();

// Serving's fc1 GEMM: [M, 3136] x [3136, 1024] with the fused bias+ReLU
// epilogue, one thread. BM_GemmFc1Packed packs both operands per call
// (what tensor::matmul_bias_relu does); BM_GemmPrepackedB takes the
// weight pre-packed, as nn::FrozenModel's fc ops do with the panels
// they pack at freeze time. The gap is the per-call weight packing cost.
struct Fc1Operands {
  static constexpr std::int64_t kK = 3136, kN = 1024;
  explicit Fc1Operands(std::int64_t m)
      : rng(9),
        a(Tensor::randn(Shape({m, kK}), rng)),
        b(Tensor::randn(Shape({kK, kN}), rng)),
        bias(Tensor::randn(Shape({kN}), rng)),
        c(Tensor::uninit(Shape({m, kN}))) {}
  util::Rng rng;
  Tensor a, b, bias, c;
};

void BM_GemmFc1Packed(benchmark::State& state) {
  const auto m = state.range(0);
  Fc1Operands op(m);
  const Device dev = Device::cpu();
  for (auto _ : state) {
    tensor::gemm_packed(op.a.raw(), op.kK, 1, op.b.raw(), op.kN, 1,
                        op.c.raw(), m, op.kK, op.kN,
                        tensor::GemmEpilogue::kBiasColRelu, op.bias.raw(),
                        dev);
    benchmark::DoNotOptimize(op.c.raw());
    benchmark::ClobberMemory();
  }
  const double d = static_cast<double>(m);
  set_rates(state, gemm_flops(d, op.kK, op.kN), gemm_bytes(d, op.kK, op.kN));
}
BENCHMARK(BM_GemmFc1Packed)->Arg(1)->Arg(8)->UseRealTime();

void BM_GemmPrepackedB(benchmark::State& state) {
  const auto m = state.range(0);
  Fc1Operands op(m);
  const Device dev = Device::cpu();
  std::vector<float> panels(static_cast<std::size_t>(
      tensor::gemm_col_panels(op.kN) * tensor::kGemmNR * op.kK));
  tensor::pack_b_panels(op.b.raw(), op.kN, 1, op.kK, op.kN, panels.data(),
                        dev);
  for (auto _ : state) {
    tensor::gemm_prepacked_b(op.a.raw(), op.kK, 1, panels.data(), op.c.raw(),
                             m, op.kK, op.kN,
                             tensor::GemmEpilogue::kBiasColRelu,
                             op.bias.raw(), dev);
    benchmark::DoNotOptimize(op.c.raw());
    benchmark::ClobberMemory();
  }
  const double d = static_cast<double>(m);
  set_rates(state, gemm_flops(d, op.kK, op.kN), gemm_bytes(d, op.kK, op.kN));
}
BENCHMARK(BM_GemmPrepackedB)->Arg(1)->Arg(8)->UseRealTime();

// GEMMs whose edge tiles (a last row panel with fewer than 6 live rows,
// a lone or partial column panel) carry much of the work, one thread:
// Args are {m, k, n, conv}. conv = 1 runs gemm_prepacked on pre-packed
// panels with the row-bias epilogue, as a conv forward does per sample
// (TF conv2 64x800x196, Caffe conv1 20x25x576); conv = 0 runs
// gemm_packed with the column-bias epilogue, as a dense forward does
// (Caffe fc1 800->500 at M = 1 and 10, crafting's batch-1 pass and
// Jacobian; TF fc1 at M = 50).
void BM_GemmEdgeTiles(benchmark::State& state) {
  const std::int64_t m = state.range(0), k = state.range(1),
                     n = state.range(2);
  const bool conv = state.range(3) != 0;
  const Device dev = Device::cpu();
  util::Rng rng(11);
  Tensor a = Tensor::randn(Shape({m, k}), rng);
  Tensor b = Tensor::randn(Shape({k, n}), rng);
  Tensor bias = Tensor::randn(Shape({conv ? m : n}), rng);
  Tensor c = Tensor::uninit(Shape({m, n}));
  std::vector<float> pa(
      static_cast<std::size_t>(tensor::gemm_row_panels(m) * tensor::kGemmMR * k));
  std::vector<float> pb(
      static_cast<std::size_t>(tensor::gemm_col_panels(n) * tensor::kGemmNR * k));
  tensor::pack_a_panels(a.raw(), k, 1, m, k, pa.data(), dev);
  tensor::pack_b_panels(b.raw(), n, 1, k, n, pb.data(), dev);
  for (auto _ : state) {
    if (conv)
      tensor::gemm_prepacked(pa.data(), pb.data(), c.raw(), n, m, k, n,
                             tensor::GemmEpilogue::kBiasRowInit, bias.raw(),
                             dev);
    else
      tensor::gemm_packed(a.raw(), k, 1, b.raw(), n, 1, c.raw(), m, k, n,
                          tensor::GemmEpilogue::kBiasColAdd, bias.raw(), dev);
    benchmark::DoNotOptimize(c.raw());
    benchmark::ClobberMemory();
  }
  const auto dm = static_cast<double>(m), dk = static_cast<double>(k),
             dn = static_cast<double>(n);
  set_rates(state, gemm_flops(dm, dk, dn), gemm_bytes(dm, dk, dn));
}
BENCHMARK(BM_GemmEdgeTiles)
    ->Args({64, 800, 196, 1})
    ->Args({20, 25, 576, 1})
    ->Args({1, 800, 500, 0})
    ->Args({10, 800, 500, 0})
    ->Args({50, 3136, 1024, 0})
    ->UseRealTime();

// One micro-kernel call per iteration on cache-hot packed panels, for
// every tile shape of every SIMD tier this build and CPU can run,
// registered as BM_MicroKernel/{tier}/{RPxCP}/{k}: the kernel alone,
// without packing, the macro loop or threads. k = 25, 800 and 3136 are
// the Caffe conv1, TF conv2 and TF fc1 reduction lengths.
void BM_MicroKernel(benchmark::State& state,
                    tensor::detail::MicroKernelFn kernel, std::int64_t rows,
                    std::int64_t cols) {
  const std::int64_t k = state.range(0);
  const std::int64_t m = rows * tensor::kGemmMR, n = cols * tensor::kGemmNR;
  util::Rng rng(11);
  Tensor a_panels = Tensor::randn(Shape({m * k}), rng);
  Tensor b_panels = Tensor::randn(Shape({k * n}), rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (auto _ : state) {
    kernel(a_panels.raw(), b_panels.raw(), k, c.data(), n,
           tensor::GemmEpilogue::kNone, nullptr, nullptr);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const auto md = static_cast<double>(m), kd = static_cast<double>(k),
             nd = static_cast<double>(n);
  set_rates(state, gemm_flops(md, kd, nd), gemm_bytes(md, kd, nd));
}

const bool kMicroKernelsRegistered = [] {
  using tensor::detail::MicroKernelTable;
  std::vector<std::pair<const char*, const MicroKernelTable*>> tiers{
      {"scalar", &tensor::detail::kScalarKernels}};
#if defined(DLB_HAVE_AVX2_BUILD)
  const runtime::CpuFeatures& cpu = runtime::cpu_features();
  if (cpu.avx2 && cpu.fma) {
    tiers.emplace_back("avx2", &tensor::detail::kAvx2Kernels);
#if defined(DLB_HAVE_AVX512_BUILD)
    if (cpu.avx512f)
      tiers.emplace_back("avx512", &tensor::detail::kAvx512Kernels);
#endif
  }
#endif
  for (const auto& [tier, table] : tiers)
    for (std::int64_t rows = 1; rows <= table->span; ++rows)
      for (std::int64_t cols = 1; cols <= table->span; ++cols) {
        const std::string name = std::string("BM_MicroKernel/") + tier + "/" +
                                 std::to_string(rows) + "x" +
                                 std::to_string(cols);
        benchmark::RegisterBenchmark(name.c_str(), BM_MicroKernel,
                                     table->kernel[rows - 1][cols - 1], rows,
                                     cols)
            ->Arg(25)->Arg(50)->Arg(256)->Arg(800)->Arg(3136)
            ->UseRealTime();
      }
  return true;
}();

// Square A * B^T through the packed kernel (the backward-pass dgrad
// shape: dx = dy * W^T with W stored [in, out] transposed access).
// Routed onto gemm_packed in this PR; the perf_smoke floor pins it.
void BM_GemmNt(benchmark::State& state) {
  const auto s = state.range(0);
  const Device dev = device_for(true);
  util::Rng rng(7);
  Tensor a = Tensor::randn(Shape({s, s}), rng);
  Tensor b = Tensor::randn(Shape({s, s}), rng);  // [N, K] operand
  for (auto _ : state) {
    Tensor c = tensor::matmul_nt(a, b, dev);
    benchmark::DoNotOptimize(c.raw());
  }
  const double d = static_cast<double>(s);
  set_rates(state, gemm_flops(d, d, d), gemm_bytes(d, d, d));
}
BENCHMARK(BM_GemmNt)->Arg(256)->Arg(512)->UseRealTime();

// TF-MNIST's fc1 dx GEMM in training: dy [50, 1024] x W^T with W
// stored [3136, 1024] (matmul_nt: transposed-B packing, column split),
// on 2 workers as perfbench's train_mnist runs it.
void BM_MatmulNtFc1Dx(benchmark::State& state) {
  const Device dev = Device::parallel(2);
  util::Rng rng(9);
  Tensor dy = Tensor::randn(Shape({50, 1024}), rng);
  Tensor w = Tensor::randn(Shape({3136, 1024}), rng);
  for (auto _ : state) {
    Tensor dx = tensor::matmul_nt(dy, w, dev);
    benchmark::DoNotOptimize(dx.raw());
  }
  set_rates(state, gemm_flops(50, 1024, 3136), gemm_bytes(50, 1024, 3136));
}
BENCHMARK(BM_MatmulNtFc1Dx)->UseRealTime();

// One Adam step over the TF-MNIST parameter set (conv 5x5 1->32, conv
// 5x5 32->64, fc 3136->1024, fc 1024->10, with biases: 3.27M floats),
// on 2 workers.
void BM_AdamStep(benchmark::State& state) {
  const Device dev = Device::parallel(2);
  util::Rng rng(10);
  std::vector<Tensor> params, grads;
  for (const Shape& shape :
       {Shape({32, 25}), Shape({32}), Shape({64, 800}), Shape({64}),
        Shape({3136, 1024}), Shape({1024}), Shape({1024, 10}), Shape({10})}) {
    params.push_back(Tensor::randn(shape, rng));
    grads.push_back(Tensor::randn(shape, rng, 0.f, 1e-3f));
  }
  std::vector<Tensor*> p, g;
  double n = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    p.push_back(&params[i]);
    g.push_back(&grads[i]);
    n += static_cast<double>(params[i].numel());
  }
  optim::Adam adam(optim::LrSchedule(1e-4));
  std::int64_t step = 0;
  for (auto _ : state) {
    adam.step(p, g, step++, dev);
    benchmark::DoNotOptimize(params[4].raw());
    benchmark::ClobberMemory();
  }
  // ~12 flops per element (decay, two moments, sqrt, divide, update);
  // p, g, m, v read and p, m, v written.
  set_rates(state, 12.0 * n, 4.0 * 7.0 * n);
}
BENCHMARK(BM_AdamStep)->UseRealTime();

// Conv at the Caffe-MNIST conv1 shape: 1->20, 5x5, 28x28 input.
void BM_ConvGemmLenet1(benchmark::State& state) {
  const auto batch = state.range(0);
  const Device dev = device_for(state.range(1));
  tensor::ConvGeom g{1, 28, 28, 20, 5, 1, 0};
  util::Rng rng(2);
  Tensor x = Tensor::randn(Shape({batch, 1, 28, 28}), rng);
  Tensor w = Tensor::randn(Shape({20, g.patch_size()}), rng);
  Tensor b = Tensor::randn(Shape({20}), rng);
  for (auto _ : state) {
    Tensor y = tensor::conv2d_forward(x, w, b, g, dev);
    benchmark::DoNotOptimize(y.raw());
  }
  const double positions =
      static_cast<double>(batch) * g.out_h() * g.out_w();
  set_rates(state,
            2.0 * positions * g.out_c * static_cast<double>(g.patch_size()),
            4.0 * (static_cast<double>(x.numel()) + w.numel() + b.numel() +
                   positions * g.out_c));
}
BENCHMARK(BM_ConvGemmLenet1)->Args({16, 0})->Args({16, 1})->Args({64, 1})->UseRealTime();

// Conv forward and backward at two paper layers: range(0) = 0 is
// TF-MNIST conv2 (32->64, 5x5 pad 2, 14x14) at batch 50 on 2 workers;
// 1 is Caffe-CIFAR conv2 (32->32, 5x5 pad 2, 16x16) on one 25-sample
// data-parallel shard, serial.
struct PaperConv {
  tensor::ConvGeom g;
  std::int64_t batch;
  Device dev;
};

PaperConv paper_conv(std::int64_t which) {
  if (which == 0)
    return {tensor::ConvGeom{32, 14, 14, 64, 5, 1, 2}, 50, Device::parallel(2)};
  return {tensor::ConvGeom{32, 16, 16, 32, 5, 1, 2}, 25, Device::cpu()};
}

void BM_ConvForward(benchmark::State& state) {
  const auto [g, batch, dev] = paper_conv(state.range(0));
  util::Rng rng(5);
  Tensor x = Tensor::randn(Shape({batch, g.in_c, g.in_h, g.in_w}), rng);
  Tensor w = Tensor::randn(Shape({g.out_c, g.patch_size()}), rng);
  Tensor b = Tensor::randn(Shape({g.out_c}), rng);
  for (auto _ : state) {
    Tensor y = tensor::conv2d_forward(x, w, b, g, dev);
    benchmark::DoNotOptimize(y.raw());
  }
  const double positions =
      static_cast<double>(batch) * g.out_h() * g.out_w();
  set_rates(state,
            2.0 * positions * g.out_c * static_cast<double>(g.patch_size()),
            4.0 * (static_cast<double>(x.numel()) + w.numel() + b.numel() +
                   positions * g.out_c));
}
BENCHMARK(BM_ConvForward)->Arg(0)->Arg(1)->UseRealTime();

// FLOPs count the dW and dx GEMMs.
void BM_ConvBackward(benchmark::State& state) {
  const auto [g, batch, dev] = paper_conv(state.range(0));
  util::Rng rng(5);
  Tensor x = Tensor::randn(Shape({batch, g.in_c, g.in_h, g.in_w}), rng);
  Tensor w = Tensor::randn(Shape({g.out_c, g.patch_size()}), rng);
  Tensor dy = Tensor::randn(Shape({batch, g.out_c, g.out_h(), g.out_w()}), rng);
  for (auto _ : state) {
    tensor::ConvGrads grads = tensor::conv2d_backward(x, w, dy, g, dev);
    benchmark::DoNotOptimize(grads.dweight.raw());
    benchmark::DoNotOptimize(grads.dx.raw());
  }
  const double positions =
      static_cast<double>(batch) * g.out_h() * g.out_w();
  set_rates(state,
            4.0 * positions * g.out_c * static_cast<double>(g.patch_size()),
            4.0 * (2.0 * static_cast<double>(x.numel()) + 2.0 * w.numel() +
                   static_cast<double>(dy.numel())));
}
BENCHMARK(BM_ConvBackward)->Arg(0)->Arg(1)->UseRealTime();

// GEMM vs direct convolution — the Torch CPU/GPU implementation split.
void BM_ConvDirectVsGemm(benchmark::State& state) {
  const bool direct = state.range(0);
  tensor::ConvGeom g{32, 11, 11, 64, 5, 1, 0};  // Torch MNIST conv2
  util::Rng rng(3);
  nn::Context ctx;
  ctx.device = Device::cpu();
  const std::int64_t batch = 8;
  Tensor x = Tensor::randn(Shape({batch, 32, 11, 11}), rng);
  if (direct) {
    nn::Conv2dDirect conv(g, tensor::InitKind::kLecunUniform, rng);
    for (auto _ : state) {
      Tensor y = conv.forward(x, ctx);
      benchmark::DoNotOptimize(y.raw());
    }
  } else {
    nn::Conv2d conv(g, tensor::InitKind::kLecunUniform, rng);
    for (auto _ : state) {
      Tensor y = conv.forward(x, ctx);
      benchmark::DoNotOptimize(y.raw());
    }
  }
  const double positions =
      static_cast<double>(batch) * g.out_h() * g.out_w();
  set_rates(state,
            2.0 * positions * g.out_c * static_cast<double>(g.patch_size()),
            4.0 * (static_cast<double>(x.numel()) +
                   g.out_c * static_cast<double>(g.patch_size()) +
                   positions * g.out_c));
}
BENCHMARK(BM_ConvDirectVsGemm)->Arg(0)->Arg(1)->UseRealTime();

// range(0): 0 and 1 are TF-CIFAR pool1 (3x3 stride 2, 64 x 32x32,
// batch 32) serial and parallel; 2 is TF-MNIST pool1 (2x2 stride 2,
// 32 x 28x28, batch 50) serial.
void BM_MaxPool(benchmark::State& state) {
  const bool two = state.range(0) == 2;
  const Device dev = device_for(state.range(0) == 1);
  const tensor::PoolGeom g = two ? tensor::PoolGeom{32, 28, 28, 2, 2, false}
                                 : tensor::PoolGeom{64, 32, 32, 3, 2, false};
  util::Rng rng(4);
  Tensor x = Tensor::randn(
      two ? Shape({50, 32, 28, 28}) : Shape({32, 64, 32, 32}), rng);
  std::vector<std::int32_t> argmax;
  Tensor probe = tensor::maxpool_forward(x, g, argmax, dev);
  for (auto _ : state) {
    Tensor y = tensor::maxpool_forward(x, g, argmax, dev);
    benchmark::DoNotOptimize(y.raw());
  }
  // One compare per window element counts as one "flop".
  set_rates(state, static_cast<double>(probe.numel()) * g.window * g.window,
            4.0 * (static_cast<double>(x.numel()) + probe.numel()));
}
BENCHMARK(BM_MaxPool)->Arg(0)->Arg(1)->Arg(2)->UseRealTime();

void BM_SoftmaxXent(benchmark::State& state) {
  const Device dev = device_for(state.range(0));
  util::Rng rng(5);
  Tensor logits = Tensor::randn(Shape({256, 10}), rng);
  std::vector<std::int64_t> labels(256);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  for (auto _ : state) {
    Tensor p = tensor::softmax_rows(logits, dev);
    const double loss = tensor::cross_entropy_mean(p, labels);
    benchmark::DoNotOptimize(loss);
  }
  // max + sub + exp + sum + div per element, plus the log per row.
  set_rates(state, 5.0 * static_cast<double>(logits.numel()) + 256.0,
            4.0 * 2.0 * static_cast<double>(logits.numel()));
}
BENCHMARK(BM_SoftmaxXent)->Arg(0)->Arg(1)->UseRealTime();

// SGD momentum step on small parameter tensors — the dispatch-bound
// regime the parallel_for grain fix targets. With grain = 4096 a
// 5,000-element update cuts ceil(5000/4096) = 2 chunks instead of one
// sliver per worker, and a 500-element update runs inline; the pooled
// rows (Arg 1) should now track the serial rows (Arg 0) at small sizes
// instead of losing to enqueue overhead.
void BM_SgdStepSmallParams(benchmark::State& state) {
  const auto n = state.range(0);
  const Device dev = device_for(state.range(1));
  util::Rng rng(8);
  Tensor p = Tensor::randn(Shape({n}), rng);
  Tensor g = Tensor::randn(Shape({n}), rng);
  optim::Sgd sgd(optim::LrSchedule(0.01), /*momentum=*/0.9);
  const std::vector<Tensor*> params{&p};
  const std::vector<Tensor*> grads{&g};
  std::int64_t step = 0;
  for (auto _ : state) {
    sgd.step(params, grads, step++, dev);
    benchmark::DoNotOptimize(p.raw());
  }
  // Velocity update + parameter update per element; p, g, v traffic.
  set_rates(state, 4.0 * static_cast<double>(n),
            4.0 * 3.0 * static_cast<double>(n));
}
BENCHMARK(BM_SgdStepSmallParams)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Args({50000, 1})
    ->UseRealTime();

void BM_Lrn(benchmark::State& state) {
  util::Rng rng(6);
  nn::Context ctx;
  ctx.device = device_for(state.range(0));
  nn::LocalResponseNorm lrn;
  Tensor x = Tensor::randn(Shape({32, 64, 15, 15}), rng);
  Tensor probe = lrn.forward(x, ctx);
  for (auto _ : state) {
    Tensor y = lrn.forward(x, ctx);
    benchmark::DoNotOptimize(y.raw());
  }
  // Square + windowed sum + scale + pow per element (window = 5).
  set_rates(state, static_cast<double>(x.numel()) * (5.0 + 3.0),
            4.0 * (static_cast<double>(x.numel()) + probe.numel()));
}
BENCHMARK(BM_Lrn)->Arg(0)->Arg(1)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
