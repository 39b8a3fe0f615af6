#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/micro_kernel.hpp"
#include "tensor/pack.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace detail {
namespace {

// One float per "vector". On an FMA target the step is an explicit
// std::fma (one vfmadd), not left to contraction: an instrumented
// sanitizer build contracts only some of the unrolled steps.
struct Scalar {
  using type = float;
  static constexpr int kWidth = 1;
  static type load(const float* p) { return *p; }
  static void store(float* p, type v) { *p = v; }
  static type set1(float x) { return x; }
  static type zero() { return 0.f; }
  static type fma(type a, type b, type c) {
#if defined(__FMA__)
    return std::fma(a, b, c);
#else
    return c + a * b;
#endif
  }
  static type add(type a, type b) { return a + b; }
  static type max0(type a) { return a > 0.f ? a : 0.f; }
};

}  // namespace

const MicroKernelTable kScalarKernels = {
    {{micro_kernel<Scalar, 1, 1>, nullptr}, {nullptr, nullptr}}, 1};

const MicroKernelTable& select_micro_kernel() {
  const runtime::SimdLevel level = runtime::active_simd_level();
#if defined(DLB_HAVE_AVX512_BUILD)
  if (level == runtime::SimdLevel::kAvx512F) return kAvx512Kernels;
#endif
#if defined(DLB_HAVE_AVX2_BUILD)
  if (level == runtime::SimdLevel::kAvx2Fma) return kAvx2Kernels;
#endif
  (void)level;
  return kScalarKernels;
}

}  // namespace detail

namespace {

// Row split: column macro-block width, in NR panels. A packed-B block
// of kMacroColPanels panels is revisited by every row panel of a
// thread's chunk before the next block streams in, bounding the B
// working set (K * 512 floats) to L2/L3 instead of the whole matrix.
constexpr std::int64_t kMacroColPanels = 32;

// Column split: the most packed-B bytes one worker packs and holds at a
// time. 1 MiB sits in one core's L2 beside the A panels streaming past.
constexpr std::int64_t kColBlockBytes = std::int64_t{1} << 20;

// Grow-only packing scratch per calling thread: the training loop calls
// GEMM thousands of times from one thread, and serve replicas each get
// their own buffers. A and B are separate so a caller that holds one
// operand pre-packed never grows the other's buffer. Under the column
// split scratch_b holds one block slot per worker.
float* scratch_a(std::int64_t m, std::int64_t k) {
  thread_local std::vector<float> pa;
  const auto need = static_cast<std::size_t>(gemm_row_panels(m) * kGemmMR * k);
  if (pa.size() < need) pa.resize(need);
  return pa.data();
}

float* scratch_b(std::int64_t k, std::int64_t n) {
  thread_local std::vector<float> pb;
  const auto need = static_cast<std::size_t>(gemm_col_panels(n) * kGemmNR * k);
  if (pb.size() < need) pb.resize(need);
  return pb.data();
}

void check_dims(std::int64_t m, std::int64_t k, std::int64_t n) {
  DLB_CHECK(m > 0 && k > 0 && n > 0, "gemm_packed: empty dimensions");
}

// What every tile of one GEMM shares. C has row stride `ldc`.
struct TileJob {
  const float* pa;  // packed A, all row panels
  float* c;
  std::int64_t ldc, m, k, n;
  GemmEpilogue epilogue;
  const float* bias;
};

// `full` bias entries starting at `src`, of which the first `live` are
// real: `src` itself when all are, else a copy zero-padded in `pad`.
const float* padded_bias(const float* src, std::int64_t live,
                         std::int64_t full, float* pad) {
  if (live == full) return src;
  std::copy(src, src + live, pad);
  std::fill(pad + live, pad + full, 0.f);
  return pad;
}

// Computes every C tile in row panels [mp_lo, mp_hi) x column panels
// [np0, np1). `pb` holds packed panels np0..np1-1 back to back. Each
// step takes up to `span` row panels and up to `span` column panels and
// runs the kernel of exactly that shape, so an edge (a lone last row
// or column panel, or one with few live rows or columns) stays on a
// wide kernel. A tile with dead rows or columns runs into the 12 x 32
// `stage` tile, which kAccumulate first fills with the live part of C
// (zeros elsewhere), with the bias zero-padded, and only its live
// mr x nr part is copied out. Each C element is one micro-kernel chain
// over the whole K, whichever kernel, worker and split runs it (see the
// determinism contract in the header); the grouping depends on the
// range bounds, hence on the thread count, but never the bits.
void run_tiles(const TileJob& job, std::int64_t mp_lo, std::int64_t mp_hi,
               std::int64_t np0, std::int64_t np1, const float* pb) {
  constexpr std::int64_t kTileRows = 2 * kGemmMR, kTileCols = 2 * kGemmNR;
  const std::int64_t m = job.m, k = job.k, n = job.n, ldc = job.ldc;
  const GemmEpilogue epilogue = job.epilogue;
  const detail::MicroKernelTable& kernels = detail::select_micro_kernel();
  const bool row_bias = epilogue == GemmEpilogue::kBiasRowInit ||
                        epilogue == GemmEpilogue::kBiasRowRelu;
  const bool col_bias = epilogue == GemmEpilogue::kBiasColAdd ||
                        epilogue == GemmEpilogue::kBiasColRelu;
  float stage[kTileRows * kTileCols];
  float bias_row_pad[kTileRows];
  float bias_col_pad[kTileCols];
  for (std::int64_t mp = mp_lo; mp < mp_hi;) {
    const std::int64_t rows = std::min(kernels.span, mp_hi - mp);
    const std::int64_t m0 = mp * kGemmMR;
    const std::int64_t mr = std::min(rows * kGemmMR, m - m0);
    const float* brow =
        row_bias ? padded_bias(job.bias + m0, mr, rows * kGemmMR, bias_row_pad)
                 : nullptr;
    for (std::int64_t np = np0; np < np1;) {
      const std::int64_t cols = std::min(kernels.span, np1 - np);
      const std::int64_t n0 = np * kGemmNR;
      const std::int64_t nr = std::min(cols * kGemmNR, n - n0);
      const float* bcol = col_bias ? padded_bias(job.bias + n0, nr,
                                                 cols * kGemmNR, bias_col_pad)
                                   : nullptr;
      const detail::MicroKernelFn kernel = kernels.kernel[rows - 1][cols - 1];
      const float* a_panels = job.pa + mp * k * kGemmMR;
      const float* b_panels = pb + (np - np0) * k * kGemmNR;
      float* ct = job.c + m0 * ldc + n0;
      if (mr == rows * kGemmMR && nr == cols * kGemmNR) {
        kernel(a_panels, b_panels, k, ct, ldc, epilogue, brow, bcol);
      } else {
        const auto live_bytes = static_cast<std::size_t>(nr) * sizeof(float);
        if (epilogue == GemmEpilogue::kAccumulate) {
          std::fill(stage, stage + kTileRows * kTileCols, 0.f);
          for (std::int64_t r = 0; r < mr; ++r)
            std::memcpy(stage + r * kTileCols, ct + r * ldc, live_bytes);
        }
        kernel(a_panels, b_panels, k, stage, kTileCols, epilogue, brow, bcol);
        for (std::int64_t r = 0; r < mr; ++r)
          std::memcpy(ct + r * ldc, stage + r * kTileCols, live_bytes);
      }
      np += cols;
    }
    mp += rows;
  }
}

// Row split over already-packed panels, shared by every entry point:
// workers split the row panels of C, and each runs its rows against
// one kMacroColPanels block of the shared packed B after another. No
// trace span here: every caller (matmul*, conv2d_*, the frozen fc op)
// already opens a kernel-category span, and a nested one would
// double-count the category total (see
// TraceTest.KernelSpansRecordedFromMatmul).
void gemm_rows(const TileJob& job, const float* pb, const Device& dev) {
  const std::int64_t n_np = gemm_col_panels(job.n);
  dev.parallel_for(
      static_cast<std::size_t>(gemm_row_panels(job.m)),
      [&](std::size_t lo, std::size_t hi) {
        for (std::int64_t np0 = 0; np0 < n_np; np0 += kMacroColPanels)
          run_tiles(job, static_cast<std::int64_t>(lo),
                    static_cast<std::int64_t>(hi), np0,
                    std::min(n_np, np0 + kMacroColPanels),
                    pb + np0 * job.k * kGemmNR);
      },
      1);
}

// Column split: the column panels of C are cut into blocks of whole
// panel pairs, at most kColBlockBytes of packed B each, and each worker
// takes a contiguous run of blocks. The block count is rounded up to a
// multiple of the worker count so the workers get equal shares of
// columns. A worker packs one block at a time into its own slot of the
// calling thread's B scratch and runs every row panel of the shared
// packed A against it, so no worker reads B panels another packed.
void gemm_cols(const TileJob& job, const float* b, std::int64_t b_rs,
               std::int64_t b_cs, const Device& dev) {
  const std::int64_t n_np = gemm_col_panels(job.n);
  const std::int64_t n_mp = gemm_row_panels(job.m);
  const std::int64_t pairs = (n_np + 1) / 2;
  const std::int64_t pair_bytes =
      2 * job.k * kGemmNR * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t max_pairs =
      std::max<std::int64_t>(1, kColBlockBytes / pair_bytes);
  const auto workers = static_cast<std::int64_t>(dev.workers());
  std::int64_t blocks = (pairs + max_pairs - 1) / max_pairs;
  blocks = std::min(pairs, (blocks + workers - 1) / workers * workers);
  const std::int64_t slot_cols = 2 * ((pairs + blocks - 1) / blocks) * kGemmNR;
  float* slots = scratch_b(job.k, workers * slot_cols);
  dev.parallel_for(
      static_cast<std::size_t>(workers),
      [&](std::size_t lo, std::size_t hi) {
        for (auto w = static_cast<std::int64_t>(lo);
             w < static_cast<std::int64_t>(hi); ++w) {
          float* pb = slots + w * slot_cols * job.k;
          for (std::int64_t blk = w * blocks / workers;
               blk < (w + 1) * blocks / workers; ++blk) {
            const std::int64_t np0 = std::min(n_np, 2 * (blk * pairs / blocks));
            const std::int64_t np1 =
                std::min(n_np, 2 * ((blk + 1) * pairs / blocks));
            pack_b_panel_range(b, b_rs, b_cs, job.k, job.n, np0, np1, pb);
            run_tiles(job, 0, n_mp, np0, np1, pb);
          }
        }
      },
      1);
}

}  // namespace

bool gemm_splits_columns(std::int64_t m, std::int64_t k, std::int64_t n) {
  const std::int64_t b_cols = gemm_col_panels(n) * kGemmNR;
  return b_cols > gemm_row_panels(m) * kGemmMR &&
         b_cols * k * static_cast<std::int64_t>(sizeof(float)) >
             kColBlockBytes;
}

void gemm_packed(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                 const float* b, std::int64_t b_rs, std::int64_t b_cs,
                 float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                 GemmEpilogue epilogue, const float* bias,
                 const Device& dev) {
  check_dims(m, k, n);
  float* pa = scratch_a(m, k);
  pack_a_panels(a, a_rs, a_cs, m, k, pa, dev);
  const TileJob job{pa, c, n, m, k, n, epilogue, bias};
  if (gemm_splits_columns(m, k, n)) {
    gemm_cols(job, b, b_rs, b_cs, dev);
    return;
  }
  float* pb = scratch_b(k, n);
  pack_b_panels(b, b_rs, b_cs, k, n, pb, dev);
  gemm_rows(job, pb, dev);
}

void gemm_prepacked_b(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                      const float* b_panels, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n, GemmEpilogue epilogue,
                      const float* bias, const Device& dev) {
  check_dims(m, k, n);
  float* pa = scratch_a(m, k);
  pack_a_panels(a, a_rs, a_cs, m, k, pa, dev);
  gemm_rows({pa, c, n, m, k, n, epilogue, bias}, b_panels, dev);
}

void gemm_prepacked(const float* a_panels, const float* b_panels, float* c,
                    std::int64_t ldc, std::int64_t m, std::int64_t k,
                    std::int64_t n, GemmEpilogue epilogue, const float* bias,
                    const Device& dev) {
  check_dims(m, k, n);
  DLB_CHECK(ldc >= n, "gemm_prepacked: ldc " << ldc << " < n " << n);
  gemm_rows({a_panels, c, ldc, m, k, n, epilogue, bias}, b_panels, dev);
}

}  // namespace dlbench::tensor
