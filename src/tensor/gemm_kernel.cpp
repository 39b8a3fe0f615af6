#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/pack.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace detail {

void micro_kernel_scalar(const float* a_panel, const float* b_panel,
                         std::int64_t k, float* out, std::int64_t ldo,
                         GemmEpilogue epilogue, const float* bias_row,
                         const float* bias_col) {
  float acc[kGemmMR][kGemmNR];
  if (epilogue == GemmEpilogue::kBiasRowInit ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      for (std::int64_t j = 0; j < kGemmNR; ++j) acc[r][j] = bias_row[r];
  } else if (epilogue == GemmEpilogue::kAccumulate) {
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      std::memcpy(acc[r], out + r * ldo,
                  static_cast<std::size_t>(kGemmNR) * sizeof(float));
  } else {
    std::memset(acc, 0, sizeof(acc));
  }
  // Fully unrolled r/j loops over a local copy of the B row: GCC then
  // keeps all MR*NR accumulators in registers instead of spilling and
  // reloading the array every k step, which ran 20-40x slower. Same
  // arithmetic, same order, same bits. On an FMA target the step is an
  // explicit std::fma (one vfmadd), not left to contraction: an
  // instrumented sanitizer build contracts only some of the unrolled
  // steps.
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* a = a_panel + kk * kGemmMR;
    float b[kGemmNR];
    std::memcpy(b, b_panel + kk * kGemmNR, sizeof(b));
#pragma GCC unroll 6
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      const float av = a[r];
#pragma GCC unroll 16
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
#if defined(__FMA__)
        acc[r][j] = std::fma(av, b[j], acc[r][j]);
#else
        acc[r][j] += av * b[j];
#endif
      }
    }
  }
  if (epilogue == GemmEpilogue::kBiasColAdd ||
      epilogue == GemmEpilogue::kBiasColRelu) {
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      for (std::int64_t j = 0; j < kGemmNR; ++j) acc[r][j] += bias_col[j];
  }
  if (epilogue == GemmEpilogue::kBiasColRelu ||
      epilogue == GemmEpilogue::kBiasRowRelu) {
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      for (std::int64_t j = 0; j < kGemmNR; ++j)
        acc[r][j] = acc[r][j] > 0.f ? acc[r][j] : 0.f;
  }
  for (std::int64_t r = 0; r < kGemmMR; ++r)
    std::memcpy(out + r * ldo, acc[r],
                static_cast<std::size_t>(kGemmNR) * sizeof(float));
}

namespace {

// The single-panel kernel for the active tier, plus (when the tier has
// them) wider kernels the driver prefers for full interior tiles. They
// are pure throughput optimizations — bitwise identical to the
// equivalent single-panel calls.
struct SelectedKernels {
  MicroKernelFn single;
  MicroKernelFn x2;    // MR x 2*NR; nullptr when the tier has none
  MicroKernelFn quad;  // 2*MR x 2*NR; nullptr when the tier has none
};

SelectedKernels select_micro_kernel() {
  const runtime::SimdLevel level = runtime::active_simd_level();
#if defined(DLB_HAVE_AVX512_BUILD)
  if (level == runtime::SimdLevel::kAvx512F)
    return {micro_kernel_avx512, micro_kernel_avx512_x2,
            micro_kernel_avx512_2x2};
#endif
#if defined(DLB_HAVE_AVX2_BUILD)
  if (level == runtime::SimdLevel::kAvx2Fma)
    return {micro_kernel_avx2fma, nullptr, nullptr};
#endif
  (void)level;
  return {micro_kernel_scalar, nullptr, nullptr};
}

}  // namespace
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

// Computes every C tile in row panels [mp_lo, mp_hi) x column panels
// [np0, np1). `pb` holds packed panels np0..np1-1 back to back. Each
// tile is one micro-kernel chain over the whole K, whichever worker
// and whichever split runs it (see the determinism contract in the
// header).
void run_tiles(const TileJob& job, std::int64_t mp_lo, std::int64_t mp_hi,
               std::int64_t np0, std::int64_t np1, const float* pb) {
  const std::int64_t m = job.m, k = job.k, n = job.n, ldc = job.ldc;
  const GemmEpilogue epilogue = job.epilogue;
  const float* bias = job.bias;
  const detail::SelectedKernels kernels = detail::select_micro_kernel();
  const detail::MicroKernelFn micro = kernels.single;
  const detail::MicroKernelFn micro_x2 = kernels.x2;
  const detail::MicroKernelFn micro_2x2 = kernels.quad;
  const bool row_bias = epilogue == GemmEpilogue::kBiasRowInit ||
                        epilogue == GemmEpilogue::kBiasRowRelu;
  const bool col_bias = epilogue == GemmEpilogue::kBiasColAdd ||
                        epilogue == GemmEpilogue::kBiasColRelu;
  const bool accumulate = epilogue == GemmEpilogue::kAccumulate;
  auto b_panel = [&](std::int64_t np) { return pb + (np - np0) * k * kGemmNR; };

  float tmp[kGemmMR * kGemmNR];
  float bias_row_pad[kGemmMR];
  float bias_col_pad[kGemmNR];
  // Row bias for the MR rows from m0: straight from `bias` on a full
  // panel, zero-padded on the edge panel.
  auto row_bias_at = [&](std::int64_t m0) -> const float* {
    if (!row_bias) return nullptr;
    if (m0 + kGemmMR <= m) return bias + m0;
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      bias_row_pad[r] = m0 + r < m ? bias[m0 + r] : 0.f;
    return bias_row_pad;
  };
  // One 6x16 tile at (m0, panel np). Full tiles run in place; edge
  // tiles run in `tmp`, which kAccumulate first fills with the live
  // part of C (zeros elsewhere), and copy out only the live mr x nr
  // region.
  auto single_tile = [&](const float* a_panel, std::int64_t m0,
                         std::int64_t np, const float* brow) {
    const std::int64_t n0 = np * kGemmNR;
    const std::int64_t mr = std::min(kGemmMR, m - m0);
    const std::int64_t nr = std::min(kGemmNR, n - n0);
    const float* bcol = nullptr;
    if (col_bias) {
      if (nr == kGemmNR) {
        bcol = bias + n0;
      } else {
        for (std::int64_t j = 0; j < kGemmNR; ++j)
          bias_col_pad[j] = j < nr ? bias[n0 + j] : 0.f;
        bcol = bias_col_pad;
      }
    }
    float* ct = job.c + m0 * ldc + n0;
    if (mr == kGemmMR && nr == kGemmNR) {
      micro(a_panel, b_panel(np), k, ct, ldc, epilogue, brow, bcol);
      return;
    }
    if (accumulate) {
      std::fill(tmp, tmp + kGemmMR * kGemmNR, 0.f);
      for (std::int64_t r = 0; r < mr; ++r)
        std::memcpy(tmp + r * kGemmNR, ct + r * ldc,
                    static_cast<std::size_t>(nr) * sizeof(float));
    }
    micro(a_panel, b_panel(np), k, tmp, kGemmNR, epilogue, brow, bcol);
    for (std::int64_t r = 0; r < mr; ++r)
      std::memcpy(ct + r * ldc, tmp + r * kGemmNR,
                  static_cast<std::size_t>(nr) * sizeof(float));
  };
  for (std::int64_t mp = mp_lo; mp < mp_hi;) {
    const std::int64_t m0 = mp * kGemmMR;
    const float* a_panel = job.pa + mp * k * kGemmMR;
    // Full interior pair of row panels: the quad kernel (when the tier
    // has one) covers both against each streamed-in B panel pair,
    // halving packed-B re-reads. Like column pairing, this only
    // regroups whole tiles — per-element accumulation chains are
    // untouched — so it is bitwise neutral, even though chunk
    // boundaries make the pairing itself depend on the thread count.
    if (micro_2x2 != nullptr && mp + 2 <= mp_hi && m0 + 2 * kGemmMR <= m) {
      const float* brow2 = row_bias ? bias + m0 : nullptr;
      std::int64_t np = np0;
      for (; np + 2 <= np1 && (np + 2) * kGemmNR <= n; np += 2) {
        micro_2x2(a_panel, b_panel(np), k, job.c + m0 * ldc + np * kGemmNR,
                  ldc, epilogue, brow2,
                  col_bias ? bias + np * kGemmNR : nullptr);
      }
      // Leftover column panel (or edge): one single-panel call per row
      // panel.
      for (; np < np1; ++np) {
        single_tile(a_panel, m0, np, brow2);
        single_tile(a_panel + k * kGemmMR, m0 + kGemmMR, np,
                    row_bias ? bias + m0 + kGemmMR : nullptr);
      }
      mp += 2;
      continue;
    }
    const float* brow = row_bias_at(m0);
    const bool full_rows = m0 + kGemmMR <= m;
    for (std::int64_t np = np0; np < np1;) {
      const std::int64_t n0 = np * kGemmNR;
      // Full interior pair of column panels: take the double-panel
      // kernel when the tier has one. Bitwise identical to two
      // single-panel calls (see the x2 declaration in gemm_kernel.hpp),
      // so pairing — which shifts with the block edge but never with
      // the thread count — does not affect determinism.
      if (micro_x2 != nullptr && full_rows && np + 2 <= np1 &&
          n0 + 2 * kGemmNR <= n) {
        micro_x2(a_panel, b_panel(np), k, job.c + m0 * ldc + n0, ldc,
                 epilogue, brow, col_bias ? bias + n0 : nullptr);
        np += 2;
        continue;
      }
      single_tile(a_panel, m0, np, brow);
      ++np;
    }
    ++mp;
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
