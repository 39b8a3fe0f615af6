#include "tensor/conv.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "runtime/trace.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/pack.hpp"
#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace {

std::int64_t padded_h(const ConvGeom& g) { return g.in_h + 2 * g.pad; }
std::int64_t padded_w(const ConvGeom& g) { return g.in_w + 2 * g.pad; }
std::int64_t padded_floats(const ConvGeom& g) {
  return g.in_c * padded_h(g) * padded_w(g);
}

// `len` consecutive panel lanes from `lane` whose sources start at
// `offset` in the padded image.
struct Run {
  std::int64_t lane, len, offset;
};

// dw_panels moves every run as one fixed-width copy of kWideRun floats.
constexpr std::int64_t kWideRun = 8;

// Copies `len` (1..kGemmNR) floats with at most two fixed-width,
// possibly overlapping vector moves; touches nothing outside
// [src, src + len) and [dst, dst + len).
inline void copy_run(float* dst, const float* src, std::int64_t len) {
  constexpr std::size_t f = sizeof(float);
  if (len == kGemmNR) {
    std::memcpy(dst, src, kGemmNR * f);
  } else if (len >= 8) {
    std::memcpy(dst, src, 8 * f);
    std::memcpy(dst + len - 8, src + len - 8, 8 * f);
  } else if (len >= 4) {
    std::memcpy(dst, src, 4 * f);
    std::memcpy(dst + len - 4, src + len - 4, 4 * f);
  } else {
    for (std::int64_t t = 0; t < len; ++t) dst[t] = src[t];
  }
}

}  // namespace

namespace detail {

std::int64_t padded_image_floats(const ConvGeom& g) {
  return padded_floats(g) + kGemmNR;
}

std::int64_t dw_panel_floats(const ConvGeom& g, std::int64_t p0,
                             std::int64_t p1) {
  return gemm_col_panels(p1 - p0) * kGemmNR * g.out_h() * g.out_w() +
         kWideRun;
}

void pad_image(const float* image, const ConvGeom& g, float* dst) {
  const std::int64_t ph = padded_h(g), pw = padded_w(g);
  std::fill(dst, dst + padded_image_floats(g), 0.f);
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t y = 0; y < g.in_h; ++y)
      std::memcpy(dst + (c * ph + y + g.pad) * pw + g.pad,
                  image + (c * g.in_h + y) * g.in_w,
                  static_cast<std::size_t>(g.in_w) * sizeof(float));
}

void fwd_panels(const float* padded, const ConvGeom& g, std::int64_t q0,
                std::int64_t q1, float* panels) {
  const std::int64_t ow = g.out_w(), ohw = g.out_h() * ow;
  const std::int64_t ph = padded_h(g), pw = padded_w(g), s = g.stride;
  float* out = panels;
  for (std::int64_t q = q0; q < q1; ++q) {
    // The panel's positions as runs along output rows: at most a few
    // for any width, one when the row holds whole panels.
    const std::int64_t pos0 = q * kGemmNR;
    const std::int64_t lanes = std::min(kGemmNR, ohw - pos0);
    Run runs[kGemmNR] = {};
    std::int64_t n_runs = 0;
    for (std::int64_t l = 0; l < lanes;) {
      const std::int64_t y = (pos0 + l) / ow, x = (pos0 + l) % ow;
      const std::int64_t len = std::min(ow - x, lanes - l);
      runs[n_runs++] = {l, len, y * s * pw + x * s};
      l += len;
    }
    for (std::int64_t c = 0; c < g.in_c; ++c) {
      for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < g.kernel; ++kx, out += kGemmNR) {
          const float* tap = padded + (c * ph + ky) * pw + kx;
          for (std::int64_t r = 0; r < n_runs; ++r) {
            const Run& run = runs[r];
            if (s == 1 && r == 0 && n_runs > 1) {
              // A whole row from lane 0; the later runs overwrite the
              // lanes past this one.
              std::memcpy(out, tap + run.offset, kGemmNR * sizeof(float));
            } else if (s == 1) {
              copy_run(out + run.lane, tap + run.offset, run.len);
            } else {
              for (std::int64_t t = 0; t < run.len; ++t)
                out[run.lane + t] = tap[run.offset + t * s];
            }
          }
          if (lanes < kGemmNR) std::fill(out + lanes, out + kGemmNR, 0.f);
        }
      }
    }
  }
}

void dw_panels(const float* padded, const ConvGeom& g, std::int64_t p0,
               std::int64_t p1, float* panels) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ph = padded_h(g), pw = padded_w(g), s = g.stride;
  const std::int64_t kk = g.kernel * g.kernel;
  float* out = panels;
  for (std::int64_t q0 = p0; q0 < p1; q0 += kGemmNR) {
    // The panel's patch rows as runs of at most kWideRun consecutive
    // kx: each run reads consecutive floats of one padded image row,
    // whatever the stride.
    const std::int64_t lanes = std::min(kGemmNR, p1 - q0);
    Run runs[kGemmNR] = {};
    std::int64_t n_runs = 0;
    for (std::int64_t l = 0; l < lanes;) {
      const std::int64_t p = q0 + l;
      const std::int64_t c = p / kk, ky = p / g.kernel % g.kernel,
                         kx = p % g.kernel;
      const std::int64_t len =
          std::min({g.kernel - kx, lanes - l, kWideRun});
      runs[n_runs++] = {l, len, (c * ph + ky) * pw + kx};
      l += len;
    }
    // Each run moves as one kWideRun-float copy; the floats past it land
    // on lanes that a later run, the next position's row or the zero
    // fill rewrites (or on the dw_panel_floats overhang).
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x, out += kGemmNR) {
        const float* window = padded + y * s * pw + x * s;
        for (std::int64_t r = 0; r < n_runs; ++r)
          std::memcpy(out + runs[r].lane, window + runs[r].offset,
                      kWideRun * sizeof(float));
        if (lanes < kGemmNR) std::fill(out + lanes, out + kGemmNR, 0.f);
      }
    }
  }
}

}  // namespace detail

namespace {

// Grow-only per-thread staging for the conv buffers. A pool worker runs
// one chunk at a time and the pool is never re-entered, so the named
// buffers of one thread are never live twice concurrently.
enum WorkerBuf {
  kPadded = 0,   // the padded input image (pad_image)
  kPanels = 1,   // forward or dW B panels unfolded from it
  kDyA = 2,      // dy rows packed as the dW GEMM's A operand
  kDyB = 3,      // dy packed as the dx GEMM's B operand
  kDColumns = 4, // one block of dx GEMM rows (dx_block_rows)
  kDxPadded = 5, // the padded dx accumulator
  kWorkerBufs = 6
};

float* worker_scratch(WorkerBuf which, std::int64_t floats) {
  thread_local std::vector<float> bufs[kWorkerBufs];
  auto& v = bufs[which];
  if (v.size() < static_cast<std::size_t>(floats))
    v.resize(static_cast<std::size_t>(floats));
  return v.data();
}

// The staging of one conv call. On the owner thread every buffer is a
// Tensor allocated up front, in a fixed order, so an active execution
// plan folds it into the step arena (DESIGN.md §15). Pool workers
// cannot use the arena (it is owner-thread-scoped and offset replay is
// sequential); they take the grow-only thread-local scratch instead,
// which keeps them allocation-free in steady state.
class Staging {
 public:
  explicit Staging(bool owner_thread) : owner_(owner_thread) {}

  // uninit: every buffer is written before it is read — pad_image
  // fills its whole buffer, the panel writers and packs write every lane
  // they hand on, sample_dx zeroes its accumulator.
  void need(WorkerBuf which, std::int64_t floats) {
    floats_[which] = floats;
    if (owner_ && floats > 0) owned_[which] = Tensor::uninit(Shape({floats}));
  }

  float* get(WorkerBuf which) {
    return owner_ ? owned_[which].raw() : worker_scratch(which, floats_[which]);
  }

 private:
  bool owner_;
  std::int64_t floats_[kWorkerBufs] = {};
  Tensor owned_[kWorkerBufs];
};

void check_conv_args(const Tensor& x, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& g) {
  DLB_CHECK(x.shape().rank() == 4, "conv input must be [N, C, H, W]");
  DLB_CHECK(x.dim(1) == g.in_c && x.dim(2) == g.in_h && x.dim(3) == g.in_w,
            "conv input " << x.shape().to_string()
                          << " does not match geometry");
  DLB_CHECK(weight.shape().rank() == 2 && weight.dim(0) == g.out_c &&
                weight.dim(1) == g.patch_size(),
            "conv weight must be [out_c, in_c*k*k], got "
                << weight.shape().to_string());
  DLB_CHECK(bias.shape().rank() == 1 && bias.dim(0) == g.out_c,
            "conv bias must be [out_c]");
  DLB_CHECK(g.out_h() > 0 && g.out_w() > 0,
            "conv output is empty for input " << g.in_h << "x" << g.in_w);
}

// Wᵀ packed as the A operand of every sample's dx GEMM, once, on the
// owner thread (arena-backed under a plan); workers only read it.
Tensor pack_weight_t(const Tensor& weight, const ConvGeom& g,
                     const Device& dev) {
  const std::int64_t patch = g.patch_size();
  Tensor wt_panels =
      Tensor::uninit(Shape({gemm_row_panels(patch) * g.out_c * kGemmMR}));
  pack_a_panels(weight.raw(), 1, patch, patch, g.out_c, wt_panels.raw(), dev);
  return wt_panels;
}

// Patch rows per dx GEMM block: whole MR panels, about 64 KB of
// dcolumns, which col2im folds while it is still in cache.
std::int64_t dx_block_rows(const ConvGeom& g) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t rows =
      std::max<std::int64_t>(1, 16384 / ohw / kGemmMR) * kGemmMR;
  return std::min(rows, gemm_row_panels(g.patch_size()) * kGemmMR);
}

// Adds dcolumns rows [p0, p1) (row p at rows + (p - p0) * ohw) into the
// padded accumulator: row (c, ky, kx), position (y, x) lands on padded
// (c, y*stride + ky, x*stride + kx). Every window lies inside the
// padded image, so each row is out_h fixed-length adds with no bounds
// test, and rows taken in ascending p keep every element's additions
// in the (c, ky, kx, y, x) order of a per-element loop.
void col2im_rows(const float* rows, const ConvGeom& g, std::int64_t p0,
                 std::int64_t p1, float* padded) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ph = padded_h(g), pw = padded_w(g), s = g.stride;
  const std::int64_t kk = g.kernel * g.kernel;
  for (std::int64_t p = p0; p < p1; ++p) {
    const std::int64_t c = p / kk, ky = p / g.kernel % g.kernel,
                       kx = p % g.kernel;
    float* tap = padded + (c * ph + ky) * pw + kx;
    const float* src = rows + (p - p0) * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y, src += ow) {
      float* dst = tap + y * s * pw;
      if (s == 1) {
        for (std::int64_t x = 0; x < ow; ++x) dst[x] += src[x];
      } else {
        for (std::int64_t x = 0; x < ow; ++x) dst[x * s] += src[x];
      }
    }
  }
}

// One sample's input gradient, shared by both backward entry points so
// their dx bits agree. dy_i is packed once as B; then, one block of
// patch rows at a time, dcolumns = Wᵀ · dy_i on the packed kernel
// (serial inside a batch chunk — the pool is never re-entered) and
// col2im_rows folds the block into the zeroed padded accumulator, which
// is cropped into the sample's dx region (fully overwritten).
void sample_dx(const float* wt_packed, const float* dyo, const ConvGeom& g,
               Staging& staging, float* dx) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  const std::int64_t patch = g.patch_size();
  const std::int64_t block = dx_block_rows(g);
  const Device serial = Device::cpu();
  float* dy_panels = staging.get(kDyB);
  float* dcolumns = staging.get(kDColumns);
  float* acc = staging.get(kDxPadded);
  pack_b_panels(dyo, ohw, 1, g.out_c, ohw, dy_panels, serial);
  std::fill(acc, acc + padded_floats(g), 0.f);
  for (std::int64_t r0 = 0; r0 < patch; r0 += block) {
    const std::int64_t r1 = std::min(patch, r0 + block);
    gemm_prepacked(wt_packed + r0 * g.out_c, dy_panels, dcolumns, ohw,
                   r1 - r0, g.out_c, ohw, GemmEpilogue::kNone, nullptr,
                   serial);
    col2im_rows(dcolumns, g, r0, r1, acc);
  }
  const std::int64_t pw = padded_w(g);
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t y = 0; y < g.in_h; ++y)
      std::memcpy(dx + (c * g.in_h + y) * g.in_w,
                  acc + (c * padded_h(g) + y + g.pad) * pw + g.pad,
                  static_cast<std::size_t>(g.in_w) * sizeof(float));
}

// Declares sample_dx's staging.
void need_dx_staging(const ConvGeom& g, Staging& staging) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  staging.need(kDyB, gemm_col_panels(ohw) * kGemmNR * g.out_c);
  staging.need(kDColumns, dx_block_rows(g) * ohw);
  staging.need(kDxPadded, padded_floats(g));
}

}  // namespace

Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const ConvGeom& g,
                      const Device& dev, bool fuse_relu) {
  runtime::trace::Span span("conv2d_fwd", "kernel");
  check_conv_args(x, weight, bias, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  const std::int64_t panels = gemm_col_panels(ohw);
  // uninit: the GEMM writes every element of each sample's region.
  Tensor y = Tensor::uninit(Shape({n, g.out_c, oh, ow}));

  const float* px = x.raw();
  const float* pb = bias.raw();
  float* py = y.raw();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * ohw;

  // Each sample is the GEMM W [out_c, patch] x B [patch, ohw] with the
  // per-channel bias applied in the kBiasRowInit epilogue (accumulators
  // start at bias[oc]). With fuse_relu the epilogue is kBiasRowRelu:
  // max(0, ·) on the finished accumulator, bitwise identical to a
  // separate relu() pass.
  const GemmEpilogue epi =
      fuse_relu ? GemmEpilogue::kBiasRowRelu : GemmEpilogue::kBiasRowInit;
  // W is the A operand of every sample's GEMM: pack it once, on the
  // owner thread (arena-backed under a plan); workers only read it.
  Tensor w_panels =
      Tensor::uninit(Shape({gemm_row_panels(g.out_c) * patch * kGemmMR}));
  pack_a_panels(weight.raw(), patch, 1, g.out_c, patch, w_panels.raw(), dev);
  const float* pw_packed = w_panels.raw();

  // Batch-level parallelism, each sample's GEMM serial inside its chunk
  // (the pool must not be re-entered from a worker); on the serial
  // device the one chunk runs inline on the owner thread. Tiny batches
  // on the parallel device instead split each sample's panel writes
  // and GEMM across the workers (how GPU conv kernels keep SMs busy at
  // batch size 1, e.g. Torch's CIFAR-10 default), staging on the owner
  // thread.
  const bool inline_exec = !dev.is_parallel();
  const bool per_sample = n >= 4 || inline_exec;
  Staging staging(inline_exec || !per_sample);
  staging.need(kPadded, detail::padded_image_floats(g));
  staging.need(kPanels, panels * patch * kGemmNR);

  // One sample: pad, unfold straight into B panels (positions on the
  // panel lanes, zero lanes past ohw), one GEMM into y_i.
  auto sample = [&](std::int64_t i, const Device& d) {
    float* padded = staging.get(kPadded);
    detail::pad_image(px + i * in_sz, g, padded);
    float* x_panels = staging.get(kPanels);
    d.parallel_for(
        static_cast<std::size_t>(panels),
        [&](std::size_t lo, std::size_t hi) {
          const auto q0 = static_cast<std::int64_t>(lo);
          detail::fwd_panels(padded, g, q0, static_cast<std::int64_t>(hi),
                             x_panels + q0 * patch * kGemmNR);
        },
        4);
    gemm_prepacked(pw_packed, x_panels, py + i * out_sz, ohw, g.out_c, patch,
                   ohw, epi, pb, d);
  };

  if (per_sample) {
    const Device serial = Device::cpu();
    dev.parallel_for(
        static_cast<std::size_t>(n),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i)
            sample(static_cast<std::int64_t>(i), serial);
        },
        1);
  } else {
    for (std::int64_t i = 0; i < n; ++i) sample(i, dev);
  }
  return y;
}

namespace {

// How conv2d_backward splits the dW GEMM [out_c, n*ohw] x [n*ohw, patch]
// across workers: a grid of row-panel blocks (output channels) times
// column-panel blocks (patch rows); each worker owns one block of dW
// tiles for the whole batch. A worker packs only the dy rows and
// patch panels of its own block, so a one-axis split makes every
// worker pack all of the other operand: split first along the axis
// whose duplicated operand is smaller (columns when out_c <= patch),
// then along the other axis with the workers that remain.
struct DwGrid {
  std::int64_t row_blocks = 1, col_blocks = 1;
  std::int64_t tiles() const { return row_blocks * col_blocks; }
};

DwGrid dw_grid(const ConvGeom& g, std::int64_t workers) {
  const std::int64_t rows = gemm_row_panels(g.out_c);
  const std::int64_t cols = gemm_col_panels(g.patch_size());
  DwGrid grid;
  if (g.out_c <= g.patch_size()) {
    grid.col_blocks = std::min(cols, workers);
    grid.row_blocks = std::min(rows, workers / grid.col_blocks);
  } else {
    grid.row_blocks = std::min(rows, workers);
    grid.col_blocks = std::min(cols, workers / grid.row_blocks);
  }
  return grid;
}

// Block b of `blocks` near-equal blocks over `count` panels: [lo, hi).
std::pair<std::int64_t, std::int64_t> block_range(std::int64_t b,
                                                  std::int64_t blocks,
                                                  std::int64_t count) {
  return {b * count / blocks, (b + 1) * count / blocks};
}

// db[oc] for oc in [oc0, oc1) continues its chain over this sample's
// positions in ascending order. Eight channels advance together so
// eight independent add chains hide the add latency; each channel's
// own order is untouched.
void db_chain(const float* dyo, std::int64_t oc0, std::int64_t oc1,
              std::int64_t ohw, float* db) {
  constexpr std::int64_t kLanes = 8;
  std::int64_t oc = oc0;
  for (; oc + kLanes <= oc1; oc += kLanes) {
    float acc[kLanes];
    std::copy(db + oc, db + oc + kLanes, acc);
    const float* rows = dyo + oc * ohw;
    for (std::int64_t j = 0; j < ohw; ++j)
      for (std::int64_t r = 0; r < kLanes; ++r) acc[r] += rows[r * ohw + j];
    std::copy(acc, acc + kLanes, db + oc);
  }
  for (; oc < oc1; ++oc) {
    float acc = db[oc];
    for (std::int64_t j = 0; j < ohw; ++j) acc += dyo[oc * ohw + j];
    db[oc] = acc;
  }
}

// conv2d_backward, and with `with_dx` false conv2d_backward_params.
ConvGrads conv_backward(const Tensor& x, const Tensor& weight,
                        const Tensor& dy, const ConvGeom& g,
                        const Device& dev, bool with_dx) {
  runtime::trace::Span span("conv2d_bwd", "kernel");
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  DLB_CHECK(dy.shape() == Shape({n, g.out_c, oh, ow}),
            "conv dy shape " << dy.shape().to_string() << " unexpected");

  // dx: uninit is safe — sample_dx fully overwrites each sample's
  // region. dweight/dbias start at zero, where every chain below starts.
  ConvGrads grads{with_dx ? Tensor::uninit(x.shape()) : Tensor(),
                  Tensor(weight.shape()), Tensor({g.out_c})};
  const float* px = x.raw();
  const float* pdy = dy.raw();
  float* pdx = grads.dx.raw();
  float* gw = grads.dweight.raw();
  float* gb = grads.dbias.raw();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * ohw;

  // dW[oc, p] is one fma chain over k = (sample, position) ascending:
  // the GEMM dy [out_c, n*ohw] x columnsᵀ [n*ohw, patch] run one K block
  // per sample, each block resuming the tile's chain with kAccumulate.
  // A worker owns a block of dW tiles for the whole batch (dw_grid), so
  // no tile is shared and the bits do not depend on the worker count.
  // db is one add chain per channel in the same order. dx is per
  // sample (sample_dx); each task takes a contiguous share of samples.
  const bool inline_exec = !dev.is_parallel();
  const std::int64_t workers =
      inline_exec ? 1 : static_cast<std::int64_t>(dev.workers());
  const DwGrid grid = dw_grid(g, workers);
  const std::int64_t tasks = with_dx ? workers : grid.tiles();
  const std::int64_t max_row_panels =
      (gemm_row_panels(g.out_c) + grid.row_blocks - 1) / grid.row_blocks;
  const std::int64_t max_col_panels =
      (gemm_col_panels(patch) + grid.col_blocks - 1) / grid.col_blocks;

  Staging staging(inline_exec);
  staging.need(kPadded, detail::padded_image_floats(g));
  staging.need(kPanels,
               detail::dw_panel_floats(g, 0, max_col_panels * kGemmNR));
  staging.need(kDyA, max_row_panels * kGemmMR * ohw);
  Tensor wt_panels;
  if (with_dx) {
    need_dx_staging(g, staging);
    wt_panels = pack_weight_t(weight, g, dev);
  }
  const float* pwt_packed = wt_panels.raw();
  const Device serial = Device::cpu();

  dev.parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t lo, std::size_t hi) {
        float* dy_panels = staging.get(kDyA);
        float* col_panels = staging.get(kPanels);
        float* pad_buf = staging.get(kPadded);
        for (std::size_t t = lo; t < hi; ++t) {
          const auto task = static_cast<std::int64_t>(t);
          const bool has_dw = task < grid.tiles();
          const auto [rp0, rp1] = block_range(task / grid.col_blocks,
                                              grid.row_blocks,
                                              gemm_row_panels(g.out_c));
          const auto [cp0, cp1] = block_range(
              task % grid.col_blocks, grid.col_blocks, gemm_col_panels(patch));
          const std::int64_t oc0 = rp0 * kGemmMR;
          const std::int64_t oc1 = std::min(g.out_c, rp1 * kGemmMR);
          const std::int64_t p0 = cp0 * kGemmNR;
          const std::int64_t p1 = std::min(patch, cp1 * kGemmNR);
          const auto [dx0, dx1] =
              with_dx ? block_range(task, tasks, n)
                      : std::pair<std::int64_t, std::int64_t>{0, 0};
          for (std::int64_t i = 0; i < n; ++i) {
            const float* dyo = pdy + i * out_sz;
            if (has_dw) {
              pack_a_panels(dyo + oc0 * ohw, ohw, 1, oc1 - oc0, ohw,
                            dy_panels, serial);
              detail::pad_image(px + i * in_sz, g, pad_buf);
              detail::dw_panels(pad_buf, g, p0, p1, col_panels);
              gemm_prepacked(dy_panels, col_panels, gw + oc0 * patch + p0,
                             patch, oc1 - oc0, ohw, p1 - p0,
                             GemmEpilogue::kAccumulate, nullptr, serial);
              if (cp0 == 0) db_chain(dyo, oc0, oc1, ohw, gb);
            }
            if (i >= dx0 && i < dx1)
              sample_dx(pwt_packed, dyo, g, staging, pdx + i * in_sz);
          }
        }
      },
      1);
  return grads;
}

}  // namespace

ConvGrads conv2d_backward(const Tensor& x, const Tensor& weight,
                          const Tensor& dy, const ConvGeom& g,
                          const Device& dev) {
  return conv_backward(x, weight, dy, g, dev, /*with_dx=*/true);
}

ConvGrads conv2d_backward_params(const Tensor& x, const Tensor& weight,
                                 const Tensor& dy, const ConvGeom& g,
                                 const Device& dev) {
  return conv_backward(x, weight, dy, g, dev, /*with_dx=*/false);
}

Tensor conv2d_backward_dx(const Tensor& weight, const Tensor& dy,
                          const ConvGeom& g, const Device& dev) {
  runtime::trace::Span span("conv2d_bwd_dx", "kernel");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  DLB_CHECK(dy.shape().rank() == 4 && dy.dim(1) == g.out_c &&
                dy.dim(2) == oh && dy.dim(3) == ow,
            "conv dy shape " << dy.shape().to_string() << " unexpected");
  const std::int64_t n = dy.dim(0);
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * oh * ow;
  // uninit: sample_dx fully overwrites each sample's region.
  Tensor dx = Tensor::uninit(Shape({n, g.in_c, g.in_h, g.in_w}));
  const Tensor wt_panels = pack_weight_t(weight, g, dev);
  const float* pwt_packed = wt_panels.raw();
  const float* pdy = dy.raw();
  float* pdx = dx.raw();
  Staging staging(!dev.is_parallel());
  need_dx_staging(g, staging);

  dev.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          sample_dx(pwt_packed, pdy + static_cast<std::int64_t>(i) * out_sz, g,
                    staging, pdx + static_cast<std::int64_t>(i) * in_sz);
      },
      1);
  return dx;
}

}  // namespace dlbench::tensor
