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

// Output columns [lo, hi) whose input column ix = x*stride + kx - pad
// lies inside the image for kernel column kx; lo == hi when none does.
struct XRun {
  std::int64_t lo, hi;
};

XRun valid_x_run(const ConvGeom& g, std::int64_t kx, std::int64_t ow) {
  const std::int64_t shift = g.pad - kx;  // ix = x*stride - shift
  const std::int64_t lo =
      std::min(ow, shift > 0 ? (shift + g.stride - 1) / g.stride : 0);
  const std::int64_t last = g.in_w - 1 + shift;  // largest valid x*stride
  const std::int64_t hi = last < 0 ? 0 : std::min(ow, last / g.stride + 1);
  return {lo, std::max(lo, hi)};
}

// One image with `pad` zeros around every channel plane, into `dst`
// (in_c x (in_h + 2 pad) x (in_w + 2 pad)): every window of the
// geometry then lies inside, and im2col_panels reads without bounds
// checks. With pad 0 the image is used as it is.
const float* pad_image(const float* image, const ConvGeom& g, float* dst) {
  if (g.pad == 0) return image;
  const std::int64_t ph = g.in_h + 2 * g.pad, pw = g.in_w + 2 * g.pad;
  std::fill(dst, dst + g.in_c * ph * pw, 0.f);
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t y = 0; y < g.in_h; ++y)
      std::memcpy(dst + (c * ph + y + g.pad) * pw + g.pad,
                  image + (c * g.in_h + y) * g.in_w,
                  static_cast<std::size_t>(g.in_w) * sizeof(float));
  return dst;
}

// Patch rows [p0, p1) of one padded image (pad_image) written straight
// into packed-B panels (pack.hpp layout, K = out_h*out_w):
// B(j, p) = columns[p, j], the operand of the dW GEMM. Each output
// position fills its 16 panel lanes from 16 precomputed offsets, one
// contiguous 64-byte row per position; lanes past p1 in the last panel
// are zero.
void im2col_panels(const float* padded, const ConvGeom& g, std::int64_t p0,
                   std::int64_t p1, float* panels) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ph = g.in_h + 2 * g.pad, pw = g.in_w + 2 * g.pad;
  for (std::int64_t q0 = p0; q0 < p1; q0 += kGemmNR) {
    const std::int64_t lanes = std::min(kGemmNR, p1 - q0);
    std::int64_t offset[kGemmNR];
    for (std::int64_t l = 0; l < lanes; ++l) {
      const std::int64_t p = q0 + l;  // (c, ky, kx)
      const std::int64_t c = p / (g.kernel * g.kernel);
      offset[l] = (c * ph + p / g.kernel % g.kernel) * pw + p % g.kernel;
    }
    float* out = panels + (q0 - p0) / kGemmNR * oh * ow * kGemmNR;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x, out += kGemmNR) {
        const float* window = padded + y * g.stride * pw + x * g.stride;
        if (lanes == kGemmNR) {
          for (std::int64_t l = 0; l < kGemmNR; ++l) out[l] = window[offset[l]];
        } else {
          for (std::int64_t l = 0; l < lanes; ++l) out[l] = window[offset[l]];
          std::fill(out + lanes, out + kGemmNR, 0.f);
        }
      }
    }
  }
}

}  // namespace

void im2col(const float* image, const ConvGeom& g, float* columns) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  // columns is [in_c * k * k, oh * ow], row-major. Per kernel column the
  // valid output range is hoisted: copy the in-image run, zero the edges.
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        float* out_row = columns + row * ohw;
        const XRun run = valid_x_run(g, kx, ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          float* out = out_row + y * ow;
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h || run.lo == run.hi) {
            std::fill(out, out + ow, 0.f);
            continue;
          }
          const float* in = image + (c * g.in_h + iy) * g.in_w +
                            run.lo * g.stride + kx - g.pad;
          std::fill(out, out + run.lo, 0.f);
          if (g.stride == 1) {
            std::memcpy(out + run.lo, in,
                        static_cast<std::size_t>(run.hi - run.lo) *
                            sizeof(float));
          } else {
            for (std::int64_t x = run.lo; x < run.hi; ++x)
              out[x] = in[(x - run.lo) * g.stride];
          }
          std::fill(out + run.hi, out + ow, 0.f);
        }
      }
    }
  }
}

void col2im(const float* columns, const ConvGeom& g, float* image) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t ohw = oh * ow;
  std::memset(image, 0,
              static_cast<std::size_t>(g.in_c * g.in_h * g.in_w) *
                  sizeof(float));
  // Same (c, ky, kx, y, x) order as a per-element loop, and within a run
  // every x hits a distinct ix, so each image element receives its
  // additions in the same order: the runs do not change the bits.
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
        const std::int64_t row = (c * g.kernel + ky) * g.kernel + kx;
        const float* in_row = columns + row * ohw;
        const XRun run = valid_x_run(g, kx, ow);
        if (run.lo == run.hi) continue;
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t iy = y * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          float* img = image + (c * g.in_h + iy) * g.in_w +
                       run.lo * g.stride + kx - g.pad;
          const float* src = in_row + y * ow + run.lo;
          const std::int64_t len = run.hi - run.lo;
          if (g.stride == 1) {
            for (std::int64_t x = 0; x < len; ++x) img[x] += src[x];
          } else {
            for (std::int64_t x = 0; x < len; ++x) img[x * g.stride] += src[x];
          }
        }
      }
    }
  }
}

namespace {

// Grow-only per-thread staging for the im2col/col2im buffers and the
// dW operands. A pool worker runs one chunk at a time and the pool is
// never re-entered, so the named buffers of one thread are never live
// twice concurrently. On the serial executor path the
// staging is a Tensor instead, so an active execution plan folds it
// into the step arena (DESIGN.md §15); workers cannot use the arena (it
// is owner-thread-scoped and offset replay is sequential), and this
// thread-local reuse is what keeps them allocation-free in steady
// state.
enum WorkerBuf { kColumns = 0, kDColumns = 1, kDyPanels = 2, kPadded = 3 };

float* worker_scratch(WorkerBuf which, std::size_t floats) {
  thread_local std::vector<float> bufs[4];
  auto& v = bufs[which];
  if (v.size() < floats) v.resize(floats);
  return v.data();
}

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

// Wᵀ packed as the A operand of every sample's dcolumns GEMM, once, on
// the owner thread (arena-backed under a plan); workers only read it.
Tensor pack_weight_t(const Tensor& weight, const ConvGeom& g,
                     const Device& dev) {
  const std::int64_t patch = g.patch_size();
  Tensor wt_panels =
      Tensor::uninit(Shape({gemm_row_panels(patch) * g.out_c * kGemmMR}));
  pack_a_panels(weight.raw(), 1, patch, patch, g.out_c, wt_panels.raw(), dev);
  return wt_panels;
}

// One sample's input gradient, shared by both backward entry points so
// their dx bits agree: dcolumns[p, :] = Wᵀ · dy_i on the packed kernel
// (A = Wᵀ (1, patch), B = dy_i (ohw, 1), serial inside a batch chunk —
// the pool is never re-entered), then col2im, which fully overwrites
// the sample's dx region.
void sample_dx(const float* wt_packed, const float* dyo, const ConvGeom& g,
               float* dcolumns, float* dx) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  gemm_prepacked_a(wt_packed, dyo, ohw, 1, dcolumns, g.patch_size(), g.out_c,
                   ohw, GemmEpilogue::kNone, nullptr, Device::cpu());
  col2im(dcolumns, g, dx);
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
  // uninit: the GEMM writes every element of each sample's region.
  Tensor y = Tensor::uninit(Shape({n, g.out_c, oh, ow}));

  const float* px = x.raw();
  const float* pw = weight.raw();
  const float* pb = bias.raw();
  float* py = y.raw();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * ohw;

  // The unfolded sample is a [out_c, patch] x [patch, ohw] GEMM with
  // the per-channel bias applied in the kBiasRowInit epilogue
  // (accumulators start at bias[oc]). With fuse_relu the epilogue is
  // kBiasRowRelu: max(0, ·) on the finished accumulator, bitwise
  // identical to a separate relu() pass.
  const GemmEpilogue epi =
      fuse_relu ? GemmEpilogue::kBiasRowRelu : GemmEpilogue::kBiasRowInit;
  const Device serial = Device::cpu();
  // W is the A operand of every sample's GEMM: pack it once, on the
  // owner thread (arena-backed under a plan); workers only read it.
  Tensor w_panels =
      Tensor::uninit(Shape({gemm_row_panels(g.out_c) * patch * kGemmMR}));
  pack_a_panels(pw, patch, 1, g.out_c, patch, w_panels.raw(), dev);
  const float* pw_packed = w_panels.raw();

  const std::size_t col_floats = static_cast<std::size_t>(patch * ohw);
  const bool inline_exec = !dev.is_parallel();

  if (n >= 4 || inline_exec) {
    // Batch-level parallelism; each sample's GEMM runs serially inside
    // its chunk (the pool must not be re-entered from a worker). On
    // the serial device the "chunk" runs inline on the owner thread,
    // where the staging tensor is arena-backed under a plan.
    Tensor owner_cols;
    if (inline_exec) owner_cols = Tensor::uninit(Shape({patch * ohw}));
    dev.parallel_for(
        static_cast<std::size_t>(n),
        [&](std::size_t lo, std::size_t hi) {
          float* columns = inline_exec
                               ? owner_cols.raw()
                               : worker_scratch(kColumns, col_floats);
          for (std::size_t i = lo; i < hi; ++i) {
            im2col(px + static_cast<std::int64_t>(i) * in_sz, g, columns);
            gemm_prepacked_a(pw_packed, columns, ohw, 1,
                             py + static_cast<std::int64_t>(i) * out_sz,
                             g.out_c, patch, ohw, epi, pb, serial);
          }
        },
        1);
    return y;
  }

  // Tiny batches on the parallel device: unfold serially, split the
  // GEMM across output channels (how GPU conv kernels keep SMs busy at
  // batch size 1, e.g. Torch's CIFAR-10 default): the GEMM threads over
  // output-channel macro-tiles. The unfold buffer lives on the owner
  // thread: arena-backed under a plan.
  Tensor owner_cols = Tensor::uninit(Shape({patch * ohw}));
  float* columns = owner_cols.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    im2col(px + i * in_sz, g, columns);
    gemm_prepacked_a(pw_packed, columns, ohw, 1, py + i * out_sz, g.out_c,
                     patch, ohw, epi, pb, dev);
  }
  return y;
}

namespace {

// How conv2d_backward splits the dW GEMM [out_c, n*ohw] x [n*ohw, patch]
// across workers: a grid of row-panel blocks (output channels) times
// column-panel blocks (patch rows); each worker owns one block of dW
// tiles for the whole batch. A worker packs only the dy rows and
// im2col panels of its own block, so a one-axis split makes every
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

}  // namespace

ConvGrads conv2d_backward(const Tensor& x, const Tensor& weight,
                          const Tensor& dy, const ConvGeom& g,
                          const Device& dev) {
  runtime::trace::Span span("conv2d_bwd", "kernel");
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w(), ohw = oh * ow;
  const std::int64_t patch = g.patch_size();
  DLB_CHECK(dy.shape() == Shape({n, g.out_c, oh, ow}),
            "conv dy shape " << dy.shape().to_string() << " unexpected");

  // dx: uninit is safe — col2im fully overwrites (memset + accumulate)
  // each sample's region. dweight/dbias start at zero, where every
  // chain below starts.
  ConvGrads grads{Tensor::uninit(x.shape()), Tensor(weight.shape()),
                  Tensor({g.out_c})};
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
  const std::int64_t tasks =
      inline_exec ? 1 : static_cast<std::int64_t>(dev.workers());
  const DwGrid grid = dw_grid(g, tasks);
  const std::int64_t max_row_panels =
      (gemm_row_panels(g.out_c) + grid.row_blocks - 1) / grid.row_blocks;
  const std::int64_t max_col_panels =
      (gemm_col_panels(patch) + grid.col_blocks - 1) / grid.col_blocks;
  const auto dy_floats =
      static_cast<std::size_t>(max_row_panels * kGemmMR * ohw);
  const auto col_floats =
      static_cast<std::size_t>(max_col_panels * kGemmNR * ohw);
  const auto dcol_floats = static_cast<std::size_t>(patch * ohw);
  const auto pad_floats = static_cast<std::size_t>(
      g.in_c * (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad));

  // Staging: arena-backed tensors on the serial executor path,
  // grow-only thread-local buffers in pool workers (see worker_scratch).
  auto owner_buf = [&](std::size_t floats) {
    return inline_exec
               ? Tensor::uninit(Shape({static_cast<std::int64_t>(floats)}))
               : Tensor();
  };
  Tensor owner_dy = owner_buf(dy_floats), owner_cols = owner_buf(col_floats),
         owner_dcols = owner_buf(dcol_floats),
         owner_pad = owner_buf(pad_floats);
  const Tensor wt_panels = pack_weight_t(weight, g, dev);
  const float* pwt_packed = wt_panels.raw();
  const Device serial = Device::cpu();

  dev.parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t lo, std::size_t hi) {
        float* dy_panels = inline_exec ? owner_dy.raw()
                                       : worker_scratch(kDyPanels, dy_floats);
        float* col_panels = inline_exec ? owner_cols.raw()
                                        : worker_scratch(kColumns, col_floats);
        float* dcolumns = inline_exec
                              ? owner_dcols.raw()
                              : worker_scratch(kDColumns, dcol_floats);
        float* pad_buf = inline_exec ? owner_pad.raw()
                                     : worker_scratch(kPadded, pad_floats);
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
          const auto [dx0, dx1] = block_range(task, tasks, n);
          for (std::int64_t i = 0; i < n; ++i) {
            const float* xin = px + i * in_sz;
            const float* dyo = pdy + i * out_sz;
            if (has_dw) {
              pack_a_panels(dyo + oc0 * ohw, ohw, 1, oc1 - oc0, ohw,
                            dy_panels, serial);
              im2col_panels(pad_image(xin, g, pad_buf), g, p0, p1,
                            col_panels);
              gemm_prepacked(dy_panels, col_panels, gw + oc0 * patch + p0,
                             patch, oc1 - oc0, ohw, p1 - p0,
                             GemmEpilogue::kAccumulate, nullptr, serial);
              if (cp0 == 0) db_chain(dyo, oc0, oc1, ohw, gb);
            }
            if (i >= dx0 && i < dx1)
              sample_dx(pwt_packed, dyo, g, dcolumns, pdx + i * in_sz);
          }
        }
      },
      1);
  return grads;
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
  const std::int64_t col_floats = g.patch_size() * oh * ow;
  const bool inline_exec = !dev.is_parallel();
  Tensor owner_dcols;
  if (inline_exec) owner_dcols = Tensor::uninit(Shape({col_floats}));

  dev.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        float* dcolumns =
            inline_exec ? owner_dcols.raw()
                        : worker_scratch(kDColumns,
                                         static_cast<std::size_t>(col_floats));
        for (std::size_t i = lo; i < hi; ++i)
          sample_dx(pwt_packed, pdy + static_cast<std::int64_t>(i) * out_sz, g,
                    dcolumns, pdx + static_cast<std::int64_t>(i) * in_sz);
      },
      1);
  return dx;
}

}  // namespace dlbench::tensor
