#include "tensor/conv.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
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
// backward dW scratch. A pool worker runs one chunk at a time
// and the pool is never re-entered, so the three named buffers of one
// thread are never live twice concurrently. On the serial executor
// path the staging is a Tensor instead, so an active execution plan
// folds it into the step arena (DESIGN.md §15); workers cannot use the
// arena (it is owner-thread-scoped and offset replay is sequential),
// and this thread-local reuse is what keeps them allocation-free in
// steady state.
enum WorkerBuf { kColumns = 0, kDColumns = 1, kDwScratch = 2 };

float* worker_scratch(WorkerBuf which, std::size_t floats) {
  thread_local std::vector<float> bufs[3];
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
  // each sample's region. dweight/dbias stay zero-initialized: they
  // are += targets for the sorted chunk merge below.
  ConvGrads grads{Tensor::uninit(x.shape()), Tensor(weight.shape()),
                  Tensor({g.out_c})};
  const float* px = x.raw();
  const float* pdy = dy.raw();
  float* pdx = grads.dx.raw();
  const std::int64_t in_sz = g.in_c * g.in_h * g.in_w;
  const std::int64_t out_sz = g.out_c * ohw;

  // dW_s[oc, p] = dy_i · columnsᵀ runs on the packed micro-kernel
  // (A = dy_i (ohw, 1), B = columnsᵀ (1, ohw)), serial inside a batch
  // chunk like sample_dx. dW_s is a per-sample scratch accumulated into
  // the chunk partial so the cross-sample += order stays the chunk's
  // sample order.
  const Device serial = Device::cpu();
  const std::size_t col_floats = static_cast<std::size_t>(patch * ohw);
  const std::size_t dw_floats = static_cast<std::size_t>(g.out_c * patch);
  const bool inline_exec = !dev.is_parallel();

  // Staging: arena-backed tensors on the serial executor path,
  // grow-only thread-local buffers in pool workers (see worker_scratch).
  Tensor owner_cols, owner_dcols, owner_dw;
  if (inline_exec) {
    owner_cols = Tensor::uninit(Shape({patch * ohw}));
    owner_dcols = Tensor::uninit(Shape({patch * ohw}));
    owner_dw = Tensor::uninit(Shape({g.out_c * patch}));
  }
  const Tensor wt_panels = pack_weight_t(weight, g, dev);
  const float* pwt_packed = wt_panels.raw();

  // Per-chunk weight/bias partials, merged serially in chunk order after
  // the parallel region: float accumulation order is then a function of
  // the chunking alone, not of thread completion order, so an N-thread
  // run is bit-reproducible run to run.
  std::mutex reduce_mu;
  std::vector<std::pair<std::size_t, std::vector<float>>> partials;

  dev.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        float* columns = inline_exec ? owner_cols.raw()
                                     : worker_scratch(kColumns, col_floats);
        float* dcolumns = inline_exec
                              ? owner_dcols.raw()
                              : worker_scratch(kDColumns, col_floats);
        float* dw_s = inline_exec ? owner_dw.raw()
                                  : worker_scratch(kDwScratch, dw_floats);
        std::vector<float> local_dw(static_cast<std::size_t>(g.out_c * patch),
                                    0.f);
        std::vector<float> local_db(static_cast<std::size_t>(g.out_c), 0.f);

        for (std::size_t i = lo; i < hi; ++i) {
          const float* xin = px + static_cast<std::int64_t>(i) * in_sz;
          const float* dyo = pdy + static_cast<std::int64_t>(i) * out_sz;
          im2col(xin, g, columns);

          // db[oc] += sum dy[oc, :]
          for (std::int64_t oc = 0; oc < g.out_c; ++oc) {
            const float* drow = dyo + oc * ohw;
            float db_acc = 0.f;
            for (std::int64_t j = 0; j < ohw; ++j) db_acc += drow[j];
            local_db[static_cast<std::size_t>(oc)] += db_acc;
          }

          gemm_packed(dyo, ohw, 1, columns, 1, ohw, dw_s, g.out_c, ohw,
                      patch, GemmEpilogue::kNone, nullptr, serial);
          for (std::size_t k = 0; k < dw_floats; ++k) local_dw[k] += dw_s[k];
          sample_dx(pwt_packed, dyo, g, dcolumns,
                    pdx + static_cast<std::int64_t>(i) * in_sz);
        }

        // Pack dW then db into one buffer keyed by the chunk's first
        // sample index; merged below in key order.
        local_dw.insert(local_dw.end(), local_db.begin(), local_db.end());
        std::lock_guard<std::mutex> lock(reduce_mu);
        partials.emplace_back(lo, std::move(local_dw));
      },
      1);

  std::sort(partials.begin(), partials.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  float* gw = grads.dweight.raw();
  float* gb = grads.dbias.raw();
  const std::size_t dw_size = static_cast<std::size_t>(g.out_c * patch);
  for (const auto& [lo, local] : partials) {
    for (std::size_t k = 0; k < dw_size; ++k) gw[k] += local[k];
    for (std::size_t k = 0; k < static_cast<std::size_t>(g.out_c); ++k)
      gb[k] += local[dw_size + k];
  }
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
