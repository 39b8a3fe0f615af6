#include "tensor/pool.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace dlbench::tensor {

using runtime::Device;

namespace {

void check_pool_input(const Tensor& x, const PoolGeom& g) {
  DLB_CHECK(x.shape().rank() == 4, "pool input must be [N, C, H, W]");
  DLB_CHECK(x.dim(1) == g.channels && x.dim(2) == g.in_h && x.dim(3) == g.in_w,
            "pool input " << x.shape().to_string()
                          << " does not match geometry");
  DLB_CHECK(g.window > 0 && g.stride > 0, "pool window/stride must be > 0");
  DLB_CHECK(g.out_h() > 0 && g.out_w() > 0, "pool output is empty");
}

// Output positions along one axis whose window lies fully inside the
// input: start*stride + window <= in. Only ceil-mode edges (and inputs
// smaller than the window) lie beyond.
std::int64_t interior_count(std::int64_t in, std::int64_t out,
                            const PoolGeom& g) {
  return in < g.window ? 0 : std::min(out, (in - g.window) / g.stride + 1);
}

// Window maxima of one output row, each window scanned in (iy, ix)
// order with strict >, so the first maximum wins and NaN never does.
// The index starts at the window's first element, so a window holding
// only -inf or NaN still routes its gradient inside itself. `count`
// interior windows from x0 = 0 run with the window size fixed
// (kWindow > 0) and no clamps, so the compiler unrolls the window and
// vectorizes across x0; the row's edge windows are clamped.
template <std::int64_t kWindow>
void max_row(const float* in, const PoolGeom& g, std::int64_t y0,
             std::int64_t count, std::int64_t ow, float* out,
             std::int32_t* amax) {
  const std::int64_t w = kWindow > 0 ? kWindow : g.window;
  const std::int64_t ys = y0 * g.stride;
  for (std::int64_t x0 = 0; x0 < count; ++x0) {
    const std::int64_t first = ys * g.in_w + x0 * g.stride;
    float best = -std::numeric_limits<float>::infinity();
    auto best_idx = static_cast<std::int32_t>(first);
    for (std::int64_t ky = 0; ky < w; ++ky) {
      for (std::int64_t kx = 0; kx < w; ++kx) {
        const std::int64_t at = first + ky * g.in_w + kx;
        if (in[at] > best) {
          best = in[at];
          best_idx = static_cast<std::int32_t>(at);
        }
      }
    }
    out[x0] = best;
    amax[x0] = best_idx;
  }
  const std::int64_t ye = std::min(ys + g.window, g.in_h);
  for (std::int64_t x0 = count; x0 < ow; ++x0) {
    const std::int64_t xs = x0 * g.stride;
    const std::int64_t xe = std::min(xs + g.window, g.in_w);
    float best = -std::numeric_limits<float>::infinity();
    auto best_idx = static_cast<std::int32_t>(ys * g.in_w + xs);
    for (std::int64_t iy = ys; iy < ye; ++iy) {
      for (std::int64_t ix = xs; ix < xe; ++ix) {
        if (in[iy * g.in_w + ix] > best) {
          best = in[iy * g.in_w + ix];
          best_idx = static_cast<std::int32_t>(iy * g.in_w + ix);
        }
      }
    }
    out[x0] = best;
    amax[x0] = best_idx;
  }
}

// Window sums of one output row, accumulated in (iy, ix) order: `count`
// interior windows from x0 = 0 with the window size fixed (kWindow > 0)
// and no clamps, then the row's clamped edge windows, each divided by
// its own element count.
template <std::int64_t kWindow>
void avg_row(const float* in, const PoolGeom& g, std::int64_t y0,
             std::int64_t count, std::int64_t ow, float* out) {
  const std::int64_t w = kWindow > 0 ? kWindow : g.window;
  const std::int64_t ys = y0 * g.stride;
  for (std::int64_t x0 = 0; x0 < count; ++x0) {
    const float* first = in + ys * g.in_w + x0 * g.stride;
    float acc = 0.f;
    for (std::int64_t ky = 0; ky < w; ++ky)
      for (std::int64_t kx = 0; kx < w; ++kx) acc += first[ky * g.in_w + kx];
    out[x0] = acc / static_cast<float>(w * w);
  }
  const std::int64_t ye = std::min(ys + g.window, g.in_h);
  for (std::int64_t x0 = count; x0 < ow; ++x0) {
    const std::int64_t xs = x0 * g.stride;
    const std::int64_t xe = std::min(xs + g.window, g.in_w);
    float acc = 0.f;
    for (std::int64_t iy = ys; iy < ye; ++iy)
      for (std::int64_t ix = xs; ix < xe; ++ix) acc += in[iy * g.in_w + ix];
    out[x0] = acc / static_cast<float>((ye - ys) * (xe - xs));
  }
}

// Gradient spread of one output row, in the same (x0, iy, ix) order as
// a clamped loop over the whole row, so every input element receives
// its shares in the same order: interior windows first (they come first
// in x0), then the clamped edge windows.
template <std::int64_t kWindow>
void avg_row_backward(const float* dout, const PoolGeom& g, std::int64_t y0,
                      std::int64_t count, std::int64_t ow, float* din) {
  const std::int64_t w = kWindow > 0 ? kWindow : g.window;
  const std::int64_t ys = y0 * g.stride;
  for (std::int64_t x0 = 0; x0 < count; ++x0) {
    float* first = din + ys * g.in_w + x0 * g.stride;
    const float share = dout[x0] / static_cast<float>(w * w);
    for (std::int64_t ky = 0; ky < w; ++ky)
      for (std::int64_t kx = 0; kx < w; ++kx) first[ky * g.in_w + kx] += share;
  }
  const std::int64_t ye = std::min(ys + g.window, g.in_h);
  for (std::int64_t x0 = count; x0 < ow; ++x0) {
    const std::int64_t xs = x0 * g.stride;
    const std::int64_t xe = std::min(xs + g.window, g.in_w);
    const float share =
        dout[x0] / static_cast<float>((ye - ys) * (xe - xs));
    for (std::int64_t iy = ys; iy < ye; ++iy)
      for (std::int64_t ix = xs; ix < xe; ++ix) din[iy * g.in_w + ix] += share;
  }
}

}  // namespace

Tensor maxpool_forward(const Tensor& x, const PoolGeom& g,
                       std::vector<std::int32_t>& argmax, const Device& dev) {
  check_pool_input(x, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // uninit / resize: every output and argmax element is written below.
  Tensor y = Tensor::uninit(Shape({n, g.channels, oh, ow}));
  argmax.resize(static_cast<std::size_t>(y.numel()));

  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const std::int64_t iy_count = interior_count(g.in_h, oh, g);
  const std::int64_t ix_count = interior_count(g.in_w, ow, g);
  const auto row = g.window == 2   ? max_row<2>
                   : g.window == 3 ? max_row<3>
                                   : max_row<0>;
  const float* px = x.raw();
  float* py = y.raw();
  std::int32_t* pa = argmax.data();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* in = px + static_cast<std::int64_t>(pc) * in_plane;
          float* out = py + static_cast<std::int64_t>(pc) * out_plane;
          std::int32_t* amax = pa + static_cast<std::int64_t>(pc) * out_plane;
          for (std::int64_t y0 = 0; y0 < oh; ++y0)
            row(in, g, y0, y0 < iy_count ? ix_count : 0, ow, out + y0 * ow,
                amax + y0 * ow);
        }
      },
      2);
  return y;
}

Tensor maxpool_backward(const Tensor& dy, const PoolGeom& g,
                        const std::vector<std::int32_t>& argmax,
                        const Device& dev) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  DLB_CHECK(dy.shape().rank() == 4 && dy.dim(1) == g.channels &&
                dy.dim(2) == oh && dy.dim(3) == ow,
            "maxpool dy shape mismatch: " << dy.shape().to_string());
  DLB_CHECK(static_cast<std::int64_t>(argmax.size()) == dy.numel(),
            "argmax size mismatch");
  const std::int64_t n = dy.dim(0);
  Tensor dx({n, g.channels, g.in_h, g.in_w});
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const float* pdy = dy.raw();
  float* pdx = dx.raw();
  const std::int32_t* pa = argmax.data();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* dout = pdy + static_cast<std::int64_t>(pc) * out_plane;
          const std::int32_t* amax =
              pa + static_cast<std::int64_t>(pc) * out_plane;
          float* din = pdx + static_cast<std::int64_t>(pc) * in_plane;
          for (std::int64_t j = 0; j < out_plane; ++j)
            din[amax[j]] += dout[j];
        }
      },
      2);
  return dx;
}

Tensor avgpool_forward(const Tensor& x, const PoolGeom& g, const Device& dev) {
  check_pool_input(x, g);
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // uninit: every output element is written below.
  Tensor y = Tensor::uninit(Shape({n, g.channels, oh, ow}));
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const std::int64_t iy_count = interior_count(g.in_h, oh, g);
  const std::int64_t ix_count = interior_count(g.in_w, ow, g);
  const auto row = g.window == 2   ? avg_row<2>
                   : g.window == 3 ? avg_row<3>
                                   : avg_row<0>;
  const float* px = x.raw();
  float* py = y.raw();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* in = px + static_cast<std::int64_t>(pc) * in_plane;
          float* out = py + static_cast<std::int64_t>(pc) * out_plane;
          for (std::int64_t y0 = 0; y0 < oh; ++y0)
            row(in, g, y0, y0 < iy_count ? ix_count : 0, ow, out + y0 * ow);
        }
      },
      2);
  return y;
}

Tensor avgpool_backward(const Tensor& dy, const PoolGeom& g,
                        const Device& dev) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  DLB_CHECK(dy.shape().rank() == 4 && dy.dim(1) == g.channels &&
                dy.dim(2) == oh && dy.dim(3) == ow,
            "avgpool dy shape mismatch: " << dy.shape().to_string());
  const std::int64_t n = dy.dim(0);
  Tensor dx({n, g.channels, g.in_h, g.in_w});
  const std::int64_t in_plane = g.in_h * g.in_w;
  const std::int64_t out_plane = oh * ow;
  const std::int64_t iy_count = interior_count(g.in_h, oh, g);
  const std::int64_t ix_count = interior_count(g.in_w, ow, g);
  const auto row = g.window == 2   ? avg_row_backward<2>
                   : g.window == 3 ? avg_row_backward<3>
                                   : avg_row_backward<0>;
  const float* pdy = dy.raw();
  float* pdx = dx.raw();

  dev.parallel_for(
      static_cast<std::size_t>(n * g.channels),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t pc = lo; pc < hi; ++pc) {
          const float* dout = pdy + static_cast<std::int64_t>(pc) * out_plane;
          float* din = pdx + static_cast<std::int64_t>(pc) * in_plane;
          for (std::int64_t y0 = 0; y0 < oh; ++y0)
            row(dout + y0 * ow, g, y0, y0 < iy_count ? ix_count : 0, ow, din);
        }
      },
      2);
  return dx;
}

}  // namespace dlbench::tensor
