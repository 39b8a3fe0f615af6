#include "nn/conv_direct.hpp"

#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace dlbench::nn {

using tensor::Shape;

Conv2dDirect::Conv2dDirect(tensor::ConvGeom geom, tensor::InitKind init,
                           util::Rng& rng)
    : geom_(geom),
      weight_(Shape({geom.out_c, geom.patch_size()})),
      bias_(Shape({geom.out_c})),
      dweight_(Shape({geom.out_c, geom.patch_size()})),
      dbias_(Shape({geom.out_c})) {
  tensor::initialize(weight_, init, geom.patch_size(),
                     geom.out_c * geom.kernel * geom.kernel, rng);
}

Conv2dDirect::Conv2dDirect(tensor::ConvGeom geom, Tensor weight, Tensor bias)
    : geom_(geom),
      weight_(std::move(weight)),
      bias_(std::move(bias)),
      dweight_(weight_.shape()),
      dbias_(bias_.shape()) {}

std::string Conv2dDirect::describe() const {
  std::ostringstream os;
  os << "conv-direct" << geom_.kernel << "x" << geom_.kernel << " "
     << geom_.in_c << "->" << geom_.out_c;
  return os.str();
}

Tensor Conv2dDirect::forward(const Tensor& x, const Context& ctx) {
  cached_input_ = x;
  return conv2d_direct_forward(x, weight_, bias_, geom_, ctx.device);
}

Tensor conv2d_direct_forward(const Tensor& x, const Tensor& weight,
                             const Tensor& bias, const tensor::ConvGeom& geom,
                             const runtime::Device& device) {
  DLB_CHECK(x.shape().rank() == 4 && x.dim(1) == geom.in_c &&
                x.dim(2) == geom.in_h && x.dim(3) == geom.in_w,
            "Conv2dDirect input " << x.shape().to_string()
                                  << " does not match geometry");
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  const std::int64_t k = geom.kernel;
  Tensor y({n, geom.out_c, oh, ow});

  const float* px = x.raw();
  const float* pw = weight.raw();
  const float* pb = bias.raw();
  float* py = y.raw();
  const std::int64_t in_plane = geom.in_h * geom.in_w;
  const std::int64_t in_sz = geom.in_c * in_plane;
  const std::int64_t out_sz = geom.out_c * oh * ow;

  device.parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* xin = px + static_cast<std::int64_t>(i) * in_sz;
          float* yout = py + static_cast<std::int64_t>(i) * out_sz;
          for (std::int64_t oc = 0; oc < geom.out_c; ++oc) {
            const float* wk = pw + oc * geom.patch_size();
            for (std::int64_t y0 = 0; y0 < oh; ++y0) {
              for (std::int64_t x0 = 0; x0 < ow; ++x0) {
                float acc = pb[oc];
                for (std::int64_t ic = 0; ic < geom.in_c; ++ic) {
                  for (std::int64_t ky = 0; ky < k; ++ky) {
                    const std::int64_t iy = y0 * geom.stride + ky - geom.pad;
                    if (iy < 0 || iy >= geom.in_h) continue;
                    for (std::int64_t kx = 0; kx < k; ++kx) {
                      const std::int64_t ix =
                          x0 * geom.stride + kx - geom.pad;
                      if (ix < 0 || ix >= geom.in_w) continue;
                      acc += wk[(ic * k + ky) * k + kx] *
                             xin[ic * in_plane + iy * geom.in_w + ix];
                    }
                  }
                }
                yout[(oc * oh + y0) * ow + x0] = acc;
              }
            }
          }
        }
      },
      1);
  return y;
}

Tensor Conv2dDirect::backward(const Tensor& dy, const Context& ctx) {
  DLB_CHECK(!cached_input_.empty(), "Conv2dDirect::backward before forward");
  const Tensor& x = cached_input_;
  // dx depends on dy and W alone, so stacked cotangents run as a batch
  // of k*N samples; x is read only for dW, which needs a single block.
  const std::int64_t n =
      cotangent_blocks(dy, x.dim(0), ctx) * x.dim(0);
  const bool param_grads = ctx.param_grads;
  const std::int64_t oh = geom_.out_h(), ow = geom_.out_w();
  const std::int64_t k = geom_.kernel;
  Tensor dx(x.shape().with_batch(n));

  const float* px = x.raw();
  const float* pw = weight_.raw();
  const float* pdy = dy.raw();
  float* pdx = dx.raw();
  float* pdw = dweight_.raw();
  float* pdb = dbias_.raw();
  const std::int64_t in_plane = geom_.in_h * geom_.in_w;
  const std::int64_t in_sz = geom_.in_c * in_plane;
  const std::int64_t out_sz = geom_.out_c * oh * ow;

  // Serial over the batch: the direct kernel is deliberately the naive
  // implementation (its slowness on CPU is the phenomenon under study);
  // parallel batches would also race on dweight_.
  for (std::int64_t i = 0; i < n; ++i) {
    const float* xin = param_grads ? px + i * in_sz : nullptr;
    const float* dyo = pdy + i * out_sz;
    float* dxin = pdx + i * in_sz;
    for (std::int64_t oc = 0; oc < geom_.out_c; ++oc) {
      const float* wk = pw + oc * geom_.patch_size();
      float* dwk = pdw + oc * geom_.patch_size();
      for (std::int64_t y0 = 0; y0 < oh; ++y0) {
        for (std::int64_t x0 = 0; x0 < ow; ++x0) {
          const float g = dyo[(oc * oh + y0) * ow + x0];
          if (g == 0.f) continue;
          if (param_grads) pdb[oc] += g;
          for (std::int64_t ic = 0; ic < geom_.in_c; ++ic) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              const std::int64_t iy = y0 * geom_.stride + ky - geom_.pad;
              if (iy < 0 || iy >= geom_.in_h) continue;
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t ix = x0 * geom_.stride + kx - geom_.pad;
                if (ix < 0 || ix >= geom_.in_w) continue;
                const std::int64_t xi = ic * in_plane + iy * geom_.in_w + ix;
                if (param_grads) dwk[(ic * k + ky) * k + kx] += g * xin[xi];
                dxin[xi] += g * wk[(ic * k + ky) * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

LayerPtr Conv2dDirect::clone() const {
  return LayerPtr(new Conv2dDirect(geom_, weight_.clone(), bias_.clone()));
}

}  // namespace dlbench::nn
