#include "nn/layer.hpp"

#include <cstring>

#include "util/error.hpp"

namespace dlbench::nn {

std::int64_t Layer::cotangent_blocks(const Tensor& dy, std::int64_t rows,
                                     const Context& ctx) {
  DLB_CHECK(rows > 0, "backward before forward");
  DLB_CHECK(dy.shape().rank() >= 1 && dy.dim(0) > 0 && dy.dim(0) % rows == 0,
            "backward dy " << dy.shape().to_string()
                           << " does not stack cotangents of " << rows
                           << " rows");
  const std::int64_t blocks = dy.dim(0) / rows;
  DLB_CHECK(blocks == 1 || !ctx.param_grads,
            "stacked cotangents (" << blocks
                                   << " blocks) need Context::param_grads "
                                      "off: parameter gradients would sum "
                                      "them");
  return blocks;
}

Tensor Layer::per_block(const Tensor& dy, std::int64_t rows,
                        const Context& ctx,
                        const std::function<Tensor(const Tensor&)>& one) {
  const std::int64_t blocks = cotangent_blocks(dy, rows, ctx);
  if (blocks == 1) return one(dy);
  Tensor dx;
  for (std::int64_t b = 0; b < blocks; ++b) {
    const Tensor part = one(dy.rows(b * rows, rows));
    // uninit: the loop writes every block, each exactly once.
    if (b == 0) dx = Tensor::uninit(part.shape().with_batch(blocks * rows));
    std::memcpy(dx.raw() + b * part.numel(), part.raw(),
                static_cast<std::size_t>(part.numel()) * sizeof(float));
  }
  return dx;
}

}  // namespace dlbench::nn
