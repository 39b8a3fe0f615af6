#pragma once

// Layer abstraction shared by every framework emulation.
//
// A Layer owns its parameters and gradient buffers and caches whatever
// it needs from forward() to run backward(). Backward always propagates
// an input gradient, which is what the adversarial module differentiates
// through to build FGSM perturbations and JSMA saliency maps.
//
// Layer-author notes (the uninit/arena ownership rule, DESIGN.md §15):
// layers run under the execution-plan arena, which replays each step's
// allocations out of recycled memory. Two consequences for new layers:
//
//  - Tensor::uninit is only legal when every element is written before
//    any read, and the call site must carry a comment saying so. Under
//    arena replay an unwritten element is not merely uninitialized —
//    it deterministically holds the PREVIOUS step's bytes, which reads
//    as a silent cross-step data leak, not a crash. If a code path may
//    leave holes (padding, tail remainders), use Tensor(Shape); zeroed
//    slots are scrubbed on every replay.
//
//  - Allocation ORDER on the step thread must be deterministic: the
//    plan matches allocations to arena slots by ordinal. Never allocate
//    a Tensor from inside a pool worker (use thread_local scratch as
//    conv.cpp does); data-dependent allocation (rare shapes, lazy init)
//    is safe — it spills to the heap and triggers a re-measure — but
//    belongs outside the steady state, e.g. in the constructor or the
//    first (warmup) steps.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace dlbench::nn {

using runtime::Device;
using tensor::Tensor;

/// Per-call execution context threaded through forward/backward.
struct Context {
  Device device = Device::cpu();
  bool training = false;
  util::Rng* rng = nullptr;  // required when training with Dropout
  /// False: backward computes dL/dx only and leaves every parameter
  /// gradient untouched (attacks differentiate w.r.t. the input alone).
  bool param_grads = true;
};

class Layer;
using LayerPtr = std::unique_ptr<Layer>;

/// A single differentiable transformation y = f(x; params).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Human-readable kind, e.g. "conv5x5 1->32".
  virtual std::string describe() const = 0;

  /// Deep, independent copy: parameters are cloned buffers (never
  /// aliased), gradients start zeroed, and forward caches are NOT
  /// carried over — a clone is a fresh layer with the same weights.
  /// This is what lets the adversarial crafting engine hand every
  /// worker thread its own trainable replica of one model (a frozen
  /// inference view is not enough there: attacks differentiate through
  /// the layer caches).
  virtual LayerPtr clone() const = 0;

  /// Computes y from x; caches activations needed by backward().
  virtual Tensor forward(const Tensor& x, const Context& ctx) = 0;

  /// Given dL/dy, accumulates parameter gradients and returns dL/dx.
  /// Must be called after a matching forward() of N rows. With
  /// ctx.param_grads off no parameter gradient is touched, and `dy` may
  /// stack k >= 1 cotangents as k*N rows: block b (rows [b*N, (b+1)*N))
  /// is an independent cotangent against the same cached forward, and
  /// block b of dL/dx is bitwise equal to a separate backward of that
  /// block alone. A stacked `dy` with param_grads on throws.
  virtual Tensor backward(const Tensor& dy, const Context& ctx) = 0;

  /// backward() for a layer whose dL/dx nobody reads, e.g. the first
  /// layer of a training step: accumulates the same parameter
  /// gradients, bit for bit, and returns nothing. The default runs
  /// backward() and drops dx; a layer whose dx costs real work skips it.
  virtual void backward_params(const Tensor& dy, const Context& ctx) {
    (void)backward(dy, ctx);
  }

  /// Parameter tensors (empty for stateless layers). Order is stable
  /// and matches grads().
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Zeroes accumulated gradients.
  void zero_grads() {
    for (Tensor* g : grads()) g->fill(0.f);
  }

  /// Number of scalar parameters.
  std::int64_t num_params() {
    std::int64_t n = 0;
    for (Tensor* p : params()) n += p->numel();
    return n;
  }

 protected:
  /// Number of cotangents stacked in `dy` against a forward of `rows`
  /// rows; enforces the backward() contract above.
  static std::int64_t cotangent_blocks(const Tensor& dy, std::int64_t rows,
                                       const Context& ctx);

  /// Runs `one` (a backward over `rows` rows) on each stacked block of
  /// `dy` and stacks the results; a single block goes straight through.
  static Tensor per_block(const Tensor& dy, std::int64_t rows,
                          const Context& ctx,
                          const std::function<Tensor(const Tensor&)>& one);
};

}  // namespace dlbench::nn
