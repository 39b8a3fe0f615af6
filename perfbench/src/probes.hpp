#pragma once

// Layer-level probes shared by the traced runs: each wraps a public call
// into one layer in a span, on the workload's own model and shapes.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "nn/frozen.hpp"
#include "nn/sequential.hpp"
#include "runtime/device.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Work done by one layer_pass, for GFLOP/s.
struct PassFlops {
  double conv_fwd = 0.0;
  double conv_bwd = 0.0;
  double matmul = 0.0;
};

/// One forward and backward pass through `model`, driven layer by layer:
/// spans nn.fwd.<k> / nn.bwd.<k> around Layer::forward / Layer::backward
/// of the k-th conv or fc layer, then tensor.conv_fwd.<k> /
/// tensor.conv_bwd.<k> around conv2d_forward / conv2d_backward on that
/// layer's own input and output gradient, and tensor.matmul around
/// matmul at the first fc layer's shape. All spans carry `id`.
PassFlops layer_pass(dlbench::nn::Sequential& model,
                     const dlbench::tensor::Tensor& x,
                     const std::vector<std::int64_t>& labels,
                     const dlbench::nn::Context& ctx, Tracer& tracer,
                     std::int64_t id);

/// Sets nn.fwd_ms.<k>, nn.bwd_ms.<k> and tensor.* from layer_pass spans.
void set_layer_metrics(const Tracer& tracer, const PassFlops& flops,
                       MetricTable& table);

/// Spans nn.frozen_fwd.b1 / nn.frozen_fwd.b8 around FrozenModel::forward
/// on the first 1 and 8 rows of `batch8`; sets the nn.frozen_fwd_ms.*.
void frozen_probe(const dlbench::nn::FrozenModel& model,
                  const dlbench::tensor::Tensor& batch8,
                  const dlbench::runtime::Device& device, int repeats,
                  Tracer& tracer, MetricTable& table);

/// Spans runtime.pool.parallel_for around an empty-body
/// Device::parallel_for on a 2-worker device; sets the metric in us.
void pool_probe(int repeats, Tracer& tracer, MetricTable& table);

/// Weight ([in, out]) of a fully connected layer, or null.
const dlbench::tensor::Tensor* fc_weight(dlbench::nn::Layer& layer);

/// First `rows` samples of a [N, C, H, W] tensor, copied.
dlbench::tensor::Tensor head_rows(const dlbench::tensor::Tensor& x,
                                  std::int64_t rows);

/// Writes the trace file and sets trace.overhead_pct from the median of
/// an untraced and a traced measurement of the same quantity (a time:
/// positive overhead means tracing made it slower).
void finish_trace(const Options& options, const Tracer& tracer,
                  double untraced, double traced, MetricTable& table,
                  Outcome& out);

}  // namespace perfbench
