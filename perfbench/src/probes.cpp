#include "probes.hpp"

#include <cstring>
#include <iostream>
#include <string>

#include "nn/layers.hpp"
#include "tensor/conv.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using dlbench::nn::Context;
using dlbench::nn::Sequential;
using dlbench::runtime::Device;
using dlbench::tensor::Tensor;

namespace {

constexpr int kMaxWeightLayers = 5;  // nn.fwd_ms.0 .. nn.fwd_ms.4

bool is_weight_layer(dlbench::nn::Layer& layer) {
  return !layer.params().empty();
}

}  // namespace

const Tensor* fc_weight(dlbench::nn::Layer& layer) {
  if (auto* fc = dynamic_cast<dlbench::nn::Linear*>(&layer))
    return &fc->weight();
  if (auto* fc = dynamic_cast<dlbench::nn::LinearReLU*>(&layer))
    return &fc->weight();
  return nullptr;
}

Tensor head_rows(const Tensor& x, std::int64_t rows) {
  const std::int64_t row_floats = x.numel() / x.dim(0);
  Tensor out({rows, x.dim(1), x.dim(2), x.dim(3)});
  std::memcpy(out.raw(), x.raw(),
              static_cast<std::size_t>(rows * row_floats) * sizeof(float));
  return out;
}

PassFlops layer_pass(Sequential& model, const Tensor& x,
                     const std::vector<std::int64_t>& labels,
                     const Context& ctx, Tracer& tracer, std::int64_t id) {
  const std::size_t n = model.size();
  std::vector<Tensor> inputs(n), output_grads(n);
  std::vector<int> ordinal(n, -1);
  int weight_layers = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (is_weight_layer(model.layer(i))) ordinal[i] = weight_layers++;

  // Only conv/fc layers get spans; the rest count toward the caller's.
  auto layer_span = [&](const char* prefix, std::size_t i) {
    return ordinal[i] >= 0 && ordinal[i] < kMaxWeightLayers
               ? tracer.span(prefix + std::to_string(ordinal[i]), id)
               : Tracer::Scope(nullptr, {}, id);
  };

  Tensor h = x;
  for (std::size_t i = 0; i < n; ++i) {
    inputs[i] = h;
    auto span = layer_span("nn.fwd.", i);
    h = model.layer(i).forward(h, ctx);
  }
  const Tensor probs = dlbench::tensor::softmax_rows(h, ctx.device);
  Tensor g = dlbench::tensor::softmax_cross_entropy_backward(probs, labels,
                                                             ctx.device);
  for (std::size_t i = n; i-- > 0;) {
    output_grads[i] = g;
    auto span = layer_span("nn.bwd.", i);
    g = model.layer(i).backward(g, ctx);
  }

  PassFlops flops;
  bool matmul_done = false;
  const double batch = static_cast<double>(x.dim(0));
  for (std::size_t i = 0; i < n; ++i) {
    dlbench::nn::Layer& layer = model.layer(i);
    if (auto* conv = dynamic_cast<dlbench::nn::Conv2d*>(&layer)) {
      const auto& geom = conv->geom();
      const std::string k = std::to_string(ordinal[i]);
      {
        auto span = tracer.span("tensor.conv_fwd." + k, id);
        (void)dlbench::tensor::conv2d_forward(inputs[i], conv->weight(),
                                              conv->bias(), geom, ctx.device);
      }
      {
        auto span = tracer.span("tensor.conv_bwd." + k, id);
        (void)dlbench::tensor::conv2d_backward(inputs[i], conv->weight(),
                                               output_grads[i], geom,
                                               ctx.device);
      }
      const double fwd = 2.0 * batch * static_cast<double>(geom.out_c) *
                         static_cast<double>(geom.out_h() * geom.out_w()) *
                         static_cast<double>(geom.patch_size());
      flops.conv_fwd += fwd;
      flops.conv_bwd += 2.0 * fwd;  // weight gradient + input gradient
    } else if (const Tensor* w = fc_weight(layer); w && !matmul_done) {
      auto span = tracer.span("tensor.matmul", id);
      (void)dlbench::tensor::matmul(inputs[i], *w, ctx.device);
      flops.matmul = 2.0 * batch * static_cast<double>(w->dim(0)) *
                     static_cast<double>(w->dim(1));
      matmul_done = true;
    }
  }
  return flops;
}

void set_layer_metrics(const Tracer& tracer, const PassFlops& flops,
                       MetricTable& table) {
  double fwd_ms = 0.0, bwd_ms = 0.0;
  for (int k = 0; k < kMaxWeightLayers; ++k) {
    const std::string s = std::to_string(k);
    const auto fwd = tracer.durations_ms("nn.fwd." + s);
    if (fwd.empty()) continue;
    table.set("nn.fwd_ms." + s, median(fwd));
    table.set("nn.bwd_ms." + s, tracer.median_ms("nn.bwd." + s));
    const auto conv_fwd = tracer.durations_ms("tensor.conv_fwd." + s);
    if (conv_fwd.empty()) continue;
    fwd_ms += median(conv_fwd);
    bwd_ms += tracer.median_ms("tensor.conv_bwd." + s);
  }
  table.set("tensor.conv_fwd_ms", fwd_ms);
  table.set("tensor.conv_bwd_ms", bwd_ms);
  table.set("tensor.conv_fwd_gflops", flops.conv_fwd / (fwd_ms * 1e6));
  table.set("tensor.conv_bwd_gflops", flops.conv_bwd / (bwd_ms * 1e6));
  table.set("tensor.matmul_gflops",
            flops.matmul / (tracer.median_ms("tensor.matmul") * 1e6));
}

void frozen_probe(const dlbench::nn::FrozenModel& model, const Tensor& batch8,
                  const Device& device, int repeats, Tracer& tracer,
                  MetricTable& table) {
  const Tensor b1 = head_rows(batch8, 1);
  for (int r = 0; r < repeats; ++r) {
    {
      auto span = tracer.span("nn.frozen_fwd.b1", r);
      (void)model.forward(b1, device);
    }
    auto span = tracer.span("nn.frozen_fwd.b8", r);
    (void)model.forward(batch8, device);
  }
  table.set("nn.frozen_fwd_ms.b1", tracer.median_ms("nn.frozen_fwd.b1"));
  table.set("nn.frozen_fwd_ms.b8", tracer.median_ms("nn.frozen_fwd.b8"));
}

void pool_probe(int repeats, Tracer& tracer, MetricTable& table) {
  const Device device = Device::parallel(2);
  for (int r = 0; r < repeats; ++r) {
    auto span = tracer.span("runtime.pool.parallel_for", r);
    device.parallel_for(2, [](std::size_t, std::size_t) {}, 1);
  }
  table.set("runtime.pool.parallel_for_us",
            1e3 * tracer.median_ms("runtime.pool.parallel_for"));
}

void finish_trace(const Options& options, const Tracer& tracer,
                  double untraced, double traced, MetricTable& table,
                  Outcome& out) {
  table.set("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  tracer.write_json(path, options.workload, options.seed, out.counters());
  std::cout << "trace written to " << path << "\n";
  std::cout << "self times (ms):\n";
  for (const auto& [name, s] : tracer.summarize())
    std::cout << "  " << name << " count=" << s.count << " self=" << s.self_ms
              << " total=" << s.total_ms << "\n";
  table.emit(out, /*require_all=*/false);
}

}  // namespace perfbench
