#pragma once

// Umbrella header: the public API of the DLBench reproduction.
//
// Quickstart:
//
//   #include "core/dlbench.hpp"
//   using namespace dlbench;
//
//   core::Harness harness;
//   auto record = harness.run_default(frameworks::FrameworkKind::kCaffe,
//                                     frameworks::DatasetId::kMnist,
//                                     runtime::Device::gpu());
//   std::cout << core::summarize(record) << "\n";
//
// See examples/ for full programs and DESIGN.md for the architecture.

#include "adversarial/attacks.hpp"
#include "core/harness.hpp"
#include "core/report.hpp"
#include "data/dataset.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "frameworks/config.hpp"
#include "frameworks/emulations.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/registry.hpp"
#include "nn/checkpoint.hpp"
#include "nn/layers.hpp"
#include "nn/network_spec.hpp"
#include "nn/sequential.hpp"
#include "optim/optimizer.hpp"
#include "runtime/device.hpp"
#include "runtime/scale.hpp"
#include "runtime/clock.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
