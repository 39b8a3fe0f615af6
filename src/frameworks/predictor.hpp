#pragma once

// Predictor construction: FrameworkConfig → frozen serving model.
//
// The serving layer (src/serve) is framework-agnostic: it batches
// requests against any FrozenModel. This file is the bridge from the
// paper's configuration space to that interface — it materializes the
// default network a framework ships for a dataset exactly the way the
// framework emulation would (conv kernel selection, injected
// regularizer), optionally restores trained parameters from a
// checkpoint, and freezes the result for concurrent inference.

#include <string>

#include "frameworks/config.hpp"
#include "nn/frozen.hpp"
#include "runtime/device.hpp"
#include "tensor/shape.hpp"

namespace dlbench::frameworks {

/// Everything needed to stand up a serving replica set.
struct PredictorConfig {
  FrameworkKind framework = FrameworkKind::kTensorFlow;
  DatasetId dataset = DatasetId::kMnist;
  /// Device the predictor will run on. Affects model *construction*
  /// too: the Torch emulation picks its direct conv kernel on the CPU
  /// device and the GEMM kernel on the parallel device.
  runtime::Device device = runtime::Device::cpu();
  /// Weight-init seed, so untrained predictors are reproducible.
  std::uint64_t seed = 1234;
  /// Checkpoint to restore (must match the default network's
  /// architecture); "" serves freshly initialized weights.
  std::string checkpoint_path;
};

/// Builds framework `config.framework`'s default network for
/// `config.dataset` (with the framework's conv choice and regularizer),
/// restores `config.checkpoint_path` if given, and freezes it.
nn::FrozenModel make_predictor(const PredictorConfig& config);

/// Shape of one serving request sample for `dataset`: [C, H, W].
tensor::Shape sample_shape(DatasetId dataset);

}  // namespace dlbench::frameworks
