#include "frameworks/predictor.hpp"

#include "frameworks/framework.hpp"
#include "frameworks/registry.hpp"
#include "nn/checkpoint.hpp"
#include "util/rng.hpp"

namespace dlbench::frameworks {

nn::FrozenModel make_predictor(const PredictorConfig& config) {
  const nn::NetworkSpec spec =
      default_network_spec(config.framework, config.dataset);
  const std::unique_ptr<Framework> fw = make_framework(config.framework);
  util::Rng rng(config.seed);
  nn::Sequential model = fw->build_model(spec, config.device, rng);
  if (!config.checkpoint_path.empty())
    nn::load_checkpoint(model, config.checkpoint_path);
  return nn::FrozenModel::freeze(model);
}

tensor::Shape sample_shape(DatasetId dataset) {
  switch (dataset) {
    case DatasetId::kMnist:
      return tensor::Shape({1, 28, 28});
    case DatasetId::kCifar10:
      return tensor::Shape({3, 32, 32});
  }
  return tensor::Shape({});  // unreachable
}

}  // namespace dlbench::frameworks
