#include "runtime/scale.hpp"

#include <algorithm>

#include "util/env.hpp"
#include "util/error.hpp"

namespace dlbench::runtime {

std::int64_t ScaleConfig::scale_samples(std::int64_t n,
                                        std::int64_t min_keep) const {
  DLB_CHECK(data_fraction > 0.0 && data_fraction <= 1.0,
            "data_fraction must be in (0,1], got " << data_fraction);
  const auto scaled = static_cast<std::int64_t>(n * data_fraction);
  return std::clamp<std::int64_t>(scaled, std::min(n, min_keep), n);
}

double ScaleConfig::scale_epochs(double epochs) const {
  DLB_CHECK(epoch_fraction > 0.0 && epoch_fraction <= 1.0,
            "epoch_fraction must be in (0,1], got " << epoch_fraction);
  return std::max(0.05, epochs * epoch_fraction);
}

std::int64_t ScaleConfig::cap_steps(std::int64_t steps) const {
  if (max_step_cap <= 0) return steps;
  return std::min(steps, max_step_cap);
}

ScaleConfig ScaleConfig::from_env(const ScaleConfig& fallback) {
  ScaleConfig cfg = fallback;
  cfg.data_fraction = util::env_f64("DLB_DATA_FRACTION", cfg.data_fraction);
  cfg.epoch_fraction =
      util::env_f64("DLB_EPOCH_FRACTION", cfg.epoch_fraction);
  cfg.max_step_cap = util::env_i64("DLB_STEP_CAP", cfg.max_step_cap);
  return cfg;
}

}  // namespace dlbench::runtime
