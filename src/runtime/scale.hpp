#pragma once

// Workload scaling.
//
// The paper's full workloads are hours long (TF CIFAR-10 CPU: 60.88 h).
// Every experiment here honors a ScaleConfig that subsamples datasets
// and proportionally caps iteration counts while keeping code paths
// identical. The paper's findings are cross-framework comparisons at a
// fixed workload, which proportional scaling preserves.

#include <cstdint>

namespace dlbench::runtime {

/// Scaling knobs applied uniformly to all experiments in a run.
struct ScaleConfig {
  /// Multiplier on dataset sizes (train and test), in (0, 1].
  double data_fraction = 1.0;
  /// Multiplier on epoch counts, in (0, 1]. Iterations are recomputed
  /// from scaled epochs and scaled dataset size, exactly like the
  /// paper's #Epochs = max_steps * batch / #samples identity.
  double epoch_fraction = 1.0;
  /// Hard cap on total optimizer steps per training run (0 = no cap).
  std::int64_t max_step_cap = 0;

  /// Applies data_fraction, keeping at least `min_keep` samples.
  std::int64_t scale_samples(std::int64_t n, std::int64_t min_keep = 32) const;

  /// Applies epoch_fraction, keeping at least a fraction of an epoch.
  double scale_epochs(double epochs) const;

  /// Applies max_step_cap (identity when cap is 0).
  std::int64_t cap_steps(std::int64_t steps) const;

  /// Reads DLB_DATA_FRACTION / DLB_EPOCH_FRACTION / DLB_STEP_CAP from
  /// the environment, falling back to `fallback` for unset values.
  static ScaleConfig from_env(const ScaleConfig& fallback);
};

}  // namespace dlbench::runtime
