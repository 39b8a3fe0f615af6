#pragma once

// Optimizers and learning-rate schedules.
//
// Table II/III: TF uses Adam on MNIST, everyone uses SGD elsewhere;
// Caffe applies weight decay through its solver (its regularizer in the
// paper's robustness comparison) and a two-phase learning-rate schedule
// on CIFAR-10 (0.001 for 8 epochs, then 0.0001 for 2).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/device.hpp"
#include "tensor/tensor.hpp"

namespace dlbench::optim {

using runtime::Device;
using tensor::Tensor;

/// Piecewise-constant learning-rate schedule: rate(step) returns the lr
/// for the given global step. Default is a fixed rate.
class LrSchedule {
 public:
  /// Fixed learning rate.
  explicit LrSchedule(double base_lr);

  /// Multistep: rate drops to `rates[i]` once step >= boundaries[i].
  LrSchedule(double base_lr, std::vector<std::int64_t> boundaries,
             std::vector<double> rates);

  double rate(std::int64_t step) const;
  double base() const { return base_lr_; }
  std::string describe() const;

 private:
  double base_lr_;
  std::vector<std::int64_t> boundaries_;
  std::vector<double> rates_;
};

/// Mutates parameters in place from their accumulated gradients.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;

  /// Applies one update. `step` is the 0-based global step count.
  virtual void step(const std::vector<Tensor*>& params,
                    const std::vector<Tensor*>& grads, std::int64_t step,
                    const Device& dev) = 0;
};

/// SGD with optional momentum and decoupled L2 weight decay.
class Sgd final : public Optimizer {
 public:
  Sgd(LrSchedule schedule, double momentum = 0.0, double weight_decay = 0.0);

  std::string name() const override { return "SGD"; }
  void step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads, std::int64_t step,
            const Device& dev) override;

  double momentum() const { return momentum_; }
  double weight_decay() const { return weight_decay_; }

 private:
  LrSchedule schedule_;
  double momentum_;
  double weight_decay_;
  std::vector<Tensor> velocity_;  // lazily sized to params
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(LrSchedule schedule, double beta1 = 0.9, double beta2 = 0.999,
       double epsilon = 1e-8, double weight_decay = 0.0);

  std::string name() const override { return "Adam"; }
  void step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads, std::int64_t step,
            const Device& dev) override;

  /// First and second moment estimates, one per parameter (empty
  /// before the first step).
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }

 private:
  LrSchedule schedule_;
  double beta1_, beta2_, epsilon_, weight_decay_;
  std::vector<Tensor> m_, v_;
};

}  // namespace dlbench::optim
