#include "optim/optimizer.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace dlbench::optim {

// ---- LrSchedule ----

LrSchedule::LrSchedule(double base_lr) : base_lr_(base_lr) {
  DLB_CHECK(base_lr > 0.0, "learning rate must be positive");
}

LrSchedule::LrSchedule(double base_lr, std::vector<std::int64_t> boundaries,
                       std::vector<double> rates)
    : base_lr_(base_lr),
      boundaries_(std::move(boundaries)),
      rates_(std::move(rates)) {
  DLB_CHECK(base_lr > 0.0, "learning rate must be positive");
  DLB_CHECK(boundaries_.size() == rates_.size(),
            "boundaries/rates size mismatch");
  for (std::size_t i = 1; i < boundaries_.size(); ++i)
    DLB_CHECK(boundaries_[i] > boundaries_[i - 1],
              "boundaries must be increasing");
}

double LrSchedule::rate(std::int64_t step) const {
  double lr = base_lr_;
  for (std::size_t i = 0; i < boundaries_.size(); ++i)
    if (step >= boundaries_[i]) lr = rates_[i];
  return lr;
}

std::string LrSchedule::describe() const {
  std::ostringstream os;
  os << base_lr_;
  for (std::size_t i = 0; i < boundaries_.size(); ++i)
    os << " ->" << rates_[i] << "@" << boundaries_[i];
  return os.str();
}

namespace {

void check_param_grads(const std::vector<Tensor*>& params,
                       const std::vector<Tensor*>& grads) {
  DLB_CHECK(params.size() == grads.size(), "params/grads count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i)
    DLB_CHECK(params[i]->shape() == grads[i]->shape(),
              "param/grad shape mismatch at index " << i);
}

void ensure_state(std::vector<Tensor>& state,
                  const std::vector<Tensor*>& params) {
  if (state.size() == params.size()) return;
  DLB_CHECK(state.empty(), "optimizer rebound to a different model");
  state.reserve(params.size());
  for (Tensor* p : params) state.emplace_back(p->shape());
}

}  // namespace

// ---- SGD ----

Sgd::Sgd(LrSchedule schedule, double momentum, double weight_decay)
    : schedule_(std::move(schedule)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  DLB_CHECK(momentum >= 0.0 && momentum < 1.0, "momentum must be in [0,1)");
  DLB_CHECK(weight_decay >= 0.0, "weight decay must be non-negative");
}

void Sgd::step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads, std::int64_t step,
               const Device& dev) {
  check_param_grads(params, grads);
  const auto lr = static_cast<float>(schedule_.rate(step));
  const auto wd = static_cast<float>(weight_decay_);
  const auto mu = static_cast<float>(momentum_);

  if (momentum_ == 0.0) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      float* p = params[i]->raw();
      const float* g = grads[i]->raw();
      dev.parallel_for(
          static_cast<std::size_t>(params[i]->numel()),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k)
              p[k] -= lr * (g[k] + wd * p[k]);
          },
          4096);
    }
    return;
  }

  ensure_state(velocity_, params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->raw();
    const float* g = grads[i]->raw();
    float* v = velocity_[i].raw();
    dev.parallel_for(
        static_cast<std::size_t>(params[i]->numel()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            v[k] = mu * v[k] + g[k] + wd * p[k];
            p[k] -= lr * v[k];
          }
        },
        4096);
  }
}

// ---- Adam ----

Adam::Adam(LrSchedule schedule, double beta1, double beta2, double epsilon,
           double weight_decay)
    : schedule_(std::move(schedule)),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  DLB_CHECK(beta1 >= 0.0 && beta1 < 1.0, "beta1 must be in [0,1)");
  DLB_CHECK(beta2 >= 0.0 && beta2 < 1.0, "beta2 must be in [0,1)");
  DLB_CHECK(epsilon > 0.0, "epsilon must be positive");
}

void Adam::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads, std::int64_t step,
                const Device& dev) {
  check_param_grads(params, grads);
  ensure_state(m_, params);
  ensure_state(v_, params);

  const auto lr = schedule_.rate(step);
  const double t = static_cast<double>(step) + 1.0;
  const double bc1 = 1.0 - std::pow(beta1_, t);
  const double bc2 = 1.0 - std::pow(beta2_, t);
  const auto alpha = static_cast<float>(lr * std::sqrt(bc2) / bc1);
  const auto b1 = static_cast<float>(beta1_);
  const auto b2 = static_cast<float>(beta2_);
  const auto eps = static_cast<float>(epsilon_);
  const auto wd = static_cast<float>(weight_decay_);

  for (std::size_t i = 0; i < params.size(); ++i) {
    float* p = params[i]->raw();
    const float* g = grads[i]->raw();
    float* m = m_[i].raw();
    float* v = v_[i].raw();
    dev.parallel_for(
        static_cast<std::size_t>(params[i]->numel()),
        // Captured by value: through by-reference captures GCC reloads
        // the scalars via the closure every iteration and keeps the
        // loop scalar (vsqrtss/vdivss). With -fno-math-errno on this
        // target (CMakeLists.txt) it vectorizes; vector sqrt and divide
        // round each lane as the scalar instructions do, so the bits are
        // the same.
        [=](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            const float gk = g[k] + wd * p[k];
            m[k] = b1 * m[k] + (1.f - b1) * gk;
            v[k] = b2 * v[k] + (1.f - b2) * gk * gk;
            p[k] -= alpha * m[k] / (std::sqrt(v[k]) + eps);
          }
        },
        4096);
  }
}

}  // namespace dlbench::optim
