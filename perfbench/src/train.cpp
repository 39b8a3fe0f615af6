// Training workloads.
//
// train_mnist: TF's MNIST default setting (Adam, batch 50, conv5x5
// 32->64, fc 1024, dropout) trained by Framework::train on a 2-worker
// parallel device for a fixed step count, then Framework::evaluate on the
// test split.
//
// train_cifar_dp: Caffe's CIFAR-10 default setting (SGD + weight decay,
// batch 100) trained by DataParallelTrainer with K = 2 workers and S = 4
// shards; replica kernels run serially on 25-sample shards.
//
// Each repetition rebuilds the model from the same seed, so every
// repetition must reproduce the first one's loss curve bit for bit.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "frameworks/data_parallel.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/registry.hpp"
#include "nn/plan.hpp"
#include "probes.hpp"
#include "runtime/comm.hpp"

namespace perfbench {

namespace {

namespace fw = dlbench::frameworks;
namespace nn = dlbench::nn;
namespace data = dlbench::data;
using dlbench::runtime::Device;
using dlbench::tensor::Tensor;

// ---- optimizer-step clock --------------------------------------------

// Records the wall time between consecutive optimizer steps: the one
// per-step observation point the public Framework interface offers.
// Steps before the execution plan replays (heap warm-up, then the
// measured step) are left out, so the step-time percentiles describe
// the steady state; their cost still counts in the training throughput.
class ClockedOptimizer final : public dlbench::optim::Optimizer {
 public:
  ClockedOptimizer(std::unique_ptr<Optimizer> inner,
                   std::vector<double>& intervals_ms)
      : inner_(std::move(inner)), intervals_ms_(intervals_ms) {}

  std::string name() const override { return inner_->name(); }
  void step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads, std::int64_t step,
            const Device& dev) override {
    inner_->step(params, grads, step, dev);
    const auto now = Clock::now();
    if (last_ && step > nn::PlanOptions{}.warmup_steps)
      intervals_ms_.push_back(1e3 * seconds_between(*last_, now));
    last_ = now;
  }

 private:
  std::unique_ptr<Optimizer> inner_;
  std::vector<double>& intervals_ms_;
  std::optional<Clock::time_point> last_;
};

// Forwards every customisation point to `inner`, wrapping its optimizer
// in a ClockedOptimizer; train() and evaluate() are the library's own.
class StepClockFramework final : public fw::Framework {
 public:
  StepClockFramework(const fw::Framework& inner,
                     std::vector<double>& intervals_ms)
      : inner_(inner), intervals_ms_(intervals_ms) {}

  fw::FrameworkKind kind() const override { return inner_.kind(); }
  fw::Regularizer regularizer() const override { return inner_.regularizer(); }
  nn::Sequential build_model(const nn::NetworkSpec& spec, const Device& device,
                             dlbench::util::Rng& rng) const override {
    return inner_.build_model(spec, device, rng);
  }
  std::unique_ptr<dlbench::optim::Optimizer> make_optimizer(
      const fw::TrainingConfig& config, std::int64_t steps_per_epoch,
      std::int64_t total_steps) const override {
    return std::make_unique<ClockedOptimizer>(
        inner_.make_optimizer(config, steps_per_epoch, total_steps),
        intervals_ms_);
  }
  void prepare(nn::Sequential& model, const Tensor& sample,
               const nn::Context& ctx) const override {
    inner_.prepare(model, sample, ctx);
  }
  std::int64_t eval_batch_size() const override {
    return inner_.eval_batch_size();
  }

 private:
  const fw::Framework& inner_;
  std::vector<double>& intervals_ms_;
};

// ---- set-up -----------------------------------------------------------

struct TrainWorkload {
  fw::FrameworkKind framework;
  fw::DatasetId dataset;
  std::int64_t train_samples;
  std::int64_t test_samples;
  std::int64_t steps;  // optimizer steps per repetition
  /// Correctness band for the final loss and test accuracy (%), across
  /// seeds; recorded from runs of this benchmark.
  double loss_lo, loss_hi, acc_lo, acc_hi;
};

// One epoch of TF-MNIST (20 x 50) and one of Caffe-CIFAR (12 x 100).
constexpr TrainWorkload kTrainMnist{fw::FrameworkKind::kTensorFlow,
                                    fw::DatasetId::kMnist,
                                    1000, 500, 20,
                                    0.3, 2.2, 40.0, 100.0};
// Twelve steps at Caffe's CIFAR rate barely leave chance level, so its
// band only bounds the loss near ln(10).
constexpr TrainWorkload kTrainCifar{fw::FrameworkKind::kCaffe,
                                    fw::DatasetId::kCifar10,
                                    1200, 500, 12,
                                    2.2, 2.4, 0.0, 100.0};

constexpr int kDpWorkers = 2;  // K
constexpr int kDpShards = 4;   // S

struct TrainSetup {
  std::unique_ptr<fw::Framework> framework;
  fw::TrainingConfig config;
  nn::NetworkSpec spec;
  data::Dataset train, test;
  std::uint64_t model_seed = 0;
  std::uint64_t train_seed = 0;
  double synth_s = 0.0;
  nn::Sequential model;  // built once here; repetitions rebuild it
};

nn::Sequential build(const TrainSetup& s, const Device& device) {
  dlbench::util::Rng rng(s.model_seed);
  return s.framework->build_model(s.spec, device, rng);
}

TrainSetup make_setup(const TrainWorkload& w, std::uint64_t seed,
                      const Device& device) {
  TrainSetup s;
  s.framework = fw::make_framework(w.framework);
  s.config = fw::default_training_config(w.framework, w.dataset);
  s.spec = fw::default_network_spec(w.framework, w.dataset);
  s.model_seed = derive_seed(seed, 2);
  s.train_seed = derive_seed(seed, 3);

  const auto t0 = Clock::now();
  data::DatasetPair pair;
  if (w.dataset == fw::DatasetId::kMnist) {
    data::MnistOptions opt;
    opt.train_samples = w.train_samples;
    opt.test_samples = w.test_samples;
    opt.seed = derive_seed(seed, 1);
    pair = data::synthetic_mnist(opt);
  } else {
    data::CifarOptions opt;
    opt.train_samples = w.train_samples;
    opt.test_samples = w.test_samples;
    opt.seed = derive_seed(seed, 1);
    pair = data::synthetic_cifar10(opt);
  }
  s.synth_s = seconds_since(t0);
  s.train = std::move(pair.train);
  s.test = std::move(pair.test);
  data::apply_preprocessing(s.config.preprocessing, s.train, s.test);
  s.spec.input_channels = s.train.channels();
  s.spec.input_height = s.train.height();
  s.spec.input_width = s.train.width();
  s.model = build(s, device);
  return s;
}

// Every knob spelled out: nothing is read from the environment.
fw::TrainOptions pinned_options(std::uint64_t train_seed, std::int64_t steps) {
  fw::TrainOptions o;
  o.scale.data_fraction = 1.0;
  o.scale.epoch_fraction = 1.0;
  o.scale.max_step_cap = steps;
  o.seed = train_seed;
  o.loss_record_interval = 1;  // the whole curve, for the identity checks
  o.min_steps_floor = 0;
  o.guard.max_recoveries = 2;
  o.guard.snapshot_interval = 50;
  o.guard.lr_backoff = 0.1;
  o.guard.grad_norm_limit = 0.0;
  o.guard.timeout_s = 60.0;
  return o;
}

fw::DataParallelOptions pinned_dp_options(std::uint64_t train_seed,
                                          std::int64_t steps, int workers) {
  fw::DataParallelOptions o;
  o.workers = workers;
  o.shards = kDpShards;
  o.train = pinned_options(train_seed, steps);
  return o;
}

// ---- measured repetitions ---------------------------------------------

struct Rep {
  fw::TrainResult train;
  fw::EvalResult eval;
};

class TrainRunner {
 public:
  TrainRunner(const TrainWorkload& w, const TrainSetup& s, bool data_parallel)
      : w_(w), s_(s), data_parallel_(data_parallel),
        clocked_(*s.framework, intervals_ms_) {}

  /// Trains a freshly built model for w.steps and evaluates it.
  Rep run(int workers = kDpWorkers, std::int64_t steps = 0) {
    Rep rep;
    const std::int64_t n = steps > 0 ? steps : w_.steps;
    if (data_parallel_) {
      nn::Sequential model = build(s_, cpu_);
      fw::DataParallelTrainer trainer(
          clocked_, pinned_dp_options(s_.train_seed, n, workers));
      rep.train = trainer.train(model, s_.train, s_.config, cpu_);
      rep.eval = s_.framework->evaluate(model, s_.test, parallel_);
    } else {
      nn::Sequential model = build(s_, parallel_);
      rep.train = clocked_.train(model, s_.train, s_.config, parallel_,
                                 pinned_options(s_.train_seed, n));
      rep.eval = s_.framework->evaluate(model, s_.test, parallel_);
    }
    return rep;
  }

  const std::vector<double>& intervals_ms() const { return intervals_ms_; }

 private:
  const TrainWorkload& w_;
  const TrainSetup& s_;
  bool data_parallel_;
  std::vector<double> intervals_ms_;
  StepClockFramework clocked_;
  Device parallel_ = Device::parallel(2);
  Device cpu_ = Device::cpu();
};

bool same_curve(const fw::TrainResult& a, const fw::TrainResult& b,
                std::size_t prefix) {
  if (a.loss_curve.size() < prefix || b.loss_curve.size() < prefix)
    return false;
  for (std::size_t i = 0; i < prefix; ++i) {
    if (a.loss_curve[i].first != b.loss_curve[i].first) return false;
    if (std::memcmp(&a.loss_curve[i].second, &b.loss_curve[i].second,
                    sizeof(double)) != 0)
      return false;
  }
  return true;
}

void check_rep(const TrainWorkload& w, const Rep& rep, const Rep& first,
               Outcome& out) {
  const auto& t = rep.train;
  out.attempted += t.steps;
  if (t.diverged || t.timed_out) ++out.failed;
  out.check(!t.diverged && !t.timed_out && t.steps == w.steps,
            "training run diverged, timed out or stopped early");
  bool finite = true;
  for (const auto& [step, loss] : t.loss_curve)
    finite = finite && std::isfinite(loss);
  out.check(finite, "loss curve has a non-finite value");
  out.check(same_curve(t, first.train, first.train.loss_curve.size()) &&
                t.loss_curve.size() == first.train.loss_curve.size(),
            "loss curve differs between repetitions");
  out.check(rep.eval.correct == first.eval.correct,
            "test accuracy differs between repetitions");
  out.check(t.final_loss >= w.loss_lo && t.final_loss <= w.loss_hi,
            "final loss " + std::to_string(t.final_loss) + " outside band");
  out.check(rep.eval.accuracy_pct >= w.acc_lo &&
                rep.eval.accuracy_pct <= w.acc_hi,
            "test accuracy " + std::to_string(rep.eval.accuracy_pct) +
                " outside band");
}

void run_end_to_end(const TrainWorkload& w, bool data_parallel,
                    const Options& options, Outcome& out) {
  MetricTable table(end_to_end_schema());
  auto [setup, setup_s] = timed_setup([&] {
    return make_setup(w, options.seed,
                      data_parallel ? Device::cpu() : Device::parallel(2));
  });
  table.set("setup_s", setup_s);

  TrainRunner runner(w, setup, data_parallel);
  std::vector<Rep> reps;
  std::vector<double> train_rate, test_rate;
  const auto t0 = Clock::now();
  while (reps.size() < 3 || seconds_since(t0) < options.seconds) {
    reps.push_back(runner.run());
    const Rep& rep = reps.back();
    train_rate.push_back(static_cast<double>(rep.train.steps) *
                         static_cast<double>(setup.config.batch_size) /
                         rep.train.train_time_s);
    test_rate.push_back(static_cast<double>(rep.eval.total) /
                        rep.eval.test_time_s);
  }
  for (const Rep& rep : reps) check_rep(w, rep, reps.front(), out);
  const std::vector<double> steps_ms = runner.intervals_ms();

  if (data_parallel) {
    // The K-invariance contract: a K = 1 run reproduces the K = 2 loss
    // curve. Four steps stay ahead of the learning-rate phase change.
    const Rep single = runner.run(/*workers=*/1, /*steps=*/4);
    out.attempted += single.train.steps;
    out.check(same_curve(single.train, reps.front().train, 4),
              "K = 1 loss curve differs from K = 2");
  }

  table.set("throughput_per_s", median(train_rate));
  table.set("latency_p50_ms", percentile(steps_ms, 50));
  table.set("latency_tail_ms", percentile(steps_ms, 90));
  table.set("infer_per_s", median(test_rate));
  table.set("peak_rss_mib", peak_rss_mib());
  std::cout << "repetitions " << reps.size() << ", step intervals "
            << steps_ms.size() << ", final loss "
            << reps.front().train.final_loss << ", test accuracy "
            << reps.front().eval.accuracy_pct << "%\n";
  table.emit(out, /*require_all=*/true);
}

// ---- traced run ---------------------------------------------------------

void record_counters(const Rep& rep, Outcome& out) {
  const auto& t = rep.train;
  out.counter("train.train_time_s", t.train_time_s);
  out.counter("train.steps", static_cast<double>(t.steps));
  out.counter("train.phases.data_s", t.phases.data_s);
  out.counter("train.phases.forward_s", t.phases.forward_s);
  out.counter("train.phases.backward_s", t.phases.backward_s);
  out.counter("train.phases.optimizer_s", t.phases.optimizer_s);
  out.counter("train.phases.guard_s", t.phases.guard_s);
  out.counter("train.phases.comm_s", t.phases.comm_s);
  out.counter("train.plan_arena_bytes",
              static_cast<double>(t.plan_arena_bytes));
  out.counter("train.plan_replayed_steps",
              static_cast<double>(t.plan_replayed_steps));
  out.counter("eval.test_time_s", rep.eval.test_time_s);
}

// Batches from `loader`, starting a new epoch whenever one runs out.
bool next_batch(data::DataLoader& loader, data::Batch& batch, Tracer& tracer,
                std::int64_t id) {
  auto span = tracer.span("data.next", id);
  if (loader.next(batch)) return true;
  loader.start_epoch();
  return loader.next(batch);
}

// Row slice [offset, offset + rows) of a batch.
void slice_rows(const data::Batch& batch, std::int64_t offset,
                std::int64_t rows, data::Batch& out) {
  const std::int64_t row_floats = batch.images.numel() / batch.size();
  out.images = Tensor({rows, batch.images.dim(1), batch.images.dim(2),
                       batch.images.dim(3)});
  std::memcpy(out.images.raw(), batch.images.raw() + offset * row_floats,
              static_cast<std::size_t>(rows * row_floats) * sizeof(float));
  out.labels.assign(batch.labels.begin() + offset,
                    batch.labels.begin() + offset + rows);
}

// The serial training step, driven through the same public calls
// Framework::train makes, each in a span. Returns the step's wall ms.
class SerialStepDriver {
 public:
  SerialStepDriver(const TrainSetup& s, const Device& device)
      : device_(device), model_(build(s, device)),
        loader_(s.train, s.config.batch_size, true,
                dlbench::util::Rng(s.train_seed)),
        dropout_rng_(s.train_seed ^ 0xd0) {
    const std::int64_t spe = loader_.batches_per_epoch();
    optimizer_ = s.framework->make_optimizer(s.config, spe, 1 << 20);
    ctx_.device = device;
    ctx_.training = true;
    ctx_.rng = &dropout_rng_;
    loader_.start_epoch();
  }

  double step(Tracer& tracer) {
    const std::int64_t id = step_++;
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("frameworks.step", id);
      next_batch(loader_, batch_, tracer, id);  // outside the plan extent
      auto plan = planner_.step(batch_.size());
      model_.zero_grads();
      nn::LossResult loss;
      {
        auto s = tracer.span("nn.forward_loss", id);
        loss = model_.forward_loss(batch_.images, batch_.labels, ctx_);
      }
      {
        auto s = tracer.span("nn.backward", id);
        model_.backward(loss, batch_.labels, ctx_);
      }
      auto s = tracer.span("optim.step", id);
      optimizer_->step(model_.params(), model_.grads(), id, device_);
    }
    return 1e3 * seconds_since(t0);
  }

  /// One layer-by-layer pass on the next batch (probes.hpp).
  PassFlops layer_pass_step(Tracer& tracer) {
    const std::int64_t id = step_++;
    Tracer off(false);
    next_batch(loader_, batch_, off, id);
    auto plan = planner_.step(batch_.size());
    model_.zero_grads();
    return layer_pass(model_, batch_.images, batch_.labels, ctx_, tracer, id);
  }

 private:
  Device device_;
  nn::Sequential model_;
  data::DataLoader loader_;
  dlbench::util::Rng dropout_rng_;
  std::unique_ptr<dlbench::optim::Optimizer> optimizer_;
  nn::Context ctx_;
  nn::StepPlanner planner_{nn::PlanOptions{}};
  data::Batch batch_;
  std::int64_t step_ = 0;
};

// The data-parallel step, driven serially: S shard forward/backward
// passes on one replica, the shard-ordered reduce into the master, the
// optimizer step and the broadcast to K replicas.
class DpStepDriver {
 public:
  explicit DpStepDriver(const TrainSetup& s)
      : master_(build(s, Device::cpu())),
        loader_(s.train, s.config.batch_size, true,
                dlbench::util::Rng(s.train_seed)) {
    for (int k = 0; k < kDpWorkers; ++k) replicas_.push_back(master_.clone());
    optimizer_ = s.framework->make_optimizer(
        s.config, loader_.batches_per_epoch(), 1 << 20);
    for (Tensor* g : master_.grads()) {
      params_ += g->numel();
      std::vector<Tensor> slots;
      for (int sh = 0; sh < kDpShards; ++sh) slots.emplace_back(g->shape());
      shard_grads_.push_back(std::move(slots));
    }
    loader_.start_epoch();
  }

  std::int64_t params() const { return params_; }

  double step(Tracer& tracer) {
    const std::int64_t id = step_++;
    const auto t0 = Clock::now();
    auto span = tracer.span("frameworks.step", id);
    next_batch(loader_, batch_, tracer, id);
    const std::int64_t rows = batch_.size() / kDpShards;
    nn::Sequential& replica = replicas_.front();
    for (int sh = 0; sh < kDpShards; ++sh) {
      data::Batch part;
      slice_rows(batch_, sh * rows, rows, part);
      dlbench::util::Rng rng(derive_seed(id, static_cast<std::uint64_t>(sh)));
      nn::Context ctx;
      ctx.training = true;
      ctx.rng = &rng;
      auto shard_span = tracer.span("frameworks.dp.shard", id);
      auto plan = planner_.step(rows);
      replica.zero_grads();
      nn::LossResult loss;
      {
        auto s = tracer.span("nn.forward_loss", id);
        loss = replica.forward_loss(part.images, part.labels, ctx);
      }
      {
        auto s = tracer.span("nn.backward", id);
        replica.backward(loss, part.labels, ctx);
      }
      const auto grads = replica.grads();
      for (std::size_t p = 0; p < grads.size(); ++p) {
        const auto src = grads[p]->data();
        std::copy(src.begin(), src.end(),
                  shard_grads_[p][static_cast<std::size_t>(sh)].raw());
      }
    }
    const auto master_grads = master_.grads();
    const auto master_params = master_.params();
    const std::vector<double> weights(kDpShards, 1.0 / kDpShards);
    {
      auto s = tracer.span("runtime.comm.reduce", id);
      for (std::size_t p = 0; p < master_grads.size(); ++p) {
        std::vector<const float*> parts;
        for (const Tensor& slot : shard_grads_[p]) parts.push_back(slot.raw());
        dlbench::runtime::comm::reduce_weighted_sum(
            parts, weights, master_grads[p]->raw(),
            static_cast<std::size_t>(master_grads[p]->numel()), cpu_);
      }
    }
    {
      auto s = tracer.span("optim.step", id);
      optimizer_->step(master_params, master_grads, id, cpu_);
    }
    {
      auto s = tracer.span("runtime.comm.broadcast", id);
      for (std::size_t p = 0; p < master_params.size(); ++p) {
        std::vector<float*> dsts;
        for (nn::Sequential& r : replicas_)
          dsts.push_back(r.params()[p]->raw());
        dlbench::runtime::comm::broadcast(
            master_params[p]->raw(), dsts,
            static_cast<std::size_t>(master_params[p]->numel()), cpu_);
      }
    }
    return 1e3 * seconds_since(t0);
  }

  /// One layer-by-layer pass on one shard of the next batch.
  PassFlops layer_pass_step(Tracer& tracer) {
    const std::int64_t id = step_++;
    Tracer off(false);
    next_batch(loader_, batch_, off, id);
    data::Batch part;
    slice_rows(batch_, 0, batch_.size() / kDpShards, part);
    dlbench::util::Rng rng(derive_seed(id, 0));
    nn::Context ctx;
    ctx.training = true;
    ctx.rng = &rng;
    auto plan = planner_.step(part.size());
    nn::Sequential& replica = replicas_.front();
    replica.zero_grads();
    return layer_pass(replica, part.images, part.labels, ctx, tracer, id);
  }

 private:
  Device cpu_ = Device::cpu();
  nn::Sequential master_;
  std::vector<nn::Sequential> replicas_;
  data::DataLoader loader_;
  std::unique_ptr<dlbench::optim::Optimizer> optimizer_;
  std::vector<std::vector<Tensor>> shard_grads_;  // [param][shard]
  std::int64_t params_ = 0;
  nn::StepPlanner planner_{nn::PlanOptions{}};
  data::Batch batch_;
  std::int64_t step_ = 0;
};

// Alternates untraced and traced blocks of driven steps, so drift hits
// both; returns {untraced median, traced median} step ms.
template <class Driver>
std::pair<double, double> driven_steps(Driver& driver, Tracer& tracer,
                                       double seconds) {
  std::vector<double> off_ms, on_ms;
  const auto t0 = Clock::now();
  while (on_ms.size() < 6 || seconds_since(t0) < seconds) {
    tracer.set_enabled(false);
    for (int i = 0; i < 3; ++i) off_ms.push_back(driver.step(tracer));
    tracer.set_enabled(true);
    for (int i = 0; i < 3; ++i) on_ms.push_back(driver.step(tracer));
  }
  return {median(off_ms), median(on_ms)};
}

void run_traced(const TrainWorkload& w, bool data_parallel,
                const Options& options, Outcome& out) {
  MetricTable table(per_layer_schema());
  Tracer tracer(true);
  const Device device = data_parallel ? Device::cpu() : Device::parallel(2);
  const TrainSetup setup = make_setup(w, options.seed, device);
  table.set("data.synth_s", setup.synth_s);

  // The library's own loop, untraced: the step it takes, and its
  // counters as cross-checks beside the spans.
  TrainRunner runner(w, setup, data_parallel);
  const Rep rep = runner.run();
  check_rep(w, rep, rep, out);
  record_counters(rep, out);
  const double step_ms = median(runner.intervals_ms());
  table.set("frameworks.step_ms", step_ms);
  table.set("nn.arena_mib",
            static_cast<double>(rep.train.plan_arena_bytes) / (1 << 20));
  table.set("nn.replayed_steps",
            static_cast<double>(rep.train.plan_replayed_steps));

  nn::Context ctx;
  ctx.device = device;
  for (int r = 0; r < 5; ++r) {
    nn::Sequential model = build(setup, device);
    auto span = tracer.span("frameworks.prepare", r);
    setup.framework->prepare(model, setup.train.sample(0), ctx);
  }
  table.set("frameworks.prepare_ms", tracer.median_ms("frameworks.prepare"));
  pool_probe(200, tracer, table);

  const double budget = 0.4 * options.seconds;
  std::pair<double, double> overhead;
  PassFlops flops;
  if (data_parallel) {
    DpStepDriver driver(setup);
    overhead = driven_steps(driver, tracer, budget);
    const auto t0 = Clock::now();
    for (int i = 0; i < 5 || seconds_since(t0) < budget; ++i)
      flops = driver.layer_pass_step(tracer);
    const double shard = tracer.median_ms("frameworks.dp.shard");
    const double reduce = tracer.median_ms("runtime.comm.reduce");
    const double bcast = tracer.median_ms("runtime.comm.broadcast");
    table.set("frameworks.dp.shard_ms", shard);
    table.set("frameworks.dp.idle_share",
              1.0 - kDpShards * shard / (kDpWorkers * step_ms));
    table.set("runtime.comm.reduce_ms", reduce);
    table.set("runtime.comm.broadcast_ms", bcast);
    // Reduce reads S parts and writes the master; broadcast reads the
    // master and writes K replicas.
    table.set("runtime.comm.bytes_per_step",
              4.0 * static_cast<double>(driver.params()) *
                  (kDpShards + 1 + 1 + kDpWorkers));
    const double timed = tracer.median_ms("data.next") +
                         kDpShards * shard / kDpWorkers + reduce + bcast +
                         tracer.median_ms("optim.step");
    table.set("frameworks.unattributed_share", 1.0 - timed / step_ms);
  } else {
    SerialStepDriver driver(setup, device);
    overhead = driven_steps(driver, tracer, budget);
    const auto t0 = Clock::now();
    for (int i = 0; i < 5 || seconds_since(t0) < budget; ++i)
      flops = driver.layer_pass_step(tracer);
    const double timed = tracer.median_ms("data.next") +
                         tracer.median_ms("nn.forward_loss") +
                         tracer.median_ms("nn.backward") +
                         tracer.median_ms("optim.step");
    table.set("frameworks.unattributed_share", 1.0 - timed / step_ms);

    // Framework::evaluate's batch: Sequential::predict under a plan.
    nn::Sequential model = build(setup, device);
    nn::StepPlanner planner{nn::PlanOptions{}};
    data::DataLoader loader(setup.test, setup.framework->eval_batch_size(),
                            false, dlbench::util::Rng(0));
    data::Batch batch;
    Tracer off(false);
    for (int r = 0; r < 10; ++r) {
      next_batch(loader, batch, off, r);
      auto plan = planner.step(batch.size());
      auto span = tracer.span("frameworks.eval_batch", r);
      (void)model.predict(batch.images, ctx);
    }
    table.set("frameworks.eval_batch_ms",
              tracer.median_ms("frameworks.eval_batch"));
  }
  set_layer_metrics(tracer, flops, table);
  table.set("data.next_ms", tracer.median_ms("data.next"));
  table.set("nn.forward_loss_ms", tracer.median_ms("nn.forward_loss"));
  table.set("nn.backward_ms", tracer.median_ms("nn.backward"));
  table.set("optim.step_ms", tracer.median_ms("optim.step"));
  out.attempted += static_cast<std::int64_t>(
      tracer.durations_ms("frameworks.step").size());
  finish_trace(options, tracer, overhead.first, overhead.second, table, out);
}

}  // namespace

void run_train_mnist(const Options& options, Outcome& out) {
  if (options.trace)
    run_traced(kTrainMnist, false, options, out);
  else
    run_end_to_end(kTrainMnist, false, options, out);
}

void run_train_cifar_dp(const Options& options, Outcome& out) {
  if (options.trace)
    run_traced(kTrainCifar, true, options, out);
  else
    run_end_to_end(kTrainCifar, true, options, out);
}

}  // namespace perfbench
