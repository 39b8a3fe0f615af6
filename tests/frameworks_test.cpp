// Framework emulation tests: the registry must encode Tables I–III
// exactly; each emulation must apply its own regularizer, init and conv
// implementation; the trainer must learn, record losses, and detect
// divergence.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "frameworks/emulations.hpp"
#include "frameworks/registry.hpp"
#include "nn/conv_direct.hpp"
#include "nn/layers.hpp"
#include "tensor/arena.hpp"

namespace dlbench::frameworks {
namespace {

using runtime::Device;

// ---- Table II: MNIST training defaults ----

TEST(Registry, TableIITfMnist) {
  TrainingConfig c =
      default_training_config(FrameworkKind::kTensorFlow, DatasetId::kMnist);
  EXPECT_EQ(c.algo, OptimizerAlgo::kAdam);
  EXPECT_DOUBLE_EQ(c.base_lr, 0.0001);
  EXPECT_EQ(c.batch_size, 50);
  EXPECT_NEAR(c.epochs, 16.67, 0.01);
  EXPECT_EQ(c.paper_max_iterations, 20000);
}

TEST(Registry, TableIICaffeMnist) {
  TrainingConfig c =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kMnist);
  EXPECT_EQ(c.algo, OptimizerAlgo::kSgd);
  EXPECT_DOUBLE_EQ(c.base_lr, 0.01);
  EXPECT_EQ(c.batch_size, 64);
  EXPECT_NEAR(c.epochs, 10.67, 0.01);
  EXPECT_EQ(c.paper_max_iterations, 10000);
}

TEST(Registry, TableIITorchMnist) {
  TrainingConfig c =
      default_training_config(FrameworkKind::kTorch, DatasetId::kMnist);
  EXPECT_EQ(c.algo, OptimizerAlgo::kSgd);
  EXPECT_DOUBLE_EQ(c.base_lr, 0.05);
  EXPECT_EQ(c.batch_size, 10);
  EXPECT_DOUBLE_EQ(c.epochs, 20.0);
  EXPECT_EQ(c.paper_max_iterations, 120000);
}

// ---- Table III: CIFAR-10 training defaults ----

TEST(Registry, TableIIITfCifar) {
  TrainingConfig c = default_training_config(FrameworkKind::kTensorFlow,
                                             DatasetId::kCifar10);
  EXPECT_EQ(c.algo, OptimizerAlgo::kSgd);
  EXPECT_DOUBLE_EQ(c.base_lr, 0.1);
  EXPECT_EQ(c.batch_size, 128);
  EXPECT_DOUBLE_EQ(c.epochs, 2560.0);
  EXPECT_EQ(c.paper_max_iterations, 1000000);
}

TEST(Registry, TableIIICaffeCifarTwoPhase) {
  TrainingConfig c =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kCifar10);
  EXPECT_DOUBLE_EQ(c.base_lr, 0.001);
  ASSERT_EQ(c.lr_phases.size(), 1u);
  EXPECT_DOUBLE_EQ(c.lr_phases[0].first, 8.0);    // 8 epochs at base lr
  EXPECT_DOUBLE_EQ(c.lr_phases[0].second, 0.0001);  // then 0.0001
  EXPECT_EQ(c.batch_size, 100);
  EXPECT_DOUBLE_EQ(c.epochs, 10.0);
  EXPECT_EQ(c.paper_max_iterations, 5000);
}

TEST(Registry, TableIIITorchCifarBatchOne) {
  TrainingConfig c =
      default_training_config(FrameworkKind::kTorch, DatasetId::kCifar10);
  EXPECT_DOUBLE_EQ(c.base_lr, 0.001);
  EXPECT_EQ(c.batch_size, 1);
  EXPECT_DOUBLE_EQ(c.epochs, 20.0);
  EXPECT_EQ(c.paper_max_iterations, 100000);
}

// ---- Table I: framework properties ----

TEST(Registry, TableIProperties) {
  FrameworkInfo tf = framework_info(FrameworkKind::kTensorFlow);
  EXPECT_EQ(tf.paper_version, "1.3.0");
  EXPECT_EQ(tf.paper_loc, 1281085);
  EXPECT_EQ(tf.paper_license, "Apache");
  FrameworkInfo caffe = framework_info(FrameworkKind::kCaffe);
  EXPECT_EQ(caffe.paper_version, "1.0.0");
  EXPECT_EQ(caffe.paper_library, "OpenBLAS & CUDA");
  FrameworkInfo torch = framework_info(FrameworkKind::kTorch);
  EXPECT_EQ(torch.paper_interface, "Lua");
  EXPECT_EQ(torch.paper_loc, 29750);
}

TEST(Registry, EpochIterationIdentityHolds) {
  // #Epochs = max_steps * batch / #samples (paper §III-A), at the
  // paper's dataset sizes: 60k MNIST, 50k CIFAR-10 training samples.
  for (FrameworkKind fw : kAllFrameworks) {
    {
      TrainingConfig c = default_training_config(fw, DatasetId::kMnist);
      const double derived =
          static_cast<double>(c.paper_max_iterations) * c.batch_size / 60000.0;
      EXPECT_NEAR(derived, c.epochs, 0.01) << to_string(fw) << " MNIST";
    }
    {
      TrainingConfig c = default_training_config(fw, DatasetId::kCifar10);
      // Torch trains on a 5,000-sample subset (train_fraction 0.1);
      // the identity holds against the samples it actually visits.
      const double samples = 50000.0 * c.train_fraction;
      const double derived =
          static_cast<double>(c.paper_max_iterations) * c.batch_size / samples;
      EXPECT_NEAR(derived, c.epochs, 0.01) << to_string(fw) << " CIFAR";
    }
  }
}

// ---- emulation behaviours ----

TEST(Emulations, FactoryProducesMatchingKinds) {
  for (FrameworkKind kind : kAllFrameworks) {
    auto fw = make_framework(kind);
    EXPECT_EQ(fw->kind(), kind);
    EXPECT_EQ(fw->name(), to_string(kind));
  }
}

TEST(Emulations, RegularizersMatchTableIX) {
  EXPECT_EQ(make_framework(FrameworkKind::kTensorFlow)->regularizer(),
            Regularizer::kDropout);
  EXPECT_EQ(make_framework(FrameworkKind::kCaffe)->regularizer(),
            Regularizer::kWeightDecay);
  EXPECT_EQ(make_framework(FrameworkKind::kTorch)->regularizer(),
            Regularizer::kNone);
}

TEST(Emulations, TfInjectsDropoutBeforeClassifier) {
  auto tf = make_framework(FrameworkKind::kTensorFlow);
  nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kCaffe, DatasetId::kMnist);
  util::Rng rng(1);
  nn::Sequential model = tf->build_model(spec, Device::cpu(), rng);
  bool has_dropout = false;
  for (std::size_t i = 0; i < model.size(); ++i)
    if (dynamic_cast<nn::Dropout*>(&model.layer(i))) has_dropout = true;
  EXPECT_TRUE(has_dropout);

  // Caffe builds the same spec with no dropout.
  auto caffe = make_framework(FrameworkKind::kCaffe);
  util::Rng rng2(1);
  nn::Sequential cm = caffe->build_model(spec, Device::cpu(), rng2);
  for (std::size_t i = 0; i < cm.size(); ++i)
    EXPECT_EQ(dynamic_cast<nn::Dropout*>(&cm.layer(i)), nullptr);
}

TEST(Emulations, TorchUsesDirectConvOnCpuGemmOnGpu) {
  auto torch = make_framework(FrameworkKind::kTorch);
  nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kTorch, DatasetId::kMnist);
  util::Rng rng(2);
  nn::Sequential cpu_model = torch->build_model(spec, Device::cpu(), rng);
  bool any_direct = false;
  for (std::size_t i = 0; i < cpu_model.size(); ++i)
    if (dynamic_cast<nn::Conv2dDirect*>(&cpu_model.layer(i)))
      any_direct = true;
  EXPECT_TRUE(any_direct);

  util::Rng rng2(2);
  nn::Sequential gpu_model = torch->build_model(spec, Device::gpu(), rng2);
  for (std::size_t i = 0; i < gpu_model.size(); ++i)
    EXPECT_EQ(dynamic_cast<nn::Conv2dDirect*>(&gpu_model.layer(i)), nullptr);
}

TEST(Emulations, EvalBatchSizes) {
  EXPECT_EQ(make_framework(FrameworkKind::kTensorFlow)->eval_batch_size(),
            100);
  EXPECT_EQ(make_framework(FrameworkKind::kCaffe)->eval_batch_size(), 100);
  EXPECT_EQ(make_framework(FrameworkKind::kTorch)->eval_batch_size(), 1);
}

// ---- training loop ----

class TrainingSmoke : public ::testing::TestWithParam<FrameworkKind> {};

TEST_P(TrainingSmoke, LearnsSyntheticMnistAboveChance) {
  const FrameworkKind kind = GetParam();
  auto fw = make_framework(kind);
  data::MnistOptions d;
  d.train_samples = 300;
  d.test_samples = 100;
  data::DatasetPair mnist = data::synthetic_mnist(d);

  TrainingConfig config = default_training_config(kind, DatasetId::kMnist);
  nn::NetworkSpec spec = default_network_spec(kind, DatasetId::kMnist);
  util::Rng rng(3);
  const Device dev = Device::gpu();
  nn::Sequential model = fw->build_model(spec, dev, rng);

  TrainOptions opts;
  opts.scale.max_step_cap = config.batch_size < 32 ? 250 : 50;
  TrainResult train = fw->train(model, mnist.train, config, dev, opts);
  EXPECT_GT(train.steps, 0);
  EXPECT_GT(train.train_time_s, 0.0);
  EXPECT_FALSE(train.loss_curve.empty());
  EXPECT_TRUE(train.converged) << "final loss " << train.final_loss;

  EvalResult eval = fw->evaluate(model, mnist.test, dev);
  EXPECT_EQ(eval.total, 100);
  EXPECT_GT(eval.accuracy_pct, 60.0) << to_string(kind);
}

INSTANTIATE_TEST_SUITE_P(AllFrameworks, TrainingSmoke,
                         ::testing::ValuesIn(kAllFrameworks),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Training, LossCurveIsRecordedAtInterval) {
  auto fw = make_framework(FrameworkKind::kCaffe);
  data::MnistOptions d;
  d.train_samples = 128;
  d.test_samples = 32;
  data::DatasetPair mnist = data::synthetic_mnist(d);
  TrainingConfig config =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kMnist);
  nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kCaffe, DatasetId::kMnist);
  util::Rng rng(4);
  nn::Sequential model = fw->build_model(spec, Device::gpu(), rng);
  TrainOptions opts;
  opts.scale.max_step_cap = 21;
  opts.loss_record_interval = 5;
  TrainResult res = fw->train(model, mnist.train, config, Device::gpu(), opts);
  ASSERT_GE(res.loss_curve.size(), 5u);  // steps 0,5,10,15,20 at least
  EXPECT_EQ(res.loss_curve.front().first, 0);
  EXPECT_EQ(res.loss_curve.back().first, res.steps - 1);
}

TEST(Training, DivergenceIsDetected) {
  // An absurd learning rate must blow up and be flagged, mirroring the
  // paper's Caffe-on-CIFAR-10-with-MNIST-settings non-convergence.
  auto fw = make_framework(FrameworkKind::kCaffe);
  data::CifarOptions d;
  d.train_samples = 100;
  d.test_samples = 30;
  data::DatasetPair cifar = data::synthetic_cifar10(d);
  TrainingConfig config =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kCifar10);
  config.base_lr = 50.0;  // guaranteed divergence
  config.lr_phases.clear();
  nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kCaffe, DatasetId::kCifar10);
  util::Rng rng(5);
  nn::Sequential model = fw->build_model(spec, Device::gpu(), rng);
  TrainOptions opts;
  opts.scale.max_step_cap = 10;
  TrainResult res = fw->train(model, cifar.train, config, Device::gpu(), opts);
  EXPECT_FALSE(res.converged);
}

TEST(Training, DeterministicAcrossRuns) {
  auto fw = make_framework(FrameworkKind::kCaffe);
  data::MnistOptions d;
  d.train_samples = 100;
  d.test_samples = 50;
  data::DatasetPair mnist = data::synthetic_mnist(d);
  TrainingConfig config =
      default_training_config(FrameworkKind::kCaffe, DatasetId::kMnist);
  nn::NetworkSpec spec =
      default_network_spec(FrameworkKind::kCaffe, DatasetId::kMnist);
  TrainOptions opts;
  opts.scale.max_step_cap = 15;

  auto run_once = [&] {
    util::Rng rng(6);
    nn::Sequential model = fw->build_model(spec, Device::cpu(), rng);
    TrainResult res =
        fw->train(model, mnist.train, config, Device::cpu(), opts);
    EvalResult eval = fw->evaluate(model, mnist.test, Device::cpu());
    return std::make_pair(res.final_loss, eval.accuracy_pct);
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// evaluate classifies through one frozen snapshot of the model, the
// same inference path serving and attack screening run: for each of
// the six default nets on cpu and on 2 workers, its correct count
// equals Sequential::predict's over the same batches, and it maps no
// plan arena. Each test set spans four full eval batches plus a tail,
// so a per-batch planner would have replayed (from batch 4 on).
TEST(Evaluate, RunsTheFrozenModelWithoutAPlanArena) {
  using tensor::arena::Event;
  for (const FrameworkKind kind : kAllFrameworks) {
    auto fw = make_framework(kind);
    const std::int64_t test_samples = 4 * fw->eval_batch_size() + 1;
    for (const DatasetId dataset : {DatasetId::kMnist, DatasetId::kCifar10}) {
      data::DatasetPair data;
      if (dataset == DatasetId::kMnist) {
        data::MnistOptions d;
        d.train_samples = 10;
        d.test_samples = test_samples;
        data = data::synthetic_mnist(d);
      } else {
        data::CifarOptions d;
        d.train_samples = 10;
        d.test_samples = test_samples;
        data = data::synthetic_cifar10(d);
      }
      const nn::NetworkSpec spec = default_network_spec(kind, dataset);
      for (const Device& dev : {Device::cpu(), Device::parallel(2)}) {
        SCOPED_TRACE(std::string(to_string(kind)) + "/" +
                     to_string(dataset) + " workers=" +
                     std::to_string(dev.workers()));
        util::Rng rng(11);
        nn::Sequential model = fw->build_model(spec, dev, rng);

        nn::Context ctx;
        ctx.device = dev;
        ctx.training = false;
        data::DataLoader loader(data.test, fw->eval_batch_size(),
                                /*shuffle=*/false, util::Rng(0));
        std::int64_t want_correct = 0;
        data::Batch batch;
        while (loader.next(batch)) {
          const auto predictions = model.predict(batch.images, ctx);
          for (std::size_t i = 0; i < predictions.size(); ++i)
            if (predictions[i] == batch.labels[i]) ++want_correct;
        }

        const std::int64_t replays = tensor::arena::total(Event::kPlanReplays);
        const std::int64_t arena_allocs =
            tensor::arena::total(Event::kArenaAllocs);
        const nn::Sequential& trained = model;
        const EvalResult eval = fw->evaluate(trained, data.test, dev);
        EXPECT_EQ(eval.total, test_samples);
        EXPECT_EQ(eval.correct, want_correct);
        EXPECT_EQ(tensor::arena::total(Event::kPlanReplays), replays);
        EXPECT_EQ(tensor::arena::total(Event::kArenaAllocs), arena_allocs);
      }
    }
  }
}

// Every kernel a training step runs (conv forward/backward including
// the batched dW chain, pooling, GEMM, the optimizer) is bitwise
// independent of the device's worker count, so whole training runs
// are too: 6 steps of TF-MNIST and Caffe-CIFAR on cpu and on 2, 3 and
// 4 workers end with memcmp-equal parameters.
TEST(Training, ParamsAreBitwiseInvariantToDeviceWorkers) {
  struct Cell {
    FrameworkKind kind;
    DatasetId dataset;
  };
  for (const Cell cell : {Cell{FrameworkKind::kTensorFlow, DatasetId::kMnist},
                          Cell{FrameworkKind::kCaffe, DatasetId::kCifar10}}) {
    auto fw = make_framework(cell.kind);
    data::DatasetPair data;
    if (cell.dataset == DatasetId::kMnist) {
      data::MnistOptions d;
      d.train_samples = 300;
      d.test_samples = 10;
      data = data::synthetic_mnist(d);
    } else {
      data::CifarOptions d;
      d.train_samples = 600;
      d.test_samples = 10;
      data = data::synthetic_cifar10(d);
    }
    const TrainingConfig config =
        default_training_config(cell.kind, cell.dataset);
    const nn::NetworkSpec spec = default_network_spec(cell.kind, cell.dataset);
    auto train_params = [&](const Device& dev) {
      util::Rng rng(9);
      nn::Sequential model = fw->build_model(spec, dev, rng);
      TrainOptions opts;
      opts.scale.max_step_cap = 6;
      const TrainResult res = fw->train(model, data.train, config, dev, opts);
      EXPECT_EQ(res.steps, 6);
      std::vector<tensor::Tensor> params;
      for (const tensor::Tensor* p : model.params()) params.push_back(p->clone());
      return params;
    };
    const std::vector<tensor::Tensor> want = train_params(Device::cpu());
    for (const int workers : {2, 3, 4}) {
      const std::vector<tensor::Tensor> got =
          train_params(Device::parallel(workers));
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t p = 0; p < want.size(); ++p) {
        ASSERT_EQ(got[p].numel(), want[p].numel());
        EXPECT_EQ(0, std::memcmp(got[p].raw(), want[p].raw(),
                                 static_cast<std::size_t>(want[p].numel()) *
                                     sizeof(float)))
            << to_string(cell.kind) << " workers=" << workers << " param "
            << p;
      }
    }
  }
}

}  // namespace
}  // namespace dlbench::frameworks
