// Integration tests over the experiment harness: full paper-style
// experiment cells at a tiny test profile.

#include <gtest/gtest.h>

#include "core/harness.hpp"
#include "core/report.hpp"

namespace dlbench::core {
namespace {

using frameworks::DatasetId;
using frameworks::FrameworkKind;
using runtime::Device;

Harness& test_harness() {
  static Harness harness(HarnessOptions::test_profile());
  return harness;
}

TEST(Harness, OwnsBothDatasets) {
  Harness& h = test_harness();
  EXPECT_EQ(h.train_set(DatasetId::kMnist).size(), 300);
  EXPECT_EQ(h.test_set(DatasetId::kMnist).size(), 100);
  EXPECT_EQ(h.train_set(DatasetId::kCifar10).channels(), 3);
}

TEST(Harness, BaselineCellRunsAndLearns) {
  Harness& h = test_harness();
  RunRecord rec =
      h.run_default(FrameworkKind::kCaffe, DatasetId::kMnist, Device::gpu());
  EXPECT_EQ(rec.framework, "Caffe");
  EXPECT_EQ(rec.setting, "Caffe MNIST");
  EXPECT_EQ(rec.device, "GPU");
  EXPECT_GT(rec.train.train_time_s, 0.0);
  EXPECT_GT(rec.eval.test_time_s, 0.0);
  EXPECT_GT(rec.eval.accuracy_pct, 50.0);
  EXPECT_EQ(rec.eval.total, 100);
}

TEST(Harness, CrossSettingCellAdaptsInputGeometry) {
  // TF framework, Torch's MNIST setting — the Fig 6 middle cells.
  Harness& h = test_harness();
  RunRecord rec = h.run(FrameworkKind::kTensorFlow, FrameworkKind::kTorch,
                        DatasetId::kMnist, DatasetId::kMnist, Device::gpu());
  EXPECT_EQ(rec.setting, "Torch MNIST");
  EXPECT_EQ(rec.framework, "TensorFlow");
  EXPECT_GT(rec.eval.accuracy_pct, 30.0);
}

TEST(Harness, CrossDatasetCellRuns) {
  // Caffe's MNIST setting used on CIFAR-10 — the Fig 4 cells (this is
  // the one the paper reports as non-converging at full scale).
  Harness& h = test_harness();
  RunRecord rec = h.run(FrameworkKind::kCaffe, FrameworkKind::kCaffe,
                        DatasetId::kMnist, DatasetId::kCifar10, Device::gpu());
  EXPECT_EQ(rec.dataset, "CIFAR-10/train");
  EXPECT_EQ(rec.eval.total, 100);
}

TEST(Harness, TrainedModelIsAttackable) {
  Harness& h = test_harness();
  auto trained = h.train_model(FrameworkKind::kCaffe, FrameworkKind::kCaffe,
                               DatasetId::kMnist, DatasetId::kMnist,
                               Device::gpu());
  nn::Context ctx;
  ctx.device = Device::gpu();
  auto preds =
      trained.model.predict(h.test_set(DatasetId::kMnist).sample(0), ctx);
  EXPECT_EQ(preds.size(), 1u);
}

TEST(Harness, FcWidthAblationChangesModel) {
  Harness& h = test_harness();
  auto narrow = h.train_model_with_fc_width(
      FrameworkKind::kCaffe, FrameworkKind::kCaffe, DatasetId::kMnist,
      DatasetId::kMnist, Device::gpu(), /*fc_width=*/100);
  EXPECT_GT(narrow.record.eval.accuracy_pct, 30.0);
}

TEST(Report, TableRendersRecords) {
  Harness& h = test_harness();
  RunRecord rec =
      h.run_default(FrameworkKind::kCaffe, DatasetId::kMnist, Device::cpu());
  util::Table table = results_table("Test table", {rec});
  const std::string s = table.to_string();
  EXPECT_NE(s.find("Caffe"), std::string::npos);
  EXPECT_NE(s.find("Accuracy"), std::string::npos);
  EXPECT_FALSE(summarize(rec).empty());
}

TEST(HarnessOptions, EnvProfileDefaultsAreSane) {
  HarnessOptions opt = HarnessOptions::from_env();
  EXPECT_GT(opt.mnist_train, 0);
  EXPECT_GT(opt.cifar_flop_budget, 0);
  EXPECT_GT(opt.small_batch_step_cap, 0);
}

}  // namespace
}  // namespace dlbench::core
