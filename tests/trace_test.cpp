// Tracing/metrics subsystem: scope activation, span recording and
// aggregation, counters vs gauges, drop caps, chrome://tracing export,
// and the instrumentation wired into the harness/report layers.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/harness.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"
#include "frameworks/data_parallel.hpp"
#include "frameworks/registry.hpp"
#include "runtime/device.hpp"
#include "runtime/trace.hpp"
#include "tensor/matmul.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlbench::runtime::trace {
namespace {

TEST(TraceTest, DisabledByDefault) {
  EXPECT_FALSE(enabled());
  // Instrumentation points must be safe no-ops with no scope active.
  { Span span("orphan", "test"); }
  counter_add("orphan.counter", 3);
  gauge_record("orphan.gauge", 7);
  EXPECT_FALSE(enabled());
}

TEST(TraceTest, ScopeActivatesAndDeactivates) {
  ASSERT_FALSE(enabled());
  {
    TraceScope scope;
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

TEST(TraceTest, NestedScopesThrow) {
  TraceScope outer;
  EXPECT_THROW({ TraceScope inner; }, dlbench::Error);
}

TEST(TraceTest, SpansAggregateIntoReport) {
  TraceScope scope;
  for (int i = 0; i < 5; ++i) {
    Span span("unit.work", "test");
  }
  TraceReport report = scope.report();
  ASSERT_FALSE(report.empty());
  bool found = false;
  for (const SpanStat& s : report.spans) {
    if (s.name != "unit.work") continue;
    found = true;
    EXPECT_EQ(s.category, "test");
    EXPECT_EQ(s.count, 5);
    EXPECT_GE(s.total_s, 0.0);
    EXPECT_GE(s.max_s, s.min_s);
    EXPECT_LE(s.min_s * s.count, s.total_s + 1e-12);
  }
  EXPECT_TRUE(found);
  EXPECT_GT(report.total_for("unit.work"), -1.0);
  EXPECT_DOUBLE_EQ(report.total_for("unit.work"),
                   report.category_total("test"));
  EXPECT_EQ(report.total_for("no.such.span"), 0.0);
}

TEST(TraceTest, NullNamedSpanIsNoOp) {
  TraceScope scope;
  { Span span(nullptr, "test"); }
  EXPECT_TRUE(scope.report().empty());
}

TEST(TraceTest, CountersSumAndGaugesPeak) {
  TraceScope scope;
  counter_add("c.items", 2);
  counter_add("c.items", 3);
  gauge_record("g.depth", 5);
  gauge_record("g.depth", 9);
  gauge_record("g.depth", 1);
  TraceReport report = scope.report();
  ASSERT_EQ(report.counters.size(), 2u);
  const CounterStat* items = nullptr;
  const CounterStat* depth = nullptr;
  for (const CounterStat& c : report.counters) {
    if (c.name == "c.items") items = &c;
    if (c.name == "g.depth") depth = &c;
  }
  ASSERT_NE(items, nullptr);
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(items->value, 5);
  EXPECT_EQ(items->samples, 2);
  EXPECT_EQ(depth->value, 1);  // last recorded
  EXPECT_EQ(depth->peak, 9);
  EXPECT_EQ(depth->samples, 3);
}

TEST(TraceTest, EventCapCountsDrops) {
  TraceOptions opts;
  opts.max_events_per_thread = 3;
  TraceScope scope(opts);
  for (int i = 0; i < 10; ++i) {
    Span span("capped", "test");
  }
  TraceReport report = scope.report();
  EXPECT_EQ(report.dropped_events, 7);
  EXPECT_EQ(report.spans.at(0).count, 3);
}

TEST(TraceTest, InternReturnsStablePointer) {
  const char* a = intern("layer/fwd/conv1");
  const char* b = intern("layer/fwd/conv1");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "layer/fwd/conv1");
  EXPECT_NE(a, intern("layer/fwd/conv2"));
}

TEST(TraceTest, WorkerThreadSpansAreCollected) {
  TraceScope scope;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 8; ++i) {
        Span span("worker.task", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  TraceReport report = scope.report();
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_EQ(report.spans[0].count, 32);
}

TEST(TraceTest, KernelSpansRecordedFromMatmul) {
  TraceScope scope;
  util::Rng rng(7);
  tensor::Tensor a = tensor::Tensor::randn(tensor::Shape({8, 6}), rng);
  tensor::Tensor b = tensor::Tensor::randn(tensor::Shape({6, 5}), rng);
  tensor::matmul(a, b, Device::cpu());
  tensor::matmul(a, b, Device::parallel(2));
  TraceReport report = scope.report();
  EXPECT_EQ(report.total_for("matmul"),
            report.category_total("kernel"));
  bool found = false;
  for (const SpanStat& s : report.spans)
    if (s.name == "matmul" && s.count == 2) found = true;
  EXPECT_TRUE(found);
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  TraceScope scope;
  {
    Span span("json.span", "test");
  }
  counter_add("json.counter", 4);
  const std::string json = scope.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"json.counter\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  std::int64_t braces = 0, brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceTest, WritesChromeJsonOnDestruction) {
  const std::string path = ::testing::TempDir() + "/dlb_trace_test.json";
  std::remove(path.c_str());
  {
    TraceOptions opts;
    opts.out_path = path;
    TraceScope scope(opts);
    Span span("file.span", "test");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("file.span"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceTest, SummaryTableListsSpansAndCounters) {
  TraceScope scope;
  { Span span("tbl.span", "test"); }
  counter_add("tbl.counter", 11);
  const std::string table = scope.report().summary_table();
  EXPECT_NE(table.find("tbl.span"), std::string::npos);
  EXPECT_NE(table.find("tbl.counter"), std::string::npos);
  EXPECT_NE(table.find("11"), std::string::npos);
}

TEST(TraceTest, OptionsFromEnvReadsKnobs) {
  ::setenv("DLB_TRACE", "1", 1);
  ::setenv("DLB_TRACE_OUT", "/tmp/x.json", 1);
  ::setenv("DLB_TRACE_SUMMARY", "1", 1);
  ::setenv("DLB_TRACE_EVENT_CAP", "123", 1);
  TraceOptions opts = TraceOptions::from_env();
  EXPECT_TRUE(opts.armed);
  EXPECT_EQ(opts.out_path, "/tmp/x.json");
  EXPECT_TRUE(opts.print_summary);
  EXPECT_EQ(opts.max_events_per_thread, 123);
  ::unsetenv("DLB_TRACE");
  ::unsetenv("DLB_TRACE_OUT");
  ::unsetenv("DLB_TRACE_SUMMARY");
  ::unsetenv("DLB_TRACE_EVENT_CAP");
  opts = TraceOptions::from_env();
  EXPECT_FALSE(opts.armed);
  EXPECT_TRUE(opts.out_path.empty());
}

// End-to-end: a harness cell armed via DLB_TRACE embeds a trace report
// whose layer-span total approximates the measured training time.
TEST(TraceTest, HarnessCellEmbedsTraceReport) {
  ::setenv("DLB_TRACE", "1", 1);
  core::Harness harness(core::HarnessOptions::test_profile());
  core::RunRecord record = harness.run_default(
      frameworks::FrameworkKind::kCaffe, frameworks::DatasetId::kMnist,
      Device::cpu());
  ::unsetenv("DLB_TRACE");
  ASSERT_FALSE(record.failed()) << record.error;
  ASSERT_FALSE(record.trace.empty());
  EXPECT_GT(record.trace.total_for("optim.step"), 0.0);
  EXPECT_GT(record.trace.category_total("layer"), 0.0);
  // Per-layer spans should account for most of the training loop
  // (forward + backward dominate; eval layers add a little on top).
  const double layer_s = record.trace.category_total("layer");
  EXPECT_GT(layer_s, 0.5 * record.train.train_time_s);
  EXPECT_LT(layer_s, 1.5 * record.train.train_time_s);
  // Phase breakdown is populated and consistent.
  const auto& ph = record.train.phases;
  EXPECT_GT(ph.forward_s, 0.0);
  EXPECT_GT(ph.backward_s, 0.0);
  EXPECT_GT(ph.optimizer_s, 0.0);
  EXPECT_LE(ph.total(), record.train.train_time_s * 1.05);
  // The record JSON carries the trace summary.
  const std::string json = core::record_json(record);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("optim.step"), std::string::npos);
}

TEST(TraceTest, DataParallelStepsShareTheTrainStepSpan) {
  // Serial and data-parallel training run one loop, so a K-worker run
  // counts its optimizer steps under `train.step`, as Framework::train
  // does, and its reduces under `dp.reduces`.
  using frameworks::DatasetId;
  using frameworks::FrameworkKind;
  auto fw = frameworks::make_framework(FrameworkKind::kCaffe);
  data::MnistOptions d;
  d.train_samples = 200;
  d.test_samples = 10;
  const data::DatasetPair mnist = data::synthetic_mnist(d);
  util::Rng rng(7);
  nn::Sequential model = fw->build_model(
      frameworks::default_network_spec(FrameworkKind::kCaffe,
                                       DatasetId::kMnist),
      Device::cpu(), rng);
  frameworks::DataParallelOptions opts;
  opts.workers = 2;
  opts.shards = 4;
  opts.train.scale.max_step_cap = 6;
  const frameworks::DataParallelTrainer trainer(*fw, opts);

  frameworks::TrainResult result;
  TraceReport report;
  {
    TraceScope scope;
    result = trainer.train(model, mnist.train,
                           frameworks::default_training_config(
                               FrameworkKind::kCaffe, DatasetId::kMnist),
                           Device::cpu());
    report = scope.report();
  }
  ASSERT_EQ(result.steps, 6);
  std::int64_t step_spans = 0;
  for (const SpanStat& s : report.spans) {
    if (s.name == "train.step") step_spans += s.count;
    EXPECT_NE(s.name, "dp.step");
  }
  EXPECT_EQ(step_spans, result.steps);
  std::int64_t reduces = 0;
  for (const CounterStat& c : report.counters)
    if (c.name == "dp.reduces") reduces = c.value;
  EXPECT_EQ(reduces, result.steps);
}

TEST(TraceTest, RecordJsonOmitsEmptyTrace) {
  core::RunRecord record;
  record.framework = "tf";
  const std::string json = core::record_json(record);
  EXPECT_EQ(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
}

}  // namespace
}  // namespace dlbench::runtime::trace
