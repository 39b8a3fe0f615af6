// Reporting-layer tests: table rendering details, summaries, CSV, and
// the record JSON every --json-out file is made of.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/report.hpp"
#include "util/table.hpp"

namespace dlbench::core {
namespace {

RunRecord sample_record() {
  RunRecord r;
  r.framework = "Caffe";
  r.setting = "Caffe MNIST";
  r.dataset = "MNIST/train";
  r.device = "GPU";
  r.train.train_time_s = 97.02;
  r.train.steps = 10000;
  r.train.epochs_run = 10.67;
  r.train.final_loss = 0.05;
  r.train.converged = true;
  r.eval.test_time_s = 0.55;
  r.eval.accuracy_pct = 99.13;
  r.eval.correct = 9913;
  r.eval.total = 10000;
  return r;
}

TEST(Report, SummaryContainsEveryKeyMetric) {
  const std::string s = summarize(sample_record());
  EXPECT_NE(s.find("Caffe"), std::string::npos);
  EXPECT_NE(s.find("97.02"), std::string::npos);
  EXPECT_NE(s.find("0.550"), std::string::npos);
  EXPECT_NE(s.find("99.13"), std::string::npos);
  EXPECT_NE(s.find("10000 steps"), std::string::npos);
  EXPECT_EQ(s.find("DID NOT CONVERGE"), std::string::npos);
}

TEST(Report, SummaryFlagsNonConvergence) {
  RunRecord r = sample_record();
  r.train.converged = false;
  EXPECT_NE(summarize(r).find("DID NOT CONVERGE"), std::string::npos);
}

TEST(Report, ResultsTableMarksDivergedRuns) {
  RunRecord good = sample_record();
  RunRecord bad = sample_record();
  bad.train.converged = false;
  util::Table t = results_table("x", {good, bad});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| yes"), std::string::npos);
  EXPECT_NE(s.find("| NO"), std::string::npos);
}

TEST(Report, CsvRoundTripsThroughTable) {
  RunRecord r = sample_record();
  util::Table t = results_table("csv", {r});
  const std::string csv = t.to_csv();
  // Header row + one data row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  EXPECT_NE(csv.find("Caffe,Caffe MNIST"), std::string::npos);
}

TEST(Report, BannerMentionsWorkloadProfile) {
  HarnessOptions opt;
  opt.mnist_train = 1234;
  std::stringstream captured;
  auto* old = std::cout.rdbuf(captured.rdbuf());
  print_banner("Fig X", "description here", opt);
  std::cout.rdbuf(old);
  EXPECT_NE(captured.str().find("Fig X"), std::string::npos);
  EXPECT_NE(captured.str().find("1234"), std::string::npos);
  EXPECT_NE(captured.str().find("description here"), std::string::npos);
}

// ---- Golden record JSON -------------------------------------------------
// One fully populated record of each kind, compared byte for byte with a
// literal: every key, its order and the number formatting that a
// --json-out consumer (scripts/bench_all.sh) reads. The strings carry a
// quote, a newline and a 0x01 control byte to pin the escaping.

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const std::string kAwkward = "a \"quoted\"\nline\x01" "end";

RunRecord golden_run() {
  RunRecord r = sample_record();
  r.setting = kAwkward;
  r.error = "";
  r.train.epochs_run = 1.0 / 12.0;
  r.train.final_loss = 0.1 + 0.2;
  r.train.divergence_step = 120;
  r.train.recovery_attempts = 1;
  r.train.phases.data_s = 1.5;
  r.train.phases.forward_s = 40.25;
  r.train.phases.backward_s = 50.125;
  r.train.phases.optimizer_s = 3.0;
  r.train.phases.guard_s = 0.5;
  r.train.phases.comm_s = 0.0;
  r.train.plan_arena_bytes = 3145728;
  r.train.plan_replayed_steps = 9999;
  r.train.loss_curve = {{0, 2.5}, {5000, 1.0 / 3.0}, {10000, 0.05}};
  r.trace.spans.push_back({"fwd/0.conv\n", "layer", 10000, 40.25, 0.003, 0.25});
  r.trace.counters.push_back({"plan.arena_bytes", 3145728, 4194304, 7});
  r.trace.dropped_events = 2;
  return r;
}

ServeRecord golden_serve() {
  ServeRecord r;
  r.framework = "TensorFlow";
  r.dataset = "MNIST";
  r.mode = "open";
  r.device = kAwkward;
  r.replicas = 2;
  r.max_batch = 8;
  r.max_batch_delay_s = 0.002;
  r.duration_s = 1.5;
  r.offered_rps = 400.0;
  r.achieved_rps = 398.5;
  r.issued = 600;
  r.ok = 598;
  r.rejected = 2;
  r.mean_batch = 3.25;
  r.latency_mean_s = 0.0025;
  r.latency_p50_s = 0.002;
  r.latency_p95_s = 0.004;
  r.latency_p99_s = kNaN;
  r.latency_p999_s = 0.009;
  r.latency_max_s = 0.0125;
  r.max_queue_depth = 17;
  r.busy_s = 1.25;
  r.queue_wait_p50_s = 0.001;
  r.queue_wait_p99_s = 0.003;
  r.assemble_mean_s = 2.5e-05;
  r.forward_mean_s = 0.0015;
  r.scatter_mean_s = 1e-05;
  return r;
}

AttackRecord golden_attack() {
  AttackRecord r;
  r.framework = "Caffe";
  r.setting = kAwkward;
  r.dataset = "MNIST";
  r.attack = "jsma";
  r.device = "CPU";
  r.threads = 2;
  r.attacks = 90;
  r.successes = 85;
  r.success_rate = 85.0 / 90.0;
  r.total_iterations = 1234;
  r.screening_s = 0.125;
  r.craft_wall_s = 4.5;
  r.craft_mean_s = 0.05;
  r.craft_p50_s = 0.045;
  r.craft_p95_s = 0.09;
  r.craft_p99_s = 0.095;
  r.craft_max_s = 0.1;
  return r;
}

ChaosRecord golden_chaos() {
  ChaosRecord r;
  r.framework = "TensorFlow";
  r.dataset = "MNIST";
  r.device = "CPU";
  r.scenario = kAwkward;
  r.supervised = true;
  r.replicas = 3;
  r.max_batch = 4;
  r.offered_rps = 250.0;
  r.duration_s = 2.0;
  r.seed = 18446744073709551615ull;
  r.issued = 500;
  r.ok = 480;
  r.rejected = 5;
  r.expired = 6;
  r.errors = 4;
  r.shed = 5;
  r.goodput_rps = 240.0;
  r.latency_p50_s = 0.003;
  r.latency_p99_s = 0.02;
  r.latency_max_s = 0.05;
  r.baseline_p99_s = 0.004;
  r.faulted_p99_s = kNaN;
  r.p99_inflation = kNaN;
  r.recovery_s = -1.0;
  r.crashes = 2;
  r.restarts = 2;
  r.stalls_replaced = 1;
  r.retries = 7;
  r.hedges = 3;
  r.hedge_wins = 1;
  r.corrupted = 2;
  r.breaker_opens = 1;
  r.breaker_closes = 1;
  return r;
}

TenantRecord golden_tenant() {
  TenantRecord r;
  r.scenario = "drr_slo";
  r.tenant = kAwkward;
  r.model = "tf_mnist";
  r.slo = "gold";
  r.weight = 4;
  r.offered_rps = 120.0;
  r.duration_s = 2.0;
  r.submitted = 240;
  r.admitted = 236;
  r.shed = 3;
  r.rejected = 1;
  r.ok = 235;
  r.failed = 1;
  r.goodput_rps = 117.5;
  r.latency_p50_s = 0.002;
  r.latency_p99_s = 0.008;
  r.latency_max_s = 0.011;
  r.queue_wait_p99_s = 0.004;
  r.replicas_min = 1;
  r.replicas_max = 3;
  r.scale_ups = 2;
  r.scale_downs = 1;
  r.replica_arena_bytes = 123456789012;
  return r;
}

DdpRecord golden_ddp() {
  DdpRecord r;
  r.framework = "Caffe";
  r.setting = "Caffe CIFAR-10";
  r.dataset = "CIFAR-10";
  r.device = kAwkward;
  r.scenario = "straggler";
  r.workers = 3;
  r.shards = 4;
  r.train_time_s = 12.5;
  r.steps = 40;
  r.step_time_s = 0.3125;
  r.speedup = 2.0 / 3.0;
  r.scaling_efficiency = 2.0 / 9.0;
  r.comm_s = 0.75;
  r.final_loss = 1.75;
  r.converged = true;
  r.bitwise_match = true;
  r.dp_stalls = 3;
  return r;
}

TEST(RecordJson, RunRecordGolden) {
  const std::string json = record_json(golden_run());
  EXPECT_EQ(json,
      R"({"framework":"Caffe","setting":"a \"quoted\"\nline\u0001end",)"
      R"("dataset":"MNIST/train","device":"GPU","error":"",)"
      R"("train":{"train_time_s":97.02,"steps":10000,)"
      R"("epochs_run":0.08333333333333333,)"
      R"("final_loss":0.30000000000000004,"converged":true,)"
      R"("divergence_step":120,"recovery_attempts":1,"diverged":false,)"
      R"("timed_out":false,"phases":{"data_s":1.5,"forward_s":40.25,)"
      R"("backward_s":50.125,"optimizer_s":3,"guard_s":0.5,"comm_s":0},)"
      R"("plan":{"arena_bytes":3145728,"replayed_steps":9999},)"
      R"("loss_curve":[[0,2.5],[5000,0.3333333333333333],[10000,0.05]]},)"
      R"("eval":{"test_time_s":0.55,"accuracy_pct":99.13,"correct":9913,)"
      R"("total":10000},"trace":{"spans":[{"name":"fwd/0.conv\n",)"
      R"("category":"layer","count":10000,"total_s":40.25,"min_s":0.003,)"
      R"("max_s":0.25}],"counters":[{"name":"plan.arena_bytes",)"
      R"("value":3145728,"peak":4194304,"samples":7}],"dropped_events":2}})");
}

TEST(RecordJson, ServeRecordGolden) {
  const std::string json = record_json(golden_serve());
  EXPECT_EQ(json,
      R"({"framework":"TensorFlow","dataset":"MNIST","mode":"open",)"
      R"("device":"a \"quoted\"\nline\u0001end","replicas":2,"max_batch":8,)"
      R"("max_batch_delay_s":0.002,"duration_s":1.5,"offered_rps":400,)"
      R"("achieved_rps":398.5,"issued":600,"ok":598,"rejected":2,)"
      R"("mean_batch":3.25,"latency":{"mean_s":0.0025,"p50_s":0.002,)"
      R"("p95_s":0.004,"p99_s":null,"p999_s":0.009,"max_s":0.0125},)"
      R"("server":{"max_queue_depth":17,"busy_s":1.25,)"
      R"("queue_wait_p50_s":0.001,"queue_wait_p99_s":0.003,)"
      R"("assemble_mean_s":2.5e-05,"forward_mean_s":0.0015,)"
      R"("scatter_mean_s":1e-05}})");
}

TEST(RecordJson, AttackRecordGolden) {
  const std::string json = record_json(golden_attack());
  EXPECT_EQ(json,
      R"({"framework":"Caffe","setting":"a \"quoted\"\nline\u0001end",)"
      R"("dataset":"MNIST","attack":"jsma","device":"CPU","threads":2,)"
      R"("attacks":90,"successes":85,"success_rate":0.9444444444444444,)"
      R"("total_iterations":1234,"screening_s":0.125,"craft":{"wall_s":4.5,)"
      R"("mean_s":0.05,"p50_s":0.045,"p95_s":0.09,"p99_s":0.095,)"
      R"("max_s":0.1}})");
}

TEST(RecordJson, ChaosRecordGolden) {
  const std::string json = record_json(golden_chaos());
  EXPECT_EQ(json,
      R"({"framework":"TensorFlow","dataset":"MNIST","device":"CPU",)"
      R"("scenario":"a \"quoted\"\nline\u0001end","supervised":true,)"
      R"("replicas":3,"max_batch":4,"offered_rps":250,"duration_s":2,)"
      R"("seed":18446744073709551615,"issued":500,"ok":480,"rejected":5,)"
      R"("expired":6,"errors":4,"shed":5,"goodput_rps":240,)"
      R"("latency":{"p50_s":0.003,"p99_s":0.02,"max_s":0.05},)"
      R"("degradation":{"baseline_p99_s":0.004,"faulted_p99_s":null,)"
      R"("p99_inflation":null,"recovery_s":-1},"events":{"crashes":2,)"
      R"("restarts":2,"stalls_replaced":1,"retries":7,"hedges":3,)"
      R"("hedge_wins":1,"corrupted":2,"breaker_opens":1,)"
      R"("breaker_closes":1}})");
}

TEST(RecordJson, TenantRecordGolden) {
  const std::string json = record_json(golden_tenant());
  EXPECT_EQ(json,
      R"({"scenario":"drr_slo","tenant":"a \"quoted\"\nline\u0001end",)"
      R"("model":"tf_mnist","slo":"gold","weight":4,"offered_rps":120,)"
      R"("duration_s":2,"submitted":240,"admitted":236,"shed":3,)"
      R"("rejected":1,"ok":235,"failed":1,"goodput_rps":117.5,)"
      R"("latency":{"p50_s":0.002,"p99_s":0.008,"max_s":0.011,)"
      R"("queue_wait_p99_s":0.004},"replicas":{"min":1,"max":3,)"
      R"("scale_ups":2,"scale_downs":1,"arena_bytes_each":123456789012}})");
}

TEST(RecordJson, DdpRecordGolden) {
  const std::string json = record_json(golden_ddp());
  EXPECT_EQ(json,
      R"({"framework":"Caffe","setting":"Caffe CIFAR-10",)"
      R"("dataset":"CIFAR-10","device":"a \"quoted\"\nline\u0001end",)"
      R"("scenario":"straggler","workers":3,"shards":4,"train_time_s":12.5,)"
      R"("steps":40,"step_time_s":0.3125,"speedup":0.6666666666666666,)"
      R"("scaling_efficiency":0.2222222222222222,"comm_s":0.75,)"
      R"("final_loss":1.75,)"
      R"("converged":true,"bitwise_match":true,"dp_stalls":3})");
}

// ---- Results document ---------------------------------------------------

TEST(RecordSet, EmptySetWritesAnEmptyObject) {
  EXPECT_EQ(RecordSet().json(), "{}\n");
}

TEST(RecordSet, SingleKindIsKeyedLikeAnyOther) {
  RecordSet set;
  set.add(golden_attack());
  EXPECT_EQ(set.json(),
            "{\"attack\":[\n " + record_json(golden_attack()) + "\n]}\n");
}

TEST(RecordSet, KindsKeepTheirFixedOrderAndEmptyKindsAreLeftOut) {
  RecordSet set;
  // Added out of document order; serve and tenants stay empty.
  set.add(golden_ddp());
  set.add(golden_chaos());
  EXPECT_EQ(set.add(golden_run()).setting, kAwkward);
  set.add(golden_attack());
  set.add(sample_record());
  ASSERT_EQ(set.get<RunRecord>().size(), 2u);
  EXPECT_EQ(set.get<RunRecord>()[1].setting, "Caffe MNIST");
  EXPECT_TRUE(set.get<ServeRecord>().empty());
  EXPECT_EQ(set.json(),
            "{\"runs\":[\n " + record_json(golden_run()) + ",\n " +
                record_json(sample_record()) + "\n],\n" +
                "\"attack\":" + records_json(set.get<AttackRecord>()) +
                ",\n\"chaos\":" + records_json(set.get<ChaosRecord>()) +
                ",\n\"ddp\":" + records_json(set.get<DdpRecord>()) + "}\n");
}

TEST(RecordSet, EveryKindHasItsKey) {
  RecordSet set;
  set.add(golden_tenant());
  set.add(golden_serve());
  set.add(golden_run());
  const std::string json = set.json();
  const auto runs = json.find("{\"runs\":[");
  const auto serve = json.find(",\n\"serve\":[");
  const auto tenants = json.find(",\n\"tenants\":[");
  EXPECT_EQ(runs, 0u);
  EXPECT_LT(runs, serve);
  EXPECT_LT(serve, tenants);
  EXPECT_NE(tenants, std::string::npos);
}

TEST(RecordJson, WriteJsonWritesTheTextVerbatim) {
  const std::string path = ::testing::TempDir() + "report_test_out.json";
  ASSERT_TRUE(write_json(path, "{}\n"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{}\n");
  std::remove(path.c_str());
}

TEST(RecordJson, WriteJsonToAMissingDirectoryWarnsAndReturnsFalse) {
  const std::string path =
      ::testing::TempDir() + "report_test_no_such_dir/out.json";
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(write_json(path, "{}\n"));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find(path), std::string::npos) << err;
}

}  // namespace
}  // namespace dlbench::core
