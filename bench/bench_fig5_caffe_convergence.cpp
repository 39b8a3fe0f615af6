// Figure 5 — training loss (convergence) of Caffe on CIFAR-10 under its
// CIFAR-10 default setting vs its MNIST default setting. The paper
// shows the CIFAR-10 setting converging while the MNIST setting sits at
// a constant loss of 87.34 (= -log(FLT_MIN), Caffe's loss clamp).
//
// With --train-workers the binary instead measures the deterministic
// data-parallel trainer on the same Caffe/CIFAR-10 cell: a K = 1/2/4
// sweep (shards pinned, so every K computes the identical arithmetic)
// plus a straggler scenario, verifying the trained bits never move.

#include <cstring>
#include <iostream>

#include "bench/bench_common.hpp"

namespace {

using dlbench::core::Harness;

/// True when two trained cells agree bit for bit: every parameter
/// tensor plus the recorded loss curve. This is the determinism
/// contract of DataParallelTrainer (DESIGN.md §16), not a tolerance
/// comparison.
bool bitwise_match(Harness::TrainedModel& a, Harness::TrainedModel& b) {
  const auto pa = a.model.params();
  const auto pb = b.model.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->numel() != pb[i]->numel()) return false;
    if (std::memcmp(pa[i]->raw(), pb[i]->raw(),
                    static_cast<std::size_t>(pa[i]->numel()) *
                        sizeof(float)) != 0)
      return false;
  }
  return a.record.train.loss_curve == b.record.train.loss_curve &&
         a.record.train.final_loss == b.record.train.final_loss;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dlbench;
  using namespace dlbench::bench;

  bool train_workers = false;
  BenchSession session(argc, argv, "Fig 5",
                       "Caffe training-loss convergence on CIFAR-10: MNIST "
                       "vs CIFAR-10 default settings (GPU)",
                       [&](const std::string& arg) {
                         if (arg == "--train-workers") {
                           train_workers = true;
                           return true;
                         }
                         return false;
                       });
  Harness& harness = session.harness();
  const auto device = runtime::Device::gpu();

  if (train_workers) {
    // Scaling sweep: same cell, trained through the K-worker trainer.
    // The shard count is pinned so K = 1/2/4 run identical arithmetic;
    // the only question timing answers is how well it parallelizes.
    const int kShards = 4;
    std::cout << "\nDeterministic data-parallel training scaling "
                 "(Caffe CIFAR-10 settings, S=" << kShards << "):\n";
    auto run_k = [&](int k) {
      return harness.train_model_data_parallel(
          FrameworkKind::kCaffe, FrameworkKind::kCaffe, DatasetId::kCifar10,
          DatasetId::kCifar10, device, k, kShards);
    };
    auto make_record = [&](Harness::TrainedModel& m, const std::string& scen,
                           int k, bool bits, std::int64_t stalls) {
      core::DdpRecord rec;
      rec.framework = m.record.framework;
      rec.setting = m.record.setting;
      rec.dataset = m.record.dataset;
      rec.device = m.record.device;
      rec.scenario = scen;
      rec.workers = k;
      rec.shards = kShards;
      rec.train_time_s = m.record.train.train_time_s;
      rec.steps = m.record.train.steps;
      rec.step_time_s =
          rec.steps > 0 ? rec.train_time_s / static_cast<double>(rec.steps)
                        : 0.0;
      rec.comm_s = m.record.train.phases.comm_s;
      rec.final_loss = m.record.train.final_loss;
      rec.converged = m.record.train.converged;
      rec.bitwise_match = bits;
      rec.dp_stalls = stalls;
      return rec;
    };

    auto base = run_k(1);
    const double t1 = base.record.train.train_time_s;
    core::DdpRecord rec1 = make_record(base, "clean", 1, true, 0);
    rec1.speedup = 1.0;
    rec1.scaling_efficiency = 1.0;
    session.add(rec1);

    bool all_bits = true;
    for (const int k : {2, 4}) {
      auto cell = run_k(k);
      const bool bits = bitwise_match(base, cell);
      all_bits = all_bits && bits;
      core::DdpRecord rec = make_record(cell, "clean", k, bits, 0);
      rec.speedup =
          cell.record.train.train_time_s > 0.0
              ? t1 / cell.record.train.train_time_s
              : 0.0;
      rec.scaling_efficiency = rec.speedup / static_cast<double>(k);
      session.add(rec);
    }

    // Straggler scenario: one persistent slow worker, every step. The
    // dynamic shard queue reroutes work around it; the bits must not
    // move. Skipped when a DLB_FAULT_* plan already owns the process.
    bool straggler_bits = true;
    if (!runtime::fault::enabled()) {
      runtime::fault::FaultPlan plan;
      plan.dp_stall_ms = 5;
      plan.dp_stall_worker = 0;
      plan.dp_stall_every = 1;
      runtime::fault::FaultScope scope(plan);
      auto slow = run_k(4);
      straggler_bits = bitwise_match(base, slow);
      all_bits = all_bits && straggler_bits;
      core::DdpRecord rec =
          make_record(slow, "straggler", 4, straggler_bits,
                      scope.stats().dp_stalls);
      rec.speedup = slow.record.train.train_time_s > 0.0
                        ? t1 / slow.record.train.train_time_s
                        : 0.0;
      rec.scaling_efficiency = rec.speedup / 4.0;
      session.add(rec);
    } else {
      std::cout << "  (straggler scenario skipped: a DLB_FAULT_* plan "
                   "is already active)\n";
    }

    std::cout << "\n"
              << core::ddp_table(
                     "Training scaling — shard-ordered all-reduce",
                     session.records<core::DdpRecord>())
              << "\n";
    shape_check("every K-worker run reproduces K=1 bit for bit", all_bits);
    shape_check("straggler slows the clock, never the bits", straggler_bits);
    return 0;
  }

  auto good = harness.train_model(FrameworkKind::kCaffe,
                                  FrameworkKind::kCaffe,
                                  DatasetId::kCifar10, DatasetId::kCifar10,
                                  device);
  auto bad = harness.train_model(FrameworkKind::kCaffe,
                                 FrameworkKind::kCaffe, DatasetId::kMnist,
                                 DatasetId::kCifar10, device);

  std::cout << "\nTraining loss curves (step, loss):\n";
  util::Table table({"Step", "Caffe CIFAR-10 settings", "Caffe MNIST settings"});
  const auto& g = good.record.train.loss_curve;
  const auto& b = bad.record.train.loss_curve;
  const std::size_t rows = std::max(g.size(), b.size());
  for (std::size_t i = 0; i < rows; ++i) {
    table.add_row(
        {std::to_string(i < g.size() ? g[i].first : b[i].first),
         i < g.size() ? util::format_fixed(g[i].second, 4) : "-",
         i < b.size() ? util::format_fixed(b[i].second, 4) : "-"});
  }
  std::cout << table << "\n";

  session.add(good.record);
  session.add(bad.record);
  std::cout << "\n";

  // Robustness report: how the guarded trainer handled each cell —
  // first divergent step (if any), rollback/retry count, final status.
  // With DLB_FAULT_* set this shows injected faults being absorbed.
  util::Table recovery({"Cell", "Status", "Divergence Step", "Recoveries",
                        "Timed Out"});
  recovery.set_title("Guarded-training recovery stats");
  auto recovery_row = [&recovery](const std::string& name,
                                  const core::RunRecord& r) {
    recovery.add_row({name, core::run_status(r),
                      r.train.divergence_step < 0
                          ? "-"
                          : std::to_string(r.train.divergence_step),
                      std::to_string(r.train.recovery_attempts),
                      r.train.timed_out ? "yes" : "no"});
  };
  recovery_row("Caffe CIFAR-10 settings", good.record);
  recovery_row("Caffe MNIST settings", bad.record);
  std::cout << recovery << "\n";

  shape_check("CIFAR-10 settings converge (loss declines, paper Fig 5)",
              good.record.train.converged &&
                  g.back().second < g.front().second * 0.8);
  shape_check("MNIST settings fail to converge on CIFAR-10 (paper Fig 5)",
              !bad.record.train.converged);
  shape_check("non-convergent accuracy is near chance (11.03% paper)",
              bad.record.eval.accuracy_pct < 35.0);
  return 0;
}
