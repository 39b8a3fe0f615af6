// craft_mnist: the paper's crafting-time cell. A Caffe-MNIST victim is
// trained in set-up for a fixed step count; each repetition then screens
// the test split with a frozen view of the victim (as fgsm_sweep and
// jsma_sweep do) and crafts every selected attack unit on the crafting
// engine (adversarial::craft_units) with 2 worker threads: iterated
// untargeted FGSM, then targeted JSMA from one source class to the nine
// others. Units run through the public fgsm_attack / jsma_attack, so
// each unit's own craft time is kept exactly; the library's sweeps run
// once afterwards and must report the same tallies.

#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversarial/attacks.hpp"
#include "adversarial/engine.hpp"
#include "common.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "frameworks/framework.hpp"
#include "frameworks/registry.hpp"
#include "nn/frozen.hpp"
#include "probes.hpp"

namespace perfbench {

namespace {

namespace adv = dlbench::adversarial;
namespace fw = dlbench::frameworks;
namespace nn = dlbench::nn;
using dlbench::runtime::Device;
using dlbench::tensor::Tensor;

constexpr std::int64_t kVictimTrain = 1280;
constexpr std::int64_t kVictimTest = 400;
constexpr std::int64_t kVictimSteps = 40;
constexpr int kCraftThreads = 2;
constexpr std::int64_t kFgsmPerClass = 20;   // up to 200 FGSM units
constexpr std::int64_t kJsmaSource = 1;      // the paper's Table VIII digit
constexpr std::int64_t kJsmaPerTarget = 3;   // 27 JSMA units
constexpr double kMinVictimAccuracy = 80.0;  // % on the test split

// The paper's one-shot formula at the Fig 8 step size: every unit does
// the same work, so per-attack times do not depend on the seed's data.
adv::FgsmOptions fgsm_options() {
  adv::FgsmOptions o;
  o.epsilon = 0.02f;
  o.max_iterations = 1;
  o.clip = true;
  return o;
}

// A small distortion budget (7 perturbed pixels) keeps each unit's work
// near its cap, so the work per repetition varies little across seeds.
adv::JsmaOptions jsma_options() {
  adv::JsmaOptions o;
  o.theta = 0.5f;
  o.max_distortion = 0.01;
  o.classes = 10;
  return o;
}

struct CraftSetup {
  dlbench::data::Dataset test;
  nn::Sequential victim;
  nn::FrozenModel frozen;
  double accuracy_pct = 0.0;
  double synth_s = 0.0;
  fw::TrainResult training;
};

CraftSetup make_setup(std::uint64_t seed) {
  CraftSetup s;
  const auto t0 = Clock::now();
  dlbench::data::MnistOptions opt;
  opt.train_samples = kVictimTrain;
  opt.test_samples = kVictimTest;
  opt.seed = derive_seed(seed, 1);
  dlbench::data::DatasetPair pair = dlbench::data::synthetic_mnist(opt);
  s.synth_s = seconds_since(t0);

  const auto framework = fw::make_framework(fw::FrameworkKind::kCaffe);
  const fw::TrainingConfig config = fw::default_training_config(
      fw::FrameworkKind::kCaffe, fw::DatasetId::kMnist);
  const nn::NetworkSpec spec = fw::default_network_spec(
      fw::FrameworkKind::kCaffe, fw::DatasetId::kMnist);
  dlbench::data::apply_preprocessing(config.preprocessing, pair.train,
                                     pair.test);
  const Device device = Device::parallel(2);
  dlbench::util::Rng rng(derive_seed(seed, 2));
  s.victim = framework->build_model(spec, device, rng);

  fw::TrainOptions o;  // every knob spelled out
  o.scale.data_fraction = 1.0;
  o.scale.epoch_fraction = 1.0;
  o.scale.max_step_cap = kVictimSteps;
  o.seed = derive_seed(seed, 3);
  o.loss_record_interval = 10;
  o.min_steps_floor = 0;
  o.guard.max_recoveries = 2;
  o.guard.snapshot_interval = 50;
  o.guard.lr_backoff = 0.1;
  o.guard.grad_norm_limit = 0.0;
  o.guard.timeout_s = 60.0;
  s.training = framework->train(s.victim, pair.train, config, device, o);
  s.accuracy_pct =
      framework->evaluate(s.victim, pair.test, device).accuracy_pct;
  s.frozen = nn::FrozenModel::freeze(s.victim);
  s.test = std::move(pair.test);
  return s;
}

// One attack unit's result.
struct Slot {
  bool threw = false;
  bool success = false;
  std::int64_t final_class = -1;
  int iterations = 0;
  double time_s = 0.0;
  Tensor example;
};

struct Unit {
  std::int64_t sample;
  std::int64_t label;  // FGSM: true label; JSMA: target class
};

struct CraftRep {
  std::vector<Unit> fgsm_units, jsma_units;
  std::vector<Slot> fgsm, jsma;
  adv::CraftTiming fgsm_timing, jsma_timing;
  double screening_s = 0.0;
  std::int64_t screened = 0;  // frozen predictions made while screening

  std::int64_t attacks() const {
    return static_cast<std::int64_t>(fgsm.size() + jsma.size());
  }
  double craft_wall_s() const {
    return fgsm_timing.craft_wall_s + jsma_timing.craft_wall_s;
  }
};

// Victim selection, as the sweeps do it: correctly classified samples,
// up to a quota per class (FGSM) or from the source class (JSMA). The
// whole test split is classified, one sample at a time.
void screen(const CraftSetup& s, CraftRep& rep, Tracer& tracer,
            std::int64_t id) {
  auto span = tracer.span("adversarial.screening", id);
  const auto t0 = Clock::now();
  const Device cpu = Device::cpu();
  std::vector<bool> correct;
  for (std::int64_t i = 0; i < s.test.size(); ++i)
    correct.push_back(s.frozen.predict(s.test.sample(i), cpu)[0] ==
                      s.test.labels[static_cast<std::size_t>(i)]);
  rep.screened = s.test.size();
  rep.screening_s = seconds_since(t0);

  std::int64_t per_class[10] = {};
  std::vector<std::int64_t> sources;
  for (std::int64_t i = 0; i < s.test.size(); ++i) {
    const std::int64_t label = s.test.labels[static_cast<std::size_t>(i)];
    if (per_class[label] < kFgsmPerClass && correct[i]) {
      ++per_class[label];
      rep.fgsm_units.push_back({i, label});
    }
    if (label == kJsmaSource && correct[i] &&
        static_cast<std::int64_t>(sources.size()) < kJsmaPerTarget)
      sources.push_back(i);
  }
  for (std::int64_t target = 0; target < 10; ++target)
    if (target != kJsmaSource)
      for (const std::int64_t i : sources)
        rep.jsma_units.push_back({i, target});
}

// Crafts every unit of `units` on the engine; each unit is one span.
adv::CraftTiming craft(const CraftSetup& s, const std::vector<Unit>& units,
                       bool jsma, std::vector<Slot>& slots, Tracer& tracer) {
  slots.assign(units.size(), Slot{});
  nn::Context ctx;
  ctx.device = Device::cpu();
  const char* span_name = jsma ? "adversarial.jsma" : "adversarial.fgsm";
  return adv::craft_units(
      s.victim, ctx, static_cast<std::int64_t>(units.size()), kCraftThreads,
      [&](nn::Sequential& replica, const nn::Context& unit_ctx,
          std::int64_t u) {
        auto span = tracer.span(span_name, u);
        const Unit& unit = units[static_cast<std::size_t>(u)];
        Slot& slot = slots[static_cast<std::size_t>(u)];
        try {
          const Tensor x = s.test.sample(unit.sample);
          const adv::AttackOutcome o =
              jsma ? adv::jsma_attack(replica, x, unit.label, jsma_options(),
                                      unit_ctx)
                   : adv::fgsm_attack(replica, x, unit.label, fgsm_options(),
                                      unit_ctx);
          slot = {false, o.success, o.final_class, o.iterations,
                  o.craft_time_s, o.adversarial_example};
        } catch (const std::exception&) {
          slot.threw = true;
        }
        return slot.time_s;
      });
}

CraftRep craft_rep(const CraftSetup& s, Tracer& tracer, std::int64_t id) {
  CraftRep rep;
  screen(s, rep, tracer, id);
  rep.fgsm_timing = craft(s, rep.fgsm_units, false, rep.fgsm, tracer);
  rep.jsma_timing = craft(s, rep.jsma_units, true, rep.jsma, tracer);
  return rep;
}

bool same_tallies(const std::vector<Slot>& a, const std::vector<Slot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].success != b[i].success || a[i].final_class != b[i].final_class ||
        a[i].iterations != b[i].iterations ||
        a[i].example.numel() != b[i].example.numel() ||
        (a[i].example.numel() > 0 &&
         std::memcmp(a[i].example.raw(), b[i].example.raw(),
                     static_cast<std::size_t>(a[i].example.numel()) *
                         sizeof(float)) != 0))
      return false;
  return true;
}

// Every claimed success must re-classify as claimed on the frozen view.
void check_rep(const CraftSetup& s, const CraftRep& rep, const CraftRep& first,
               Outcome& out) {
  out.attempted += rep.attacks();
  std::int64_t wrong = 0;
  const Device cpu = Device::cpu();
  for (std::size_t u = 0; u < rep.fgsm.size(); ++u) {
    const Slot& slot = rep.fgsm[u];
    if (slot.threw) ++out.failed;
    if (!slot.success) continue;
    const std::int64_t pred = s.frozen.predict(slot.example, cpu)[0];
    if (pred != slot.final_class || pred == rep.fgsm_units[u].label) ++wrong;
  }
  for (std::size_t u = 0; u < rep.jsma.size(); ++u) {
    const Slot& slot = rep.jsma[u];
    if (slot.threw) ++out.failed;
    if (!slot.success) continue;
    if (s.frozen.predict(slot.example, cpu)[0] != rep.jsma_units[u].label)
      ++wrong;
  }
  out.check(wrong == 0,
            std::to_string(wrong) +
                " reported successes do not re-classify as claimed");
  out.check(same_tallies(rep.fgsm, first.fgsm) &&
                same_tallies(rep.jsma, first.jsma),
            "attack results differ between repetitions");
}

std::int64_t successes(const std::vector<Slot>& slots) {
  std::int64_t n = 0;
  for (const Slot& slot : slots) n += slot.success ? 1 : 0;
  return n;
}

std::int64_t iterations(const std::vector<Slot>& slots) {
  std::int64_t n = 0;
  for (const Slot& slot : slots) n += slot.iterations;
  return n;
}

// The library's sweeps over the same victim must report the tallies the
// benchmark's own units produced.
void check_against_sweeps(const CraftSetup& s, const CraftRep& rep,
                          Outcome& out) {
  nn::Context ctx;
  ctx.device = Device::cpu();
  const adv::UntargetedSweep f = adv::fgsm_sweep(
      s.victim, s.test, fgsm_options(), ctx, kFgsmPerClass, kCraftThreads);
  const adv::TargetedSweep j =
      adv::jsma_sweep(s.victim, s.test, kJsmaSource, jsma_options(), ctx,
                      kJsmaPerTarget, kCraftThreads);
  out.attempted += f.total_attacks + j.total_attacks;
  out.check(f.total_attacks == static_cast<std::int64_t>(rep.fgsm.size()) &&
                f.total_successes == successes(rep.fgsm) &&
                f.total_iterations == iterations(rep.fgsm),
            "fgsm_sweep tallies differ from the benchmark's units");
  out.check(j.total_attacks == static_cast<std::int64_t>(rep.jsma.size()) &&
                j.total_successes == successes(rep.jsma) &&
                j.total_iterations == iterations(rep.jsma),
            "jsma_sweep tallies differ from the benchmark's units");
  out.counter("sweep.fgsm.screening_s", f.timing.screening_s);
  out.counter("sweep.fgsm.craft_wall_s", f.timing.craft_wall_s);
  out.counter("sweep.fgsm.craft_p50_s", f.timing.craft_time.percentile(50));
  out.counter("sweep.jsma.screening_s", j.timing.screening_s);
  out.counter("sweep.jsma.craft_wall_s", j.timing.craft_wall_s);
  out.counter("sweep.jsma.craft_p95_s", j.timing.craft_time.percentile(95));
}

std::vector<double> unit_times_ms(const std::vector<CraftRep>& reps) {
  std::vector<double> ms;
  for (const CraftRep& rep : reps) {
    for (const Slot& slot : rep.fgsm) ms.push_back(1e3 * slot.time_s);
    for (const Slot& slot : rep.jsma) ms.push_back(1e3 * slot.time_s);
  }
  return ms;
}

void check_setup(const CraftSetup& s, Outcome& out) {
  out.attempted += s.training.steps;
  if (s.training.diverged || s.training.timed_out) ++out.failed;
  out.check(!s.training.diverged && !s.training.timed_out,
            "victim training diverged or timed out");
  out.check(s.accuracy_pct >= kMinVictimAccuracy,
            "victim accuracy " + std::to_string(s.accuracy_pct) + "% too low");
}

void run_end_to_end(const Options& options, Outcome& out) {
  MetricTable table(end_to_end_schema());
  auto [s, setup_s] = timed_setup([&] { return make_setup(options.seed); });
  table.set("setup_s", setup_s);
  check_setup(s, out);

  Tracer off(false);
  std::vector<CraftRep> reps;
  std::vector<double> attack_rate, screen_rate;
  const auto t0 = Clock::now();
  while (reps.size() < 3 || seconds_since(t0) < options.seconds) {
    reps.push_back(craft_rep(s, off, static_cast<std::int64_t>(reps.size())));
    const CraftRep& rep = reps.back();
    attack_rate.push_back(static_cast<double>(rep.attacks()) /
                          rep.craft_wall_s());
    screen_rate.push_back(static_cast<double>(rep.screened) / rep.screening_s);
  }
  for (const CraftRep& rep : reps) check_rep(s, rep, reps.front(), out);
  check_against_sweeps(s, reps.front(), out);

  std::cout << "attacks/s per repetition:";
  for (const double r : attack_rate) std::cout << " " << r;
  std::cout << "\n";
  const std::vector<double> ms = unit_times_ms(reps);
  table.set("throughput_per_s", median(attack_rate));
  table.set("latency_p50_ms", percentile(ms, 50));
  table.set("latency_tail_ms", percentile(ms, 95));
  table.set("infer_per_s", median(screen_rate));
  table.set("peak_rss_mib", peak_rss_mib());
  std::cout << "repetitions " << reps.size() << ", attacks per repetition "
            << reps.front().attacks() << " (fgsm "
            << successes(reps.front().fgsm) << "/" << reps.front().fgsm.size()
            << " ok, jsma " << successes(reps.front().jsma) << "/"
            << reps.front().jsma.size() << " ok, "
            << iterations(reps.front().jsma)
            << " jsma iterations), victim accuracy " << s.accuracy_pct
            << "%\n";
  table.emit(out, /*require_all=*/true);
}

void run_traced(const Options& options, Outcome& out) {
  MetricTable table(per_layer_schema());
  Tracer tracer(true);
  const CraftSetup s = make_setup(options.seed);
  check_setup(s, out);
  table.set("data.synth_s", s.synth_s);

  // Tracing overhead: wall ms per attack, untraced then traced.
  tracer.set_enabled(false);
  const CraftRep plain = craft_rep(s, tracer, 0);
  check_rep(s, plain, plain, out);
  tracer.set_enabled(true);
  std::vector<CraftRep> reps;
  const auto t0 = Clock::now();
  while (reps.size() < 2 || seconds_since(t0) < 0.5 * options.seconds) {
    reps.push_back(
        craft_rep(s, tracer, static_cast<std::int64_t>(reps.size())));
    check_rep(s, reps.back(), plain, out);
  }
  std::vector<double> idle;
  for (const CraftRep& rep : reps) {
    double busy = 0.0;
    for (const Slot& slot : rep.fgsm) busy += slot.time_s;
    for (const Slot& slot : rep.jsma) busy += slot.time_s;
    idle.push_back(1.0 - busy / (kCraftThreads * rep.craft_wall_s()));
  }
  const CraftRep& rep = reps.front();
  table.set("adversarial.fgsm_ms", tracer.median_ms("adversarial.fgsm"));
  table.set("adversarial.jsma_ms", tracer.median_ms("adversarial.jsma"));
  table.set("adversarial.iterations",
            static_cast<double>(iterations(rep.fgsm) + iterations(rep.jsma)));
  table.set("adversarial.success_share",
            static_cast<double>(successes(rep.fgsm) + successes(rep.jsma)) /
                static_cast<double>(rep.attacks()));
  table.set("adversarial.screening_s",
            1e-3 * tracer.median_ms("adversarial.screening"));
  table.set("adversarial.engine_idle_share", median(idle));

  // Batch-1 probes on a replica, as the crafting units run them.
  nn::Sequential replica = s.victim.clone();
  nn::Context ctx;
  ctx.device = Device::cpu();
  const Tensor x = s.test.sample(0);
  const std::vector<std::int64_t> label{s.test.labels[0]};
  for (int r = 0; r < 30; ++r) {
    auto span = tracer.span("adversarial.jacobian", r);
    (void)adv::logit_jacobian(replica, x, 10, ctx);
  }
  table.set("adversarial.jacobian_ms",
            tracer.median_ms("adversarial.jacobian"));
  PassFlops flops;
  for (int r = 0; r < 30; ++r) {
    nn::LossResult loss;
    {
      auto span = tracer.span("nn.forward_loss", r);
      loss = replica.forward_loss(x, label, ctx);
    }
    {
      auto span = tracer.span("nn.backward", r);
      replica.zero_grads();
      (void)replica.backward(loss, label, ctx);
    }
    flops = layer_pass(replica, x, label, ctx, tracer, r);
  }
  set_layer_metrics(tracer, flops, table);
  table.set("nn.forward_loss_ms", tracer.median_ms("nn.forward_loss"));
  table.set("nn.backward_ms", tracer.median_ms("nn.backward"));
  frozen_probe(s.frozen, head_rows(s.test.images, 8), Device::cpu(), 50,
               tracer, table);
  pool_probe(200, tracer, table);

  out.counter("craft.fgsm.craft_wall_s", rep.fgsm_timing.craft_wall_s);
  out.counter("craft.jsma.craft_wall_s", rep.jsma_timing.craft_wall_s);
  out.counter("craft.fgsm.craft_p50_s",
              rep.fgsm_timing.craft_time.percentile(50));
  out.counter("craft.jsma.craft_p50_s",
              rep.jsma_timing.craft_time.percentile(50));
  out.counter("craft.threads", rep.fgsm_timing.threads);
  out.counter("victim.train_time_s", s.training.train_time_s);
  out.counter("victim.accuracy_pct", s.accuracy_pct);
  const auto per_attack_ms = [](const CraftRep& r) {
    return 1e3 * r.craft_wall_s() / static_cast<double>(r.attacks());
  };
  std::vector<double> traced_ms;
  for (const CraftRep& r : reps) traced_ms.push_back(per_attack_ms(r));
  finish_trace(options, tracer, per_attack_ms(plain), median(traced_ms), table,
               out);
}

}  // namespace

void run_craft_mnist(const Options& options, Outcome& out) {
  if (options.trace)
    run_traced(options, out);
  else
    run_end_to_end(options, out);
}

}  // namespace perfbench
