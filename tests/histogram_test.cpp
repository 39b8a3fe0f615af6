// LatencyHistogram: percentile accuracy against an exact reference,
// and exactness/associativity of cross-thread merges.

#include "runtime/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/trace.hpp"
#include "util/rng.hpp"

namespace {

using dlbench::runtime::LatencyHistogram;
using dlbench::util::Rng;

/// Exact order statistic with the histogram's documented rank rule:
/// value at rank ceil(p/100 * n), 1-based; p<=0 -> min, p>=100 -> max.
double exact_percentile_s(std::vector<std::int64_t> sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  if (p <= 0.0) return static_cast<double>(sorted_ns.front()) * 1e-9;
  if (p >= 100.0) return static_cast<double>(sorted_ns.back()) * 1e-9;
  const auto n = static_cast<double>(sorted_ns.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted_ns.size());
  return static_cast<double>(sorted_ns[rank - 1]) * 1e-9;
}

/// Asserts every interesting percentile of `h` is within the
/// histogram's error bound of the exact order statistic.
void expect_percentiles_close(const LatencyHistogram& h,
                              const std::vector<std::int64_t>& samples_ns) {
  for (const double p : {0.0, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double exact = exact_percentile_s(samples_ns, p);
    const double approx = h.percentile(p);
    // Bucket midpoints are within kMaxRelativeError of any value the
    // bucket covers; allow an absolute nanosecond of slack for the
    // integer-exact region.
    const double tol =
        LatencyHistogram::kMaxRelativeError * std::abs(exact) + 1e-9;
    EXPECT_NEAR(approx, exact, tol) << "p=" << p;
  }
}

std::vector<std::int64_t> record_all(LatencyHistogram& h,
                                     const std::vector<std::int64_t>& ns) {
  for (const auto v : ns) h.record_ns(v);
  return ns;
}

TEST(LatencyHistogram, EmptyBehaviour) {
  // No samples ⇒ no order statistics. Every path returns the NaN
  // sentinel — 0.0 is a legal latency and must never stand in for
  // "nothing was measured" (a fully-shed gauntlet window would
  // otherwise report a perfect 0 ns p99).
  const LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  for (const double p : {0.0, 50.0, 99.0, 100.0})
    EXPECT_TRUE(std::isnan(h.percentile(p))) << "p=" << p;
  EXPECT_TRUE(std::isnan(h.min_s()));
  EXPECT_TRUE(std::isnan(h.max_s()));
  EXPECT_TRUE(std::isnan(h.mean_s()));
  EXPECT_EQ(h.total_s(), 0.0);  // a sum over nothing is still 0
}

TEST(LatencyHistogram, MergedEmptyStaysSentinel) {
  // Merging empties in any combination must not manufacture samples:
  // the merged histogram keeps the sentinel on every stat path.
  LatencyHistogram a, b, c;
  a.merge(b);
  b.merge(c);
  a.merge(b);
  EXPECT_TRUE(a.empty());
  EXPECT_TRUE(std::isnan(a.percentile(99)));
  EXPECT_TRUE(std::isnan(a.min_s()));
  EXPECT_TRUE(std::isnan(a.max_s()));
  EXPECT_TRUE(std::isnan(a.mean_s()));
  // ...and merging an empty into a live histogram must not disturb it.
  LatencyHistogram live;
  live.record_ns(5000);
  live.merge(a);
  EXPECT_DOUBLE_EQ(live.min_s(), 5000e-9);
  EXPECT_FALSE(std::isnan(live.percentile(99)));
}

TEST(LatencyHistogram, SingleSample) {
  LatencyHistogram h;
  h.record_ns(1234567);
  EXPECT_EQ(h.count(), 1);
  // Min and max are tracked exactly regardless of bucketing.
  EXPECT_DOUBLE_EQ(h.min_s(), 1234567e-9);
  EXPECT_DOUBLE_EQ(h.max_s(), 1234567e-9);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1234567e-9);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1234567e-9);
  EXPECT_NEAR(h.percentile(50), 1234567e-9,
              LatencyHistogram::kMaxRelativeError * 1234567e-9);
}

TEST(LatencyHistogram, NegativeDurationsClampToZero) {
  LatencyHistogram h;
  h.record_ns(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min_s(), 0.0);
  EXPECT_EQ(h.max_s(), 0.0);
}

TEST(LatencyHistogram, ExactBelowPrecisionThreshold) {
  // Every value below kPrecisionBuckets ns has its own bucket: the
  // percentile must be *exact*, not just within the relative bound.
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  for (std::int64_t v = 0; v < LatencyHistogram::kPrecisionBuckets; ++v)
    for (int repeat = 0; repeat <= v % 3; ++repeat) samples.push_back(v);
  record_all(h, samples);
  std::vector<std::int64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0})
    EXPECT_DOUBLE_EQ(h.percentile(p), exact_percentile_s(sorted, p))
        << "p=" << p;
}

TEST(LatencyHistogram, UniformDistribution) {
  Rng rng(1);
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(static_cast<std::int64_t>(rng.uniform(0.0, 5e7)));
  record_all(h, samples);
  expect_percentiles_close(h, samples);
}

TEST(LatencyHistogram, LogNormalDistribution) {
  // Heavy-tailed: the shape serving latencies actually take.
  Rng rng(2);
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 20000; ++i)
    samples.push_back(
        static_cast<std::int64_t>(std::exp(rng.normal(12.0, 2.5))));
  record_all(h, samples);
  expect_percentiles_close(h, samples);
}

TEST(LatencyHistogram, BimodalWithHugeOutliers) {
  // Adversarial: two tight modes eight orders of magnitude apart plus
  // sentinel extremes — exercises the widest buckets.
  Rng rng(3);
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(100 + static_cast<std::int64_t>(rng.uniform(0.0, 20.0)));
    samples.push_back(static_cast<std::int64_t>(1e10) +
                      static_cast<std::int64_t>(rng.uniform(0.0, 1e8)));
  }
  samples.push_back(0);
  samples.push_back(std::int64_t{1} << 55);
  record_all(h, samples);
  expect_percentiles_close(h, samples);
}

TEST(LatencyHistogram, ConstantValue) {
  // Degenerate distribution: all mass in one bucket. Percentiles must
  // come back clamped to [min, max] — i.e. exactly the value.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record_ns(777777);
  for (const double p : {0.0, 10.0, 50.0, 99.9, 100.0})
    EXPECT_DOUBLE_EQ(h.percentile(p), 777777e-9) << "p=" << p;
}

TEST(LatencyHistogram, PowersOfTwoBucketBoundaries) {
  // Values at and around every power of two probe bucket-edge math.
  LatencyHistogram h;
  std::vector<std::int64_t> samples;
  for (int bit = 0; bit < 62; ++bit) {
    const std::int64_t v = std::int64_t{1} << bit;
    samples.push_back(v - 1);
    samples.push_back(v);
    samples.push_back(v + 1);
  }
  record_all(h, samples);
  expect_percentiles_close(h, samples);
  EXPECT_EQ(h.count(), static_cast<std::int64_t>(samples.size()));
}

// The PowersOfTwoBucketBoundaries samples sum to 3 * (2^62 - 1), past
// int64's range: the total saturates at int64 max (signed overflow is
// undefined), and merging two saturated histograms stays there.
TEST(LatencyHistogram, TotalSaturatesInsteadOfOverflowing) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  LatencyHistogram h;
  std::int64_t n = 0;
  for (int bit = 0; bit < 62; ++bit) {
    const std::int64_t v = std::int64_t{1} << bit;
    for (const std::int64_t s : {v - 1, v, v + 1}) {
      h.record_ns(s);
      ++n;
    }
  }
  const double max_s = 1e-9 * static_cast<double>(kMax);
  EXPECT_EQ(h.total_s(), max_s);
  EXPECT_EQ(h.mean_s(), max_s / static_cast<double>(n));
  LatencyHistogram merged = h;
  merged.merge(h);
  EXPECT_EQ(merged.count(), 2 * n);
  EXPECT_EQ(merged.total_s(), max_s);
  h.record_ns(kMax);
  EXPECT_EQ(h.total_s(), max_s);
}

TEST(LatencyHistogram, MeanAndTotalAreExact) {
  // Sums are kept as exact integers, not bucket approximations.
  LatencyHistogram h;
  std::int64_t total = 0;
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int64_t>(rng.uniform(0.0, 1e9));
    h.record_ns(v);
    total += v;
  }
  EXPECT_DOUBLE_EQ(h.total_s(), static_cast<double>(total) * 1e-9);
  EXPECT_DOUBLE_EQ(h.mean_s(), static_cast<double>(total) * 1e-9 / 1000.0);
}

TEST(LatencyHistogram, RecordSecondsMatchesNanoseconds) {
  LatencyHistogram a, b;
  a.record_s(0.0015);
  b.record_ns(1500000);
  EXPECT_EQ(a, b);
}

TEST(LatencyHistogram, MergeEqualsSingleHistogram) {
  // Splitting a stream across k histograms and merging must be
  // bitwise-identical to recording everything into one.
  Rng rng(5);
  LatencyHistogram whole;
  LatencyHistogram parts[4];
  for (int i = 0; i < 10000; ++i) {
    const auto v =
        static_cast<std::int64_t>(std::exp(rng.normal(10.0, 3.0)));
    whole.record_ns(v);
    parts[i % 4].record_ns(v);
  }
  LatencyHistogram merged;
  for (const auto& part : parts) merged.merge(part);
  EXPECT_EQ(merged, whole);
}

TEST(LatencyHistogram, MergeIsCommutativeAndAssociative) {
  Rng rng(6);
  LatencyHistogram a, b, c;
  for (int i = 0; i < 3000; ++i) {
    a.record_ns(static_cast<std::int64_t>(rng.uniform(0.0, 1e6)));
    b.record_ns(static_cast<std::int64_t>(std::exp(rng.normal(14.0, 2.0))));
    if (i % 7 == 0) c.record_ns(static_cast<std::int64_t>(1e12));
  }
  // (a + b) + c
  LatencyHistogram ab = a;
  ab.merge(b);
  LatencyHistogram ab_c = ab;
  ab_c.merge(c);
  // a + (b + c)
  LatencyHistogram bc = b;
  bc.merge(c);
  LatencyHistogram a_bc = a;
  a_bc.merge(bc);
  // (c + b) + a
  LatencyHistogram cb = c;
  cb.merge(b);
  LatencyHistogram cb_a = cb;
  cb_a.merge(a);
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, cb_a);
}

TEST(LatencyHistogram, MergeWithEmptyIsIdentity) {
  LatencyHistogram h, empty;
  h.record_ns(42);
  h.record_ns(999999);
  const LatencyHistogram before = h;
  h.merge(empty);
  EXPECT_EQ(h, before);
  LatencyHistogram other;
  other.merge(before);
  EXPECT_EQ(other, before);
}

TEST(LatencyHistogram, CrossThreadMergeMatchesSerialReference) {
  // The server's usage pattern: each thread records into its own
  // histogram, the aggregator merges. The merged result must equal a
  // serial recording of the union, in any merge order.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<std::int64_t>> streams(kThreads);
  Rng seeder(7);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng = seeder.fork();
    for (int i = 0; i < kPerThread; ++i)
      streams[t].push_back(
          static_cast<std::int64_t>(std::exp(rng.normal(11.0, 2.0))));
  }

  std::vector<LatencyHistogram> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(
        [&, t] { record_all(per_thread[t], streams[t]); });
  for (auto& thread : threads) thread.join();

  LatencyHistogram serial;
  std::vector<std::int64_t> all;
  for (const auto& stream : streams)
    for (const auto v : record_all(serial, stream)) all.push_back(v);

  LatencyHistogram forward, reverse;
  for (int t = 0; t < kThreads; ++t) forward.merge(per_thread[t]);
  for (int t = kThreads - 1; t >= 0; --t) reverse.merge(per_thread[t]);
  EXPECT_EQ(forward, serial);
  EXPECT_EQ(reverse, serial);
  expect_percentiles_close(forward, all);
}

TEST(LatencyHistogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record_ns(123456);
  h.reset();
  EXPECT_EQ(h, LatencyHistogram{});
  EXPECT_TRUE(h.empty());
}

// Regression: llround(NaN) is unspecified, and the negative clamp in
// record_ns turned the usual garbage result into a "0 ns" sample —
// exactly the sentinel-defeating zero the empty-histogram NaN contract
// exists to kill. Non-finite durations must leave no mark on the
// order statistics.
TEST(LatencyHistogram, NonFiniteSamplesAreDroppedNotZeroed) {
  LatencyHistogram h;
  h.record_s(std::numeric_limits<double>::quiet_NaN());
  h.record_s(std::numeric_limits<double>::infinity());
  h.record_s(-std::numeric_limits<double>::infinity());
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_TRUE(std::isnan(h.percentile(50.0)));
  EXPECT_TRUE(std::isnan(h.min_s()));
}

TEST(LatencyHistogram, NonFiniteDropsLeaveTraceFootprint) {
  dlbench::runtime::trace::TraceScope scope;
  LatencyHistogram h;
  h.record_s(std::numeric_limits<double>::quiet_NaN());
  h.record_s(std::numeric_limits<double>::infinity());
  h.record_s(0.5);  // finite: recorded, never counted as dropped
  std::int64_t dropped = 0;
  for (const auto& c : scope.report().counters)
    if (c.name == "hist.dropped_nonfinite") dropped = c.value;
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(h.count(), 1);
}

// Regression: llround of a finite value outside int64's range is also
// unspecified — on x86 it returns INT64_MIN, which the negative clamp
// then logged as a 0 ns latency. A huge finite sample must saturate at
// the top of the range, not alias to the bottom.
TEST(LatencyHistogram, HugeFiniteSamplesSaturateInsteadOfWrapping) {
  LatencyHistogram h;
  h.record_s(1.0e12);  // ~31,700 years: 1e21 ns overflows int64
  ASSERT_EQ(h.count(), 1);
  EXPECT_GT(h.max_s(), 9.0e9);  // saturated near INT64_MAX ns
  EXPECT_GT(h.percentile(100.0), 9.0e9);
  h.record_s(-1.0e12);  // huge negatives clamp to 0 like any negative
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min_s(), 0.0);
}

TEST(LatencyHistogram, SummaryIsHumanReadable) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.record_ns(i * 1000000);
  const std::string s = h.summary();
  EXPECT_NE(s.find("n=100"), std::string::npos) << s;
  EXPECT_NE(s.find("p99"), std::string::npos) << s;
}

}  // namespace
