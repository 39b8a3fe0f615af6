#pragma once

// Log-bucketed latency histogram.
//
// The serving subsystem's headline metric is the latency *distribution*
// — the paper's follow-up (DLaaS measurement study) shows p99/p999 tail
// latency, not mean throughput, dominates serving cost. A sorted vector
// of every sample would be exact but unbounded; this histogram is
// HdrHistogram-style instead: fixed memory (one int64 per bucket),
// O(1) record, exact counts with bounded relative value error per
// bucket, and merge() is exact (bucket-wise sum), so per-thread
// histograms can be combined into one distribution with no loss.
//
// Threading contract: a LatencyHistogram is NOT internally
// synchronized. Each recording thread owns its own instance; an
// aggregator merges them under external locking (ModelServer does
// exactly this per worker).

#include <cstdint>
#include <string>

namespace dlbench::runtime {

/// Fixed-size log-bucketed histogram of durations. Values are recorded
/// in nanoseconds; below kPrecisionBuckets they are exact, above they
/// land in buckets of relative width 1/32 (kMaxRelativeError).
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: each power-of-two octave is split into
  /// 2^(kSubBits-1) buckets once values exceed 2^kSubBits ns.
  static constexpr int kSubBits = 6;
  static constexpr std::int64_t kHalf = std::int64_t{1} << (kSubBits - 1);
  /// Values below this many nanoseconds are bucketed exactly.
  static constexpr std::int64_t kPrecisionBuckets = std::int64_t{1}
                                                    << kSubBits;
  /// Upper bound on |estimate - true| / true for any percentile
  /// (bucket width / bucket lower bound = 1/kHalf; the reported value
  /// is the bucket midpoint, halving that again).
  static constexpr double kMaxRelativeError = 1.0 / static_cast<double>(kHalf);
  /// Bucket count covering the full int64 nanosecond range.
  static constexpr int kNumBuckets = (64 - kSubBits + 2) * kHalf;

  LatencyHistogram();

  /// Records one duration. Negative durations clamp to zero.
  void record_ns(std::int64_t ns);
  /// Seconds variant. Non-finite durations are DROPPED (counted via the
  /// `hist.dropped_nonfinite` trace counter), never recorded as 0 ns;
  /// finite values beyond the int64 nanosecond range saturate at the
  /// top bucket.
  void record_s(double seconds);

  /// Adds every sample of `other` into this histogram. Exact: merging
  /// is commutative and associative (bucket-wise integer sums).
  void merge(const LatencyHistogram& other);

  /// Drops all samples.
  void reset();

  std::int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Min/max/mean of an empty histogram are NaN (see percentile).
  double min_s() const;
  double max_s() const;
  double mean_s() const;
  double total_s() const;

  /// Value at percentile `p` in [0, 100], seconds, within
  /// kMaxRelativeError of the exact order statistic (rank
  /// ceil(p/100 * count)). p <= 0 returns the exact minimum, p >= 100
  /// the exact maximum. An empty histogram (including one built only
  /// from empty merges) has no order statistics: every percentile —
  /// and min/max/mean — returns quiet NaN, one sentinel on every path,
  /// so a window where every request was shed can never masquerade as
  /// a 0 ns p99. JSON writers must map non-finite values to null
  /// (core::report does).
  double percentile(double p) const;

  /// "n=1234 mean=1.2ms p50=0.9ms p95=3.1ms p99=5.0ms p999=7.2ms
  ///  max=8.8ms" — all adaptive units.
  std::string summary() const;

  /// Exact state equality (bucket counts + min/max/sum/count); the
  /// merge-associativity tests rely on this being bitwise.
  bool operator==(const LatencyHistogram& other) const;
  bool operator!=(const LatencyHistogram& other) const {
    return !(*this == other);
  }

 private:
  static int bucket_index(std::int64_t ns);
  /// Midpoint of the value range covered by bucket `index`, ns.
  static std::int64_t bucket_mid_ns(int index);

  std::int64_t buckets_[kNumBuckets];
  std::int64_t count_ = 0;
  std::int64_t min_ns_ = 0;
  std::int64_t max_ns_ = 0;
  /// Exact integer sum, so merged totals are order-independent;
  /// saturates at int64 max rather than overflowing.
  std::int64_t sum_ns_ = 0;
};

}  // namespace dlbench::runtime
