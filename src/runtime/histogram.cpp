#include "runtime/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "runtime/trace.hpp"

namespace dlbench::runtime {

namespace {

// Adaptive duration formatting for summary lines.
std::string fmt_duration(double seconds) {
  char buf[32];
  if (seconds >= 1.0)
    std::snprintf(buf, sizeof(buf), "%.3gs", seconds);
  else if (seconds >= 1e-3)
    std::snprintf(buf, sizeof(buf), "%.3gms", seconds * 1e3);
  else
    std::snprintf(buf, sizeof(buf), "%.3gus", seconds * 1e6);
  return buf;
}

// Sum of two non-negative nanosecond totals, pinned at int64 max
// instead of overflowing: samples near the top bucket (the clamp of a
// 292-year duration) would otherwise wrap the exact sum. Pinning keeps
// merge() commutative and associative (it is min(true sum, max)).
std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  return a > kMax - b ? kMax : a + b;
}

}  // namespace

LatencyHistogram::LatencyHistogram() {
  std::memset(buckets_, 0, sizeof(buckets_));
}

int LatencyHistogram::bucket_index(std::int64_t ns) {
  // Width of the value in bits; |1 keeps countl_zero defined for 0.
  const int w =
      64 - std::countl_zero(static_cast<std::uint64_t>(ns) | 1);
  const int shift = w - kSubBits;
  if (shift <= 0) return static_cast<int>(ns);  // exact region
  return static_cast<int>(shift * kHalf + (ns >> shift));
}

std::int64_t LatencyHistogram::bucket_mid_ns(int index) {
  if (index < kPrecisionBuckets) return index;
  const int shift = index / static_cast<int>(kHalf) - 1;
  const std::int64_t top = index - std::int64_t{shift} * kHalf;
  const std::int64_t lower = top << shift;
  return lower + ((std::int64_t{1} << shift) >> 1);
}

void LatencyHistogram::record_ns(std::int64_t ns) {
  if (ns < 0) ns = 0;
  if (count_ == 0) {
    min_ns_ = max_ns_ = ns;
  } else {
    min_ns_ = std::min(min_ns_, ns);
    max_ns_ = std::max(max_ns_, ns);
  }
  ++count_;
  sum_ns_ = saturating_add(sum_ns_, ns);
  ++buckets_[bucket_index(ns)];
}

void LatencyHistogram::record_s(double seconds) {
  // A NaN/Inf duration must never masquerade as a real sample (the
  // llround of a non-finite value is unspecified, and the negative
  // clamp in record_ns would silently log it as 0 ns — the exact
  // sentinel-defeating path the empty-histogram NaN work exists to
  // kill). Drop it, but leave a trace-counter footprint so a window
  // that discarded samples is visible.
  if (!std::isfinite(seconds)) {
    trace::counter_add("hist.dropped_nonfinite", 1);
    return;
  }
  const double ns = seconds * 1e9;
  // llround on a value outside int64's range is likewise unspecified;
  // clamp to the top bucket instead (a 292-year latency is saturated,
  // not dropped — it is still a real, finite sample).
  constexpr double kMaxNs = 9.2e18;  // < 2^63 - 1, exactly representable
  if (ns >= kMaxNs) {
    record_ns(std::numeric_limits<std::int64_t>::max());
    return;
  }
  if (ns <= -kMaxNs) {
    record_ns(0);  // record_ns clamps negatives to zero anyway
    return;
  }
  record_ns(static_cast<std::int64_t>(std::llround(ns)));
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ns_ = other.min_ns_;
    max_ns_ = other.max_ns_;
  } else {
    min_ns_ = std::min(min_ns_, other.min_ns_);
    max_ns_ = std::max(max_ns_, other.max_ns_);
  }
  count_ += other.count_;
  sum_ns_ = saturating_add(sum_ns_, other.sum_ns_);
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void LatencyHistogram::reset() {
  std::memset(buckets_, 0, sizeof(buckets_));
  count_ = min_ns_ = max_ns_ = sum_ns_ = 0;
}

namespace {
// The one empty-histogram sentinel. Every statistic of a histogram with
// no samples returns this — never 0, which is a legal latency.
const double kEmptySentinel = std::numeric_limits<double>::quiet_NaN();
}  // namespace

double LatencyHistogram::min_s() const {
  if (count_ == 0) return kEmptySentinel;
  return 1e-9 * static_cast<double>(min_ns_);
}

double LatencyHistogram::max_s() const {
  if (count_ == 0) return kEmptySentinel;
  return 1e-9 * static_cast<double>(max_ns_);
}

double LatencyHistogram::total_s() const {
  return 1e-9 * static_cast<double>(sum_ns_);
}

double LatencyHistogram::mean_s() const {
  if (count_ == 0) return kEmptySentinel;
  return total_s() / static_cast<double>(count_);
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return kEmptySentinel;
  if (p <= 0.0) return min_s();
  if (p >= 100.0) return max_s();
  const auto rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const std::int64_t mid =
          std::clamp(bucket_mid_ns(i), min_ns_, max_ns_);
      return 1e-9 * static_cast<double>(mid);
    }
  }
  return max_s();  // unreachable: counts sum to count_
}

std::string LatencyHistogram::summary() const {
  std::ostringstream os;
  os << "n=" << count_;
  if (count_ == 0) return os.str();
  os << " mean=" << fmt_duration(mean_s())
     << " p50=" << fmt_duration(percentile(50))
     << " p95=" << fmt_duration(percentile(95))
     << " p99=" << fmt_duration(percentile(99))
     << " p999=" << fmt_duration(percentile(99.9))
     << " max=" << fmt_duration(max_s());
  return os.str();
}

bool LatencyHistogram::operator==(const LatencyHistogram& other) const {
  return count_ == other.count_ && min_ns_ == other.min_ns_ &&
         max_ns_ == other.max_ns_ && sum_ns_ == other.sum_ns_ &&
         std::memcmp(buckets_, other.buckets_, sizeof(buckets_)) == 0;
}

}  // namespace dlbench::runtime
