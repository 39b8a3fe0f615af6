#pragma once

// The one clock every measurement reads: training, testing and crafting
// time, serve and fleet latencies, and trace span stamps. Readings are
// integer nanoseconds on the steady clock, so a stamp taken on one
// thread (a request's enqueue on a client thread) and closed on another
// (the replica that dequeues it) subtract to an elapsed time.

#include <chrono>
#include <cstdint>

namespace dlbench::runtime {

/// Monotonic nanoseconds. Only differences are meaningful.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds between two now_ns() readings.
inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Seconds elapsed since a now_ns() reading.
inline double seconds_since(std::int64_t start_ns) {
  return seconds_between(start_ns, now_ns());
}

}  // namespace dlbench::runtime
