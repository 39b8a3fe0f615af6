// Unit tests for dlb_runtime: thread pool, device model, scaling.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/clock.hpp"
#include "runtime/device.hpp"
#include "runtime/scale.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"

namespace dlbench::runtime {
namespace {

TEST(ThreadPool, InlineModeRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(10, 0);
  pool.parallel_for(10, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RangesPartitionCompletely) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_ranges(997, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 997u);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_ranges(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw dlbench::Error("boom");
                                 }),
               dlbench::Error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t) { throw dlbench::Error("x"); }),
      dlbench::Error);
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, SubmitRunsOnWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      if (count.fetch_add(1) + 1 == 8) {
        // Notify under the mutex: otherwise the waiter can see the
        // count, return, and destroy `cv` mid-notify (TSan-visible).
        std::lock_guard<std::mutex> lock(m);
        cv.notify_one();
      }
    });
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return count.load() == 8; }));
}

// Regression: an inline pool (size 1, no worker threads) used to
// enqueue submitted tasks onto a queue nothing ever drained — the task
// was silently stranded forever. It must execute on the caller.
TEST(ThreadPool, SubmitOnInlinePoolRunsImmediately) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.size(), 1u);
  int ran = 0;
  pool.submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // no wait: it must have run synchronously
}

TEST(ThreadPool, ManySmallDispatchesAreStable) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(16, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 16);
  }
}

// Regression: DLB_THREADS used to size only the device-facing pool;
// the attack engine's pool ignored it and came up at hardware width no
// matter what the knob said. The one process-wide pool sizes through
// env_pool_threads(). (Under ctest every TEST runs in its own process,
// so this test is the first touch of the shared pool and the sizing
// it observes is the creation-time sizing. It is also registered
// before any Device test for whole-binary runs.)
TEST(ThreadPool, EnvSizingHonorsDlbThreads) {
  ::setenv("DLB_THREADS", "3", 1);
  EXPECT_EQ(env_pool_threads(), 3u);
  EXPECT_EQ(Device::gpu().workers(), 3u);
  ::unsetenv("DLB_THREADS");
  const std::size_t fallback =
      std::max(2u, std::thread::hardware_concurrency());
  EXPECT_EQ(env_pool_threads(), fallback);
}

TEST(ThreadPool, EnvSizingIgnoresNonPositiveValues) {
  const std::size_t fallback =
      std::max(2u, std::thread::hardware_concurrency());
  ::setenv("DLB_THREADS", "0", 1);
  EXPECT_EQ(env_pool_threads(), fallback);
  ::setenv("DLB_THREADS", "-4", 1);
  EXPECT_EQ(env_pool_threads(), fallback);
  ::setenv("DLB_THREADS", "not-a-number", 1);
  EXPECT_EQ(env_pool_threads(), fallback);
  ::unsetenv("DLB_THREADS");
}

// Regression: parallel_for_ranges always cut one chunk per worker, so
// a 5000-element optimizer step on a wide pool dispatched a spray of
// sub-grain slivers whose enqueue cost dwarfed the arithmetic. The
// split is now min(workers, ceil(count / grain)).
TEST(ThreadPool, GrainBoundsChunkCount) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_ranges(
      5000,
      [&](std::size_t lo, std::size_t hi) {
        chunks.fetch_add(1);
        covered.fetch_add(hi - lo);
      },
      /*grain=*/4096);
  EXPECT_EQ(chunks.load(), 2);  // ceil(5000 / 4096) = 2, not 4
  EXPECT_EQ(covered.load(), 5000u);
}

// Regression: the chunk count was min(workers, ceil(count / grain))
// while the chunk size was rounded up, so count=5 on 4 workers cut
// chunks of 2 and still dispatched a fourth, inverted range [6, 5).
// Every dispatched range must be non-empty and ordered, and together
// they must cover [0, count) exactly once.
TEST(ThreadPool, RangesAreNonEmptyAndCoverExactlyOnce) {
  for (std::size_t workers = 1; workers <= 8; ++workers) {
    ThreadPool pool(workers);
    for (std::size_t count = 1; count <= 64; ++count) {
      for (std::size_t grain = 1; grain <= 4; ++grain) {
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        pool.parallel_for_ranges(
            count,
            [&](std::size_t lo, std::size_t hi) {
              std::lock_guard<std::mutex> lock(mu);
              ranges.emplace_back(lo, hi);
            },
            grain);
        std::sort(ranges.begin(), ranges.end());
        std::size_t next = 0;
        for (const auto& [lo, hi] : ranges) {
          ASSERT_LT(lo, hi) << "count=" << count << " workers=" << workers
                            << " grain=" << grain;
          ASSERT_EQ(lo, next) << "count=" << count << " workers=" << workers
                              << " grain=" << grain;
          next = hi;
        }
        ASSERT_EQ(next, count) << "count=" << count << " workers=" << workers
                               << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPool, DefaultGrainKeepsPerWorkerSplit) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  pool.parallel_for_ranges(
      5000, [&](std::size_t, std::size_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 4);  // grain = 1: one chunk per worker
}

// Regression: fanning out from inside a pool task blocked the worker on
// a completion that needed its own slot — with every worker doing the
// same, the pool deadlocked. Nested fan-out now fails fast instead.
TEST(ThreadPool, RejectsReentrantFanOut) {
  ThreadPool pool(2);
  EXPECT_FALSE(in_pool_worker());
  std::atomic<int> nested_throws{0};
  pool.parallel_for_ranges(2, [&](std::size_t, std::size_t) {
    EXPECT_TRUE(in_pool_worker());
    try {
      pool.parallel_for_ranges(64, [](std::size_t, std::size_t) {});
    } catch (const dlbench::Error&) {
      nested_throws.fetch_add(1);
    }
  });
  EXPECT_FALSE(in_pool_worker());
  EXPECT_EQ(nested_throws.load(), 2);
}

TEST(ThreadPool, RejectsFanOutToAnotherPoolFromWorker) {
  // The ban is per-thread, not per-pool: blocking a worker on another
  // pool's completion stacks pools' capacity planning against each
  // other just as badly.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> nested_throws{0};
  outer.parallel_for_ranges(2, [&](std::size_t, std::size_t) {
    try {
      inner.parallel_for_ranges(8, [](std::size_t, std::size_t) {});
    } catch (const dlbench::Error&) {
      nested_throws.fetch_add(1);
    }
  });
  EXPECT_EQ(nested_throws.load(), 2);
}

TEST(Device, CpuIsSerial) {
  Device cpu = Device::cpu();
  EXPECT_EQ(cpu.kind(), Device::Kind::kCpu);
  EXPECT_FALSE(cpu.is_parallel());
  EXPECT_EQ(cpu.workers(), 1u);
  EXPECT_EQ(cpu.name(), "CPU");
}

TEST(Device, GpuIsParallel) {
  Device gpu = Device::gpu();
  EXPECT_EQ(gpu.kind(), Device::Kind::kGpu);
  EXPECT_TRUE(gpu.is_parallel());
  EXPECT_GE(gpu.workers(), 2u);
  EXPECT_EQ(gpu.name(), "GPU");
}

TEST(Device, ParallelWithOneWorkerDegradesToCpu) {
  Device dev = Device::parallel(1);
  EXPECT_FALSE(dev.is_parallel());
}

TEST(Device, ParallelForCoversRangeOnBothKinds) {
  for (const Device& dev : {Device::cpu(), Device::parallel(3)}) {
    std::vector<std::atomic<int>> hits(257);
    dev.parallel_for(257, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(Device, GrainKeepsSmallWorkInline) {
  Device dev = Device::parallel(4);
  int calls = 0;
  // count <= grain must run as a single inline range.
  dev.parallel_for(8, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 8u);
  },
                   /*grain=*/16);
  EXPECT_EQ(calls, 1);
}

// A mistyped DLB_SIMD used to select the portable kernel silently.
// Nothing in this binary resolves the level before this test, so under
// ctest (one process per TEST) and in whole-binary runs alike it reads
// the variable fresh.
TEST(Device, UnknownSimdLevelThrows) {
  ::setenv("DLB_SIMD", "avx", 1);
  try {
    (void)active_simd_level();
    ADD_FAILURE() << "DLB_SIMD=avx was accepted";
  } catch (const dlbench::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DLB_SIMD"), std::string::npos) << what;
    EXPECT_NE(what.find("avx512"), std::string::npos) << what;
  }
  ::unsetenv("DLB_SIMD");
}

TEST(Scale, SamplesScaleWithFloor) {
  ScaleConfig cfg;
  cfg.data_fraction = 0.1;
  EXPECT_EQ(cfg.scale_samples(1000), 100);
  EXPECT_EQ(cfg.scale_samples(100, 64), 64);  // floor kicks in
  EXPECT_EQ(cfg.scale_samples(10, 64), 10);   // never exceeds n
}

TEST(Scale, EpochsScaleWithFloor) {
  ScaleConfig cfg;
  cfg.epoch_fraction = 0.5;
  EXPECT_DOUBLE_EQ(cfg.scale_epochs(10.0), 5.0);
  EXPECT_DOUBLE_EQ(cfg.scale_epochs(0.01), 0.05);
}

TEST(Scale, StepCap) {
  ScaleConfig cfg;
  EXPECT_EQ(cfg.cap_steps(1000), 1000);  // no cap by default
  cfg.max_step_cap = 10;
  EXPECT_EQ(cfg.cap_steps(1000), 10);
  EXPECT_EQ(cfg.cap_steps(5), 5);
}

TEST(Scale, InvalidFractionThrows) {
  ScaleConfig cfg;
  cfg.data_fraction = 0.0;
  EXPECT_THROW(cfg.scale_samples(10), dlbench::Error);
  cfg.data_fraction = 1.5;
  EXPECT_THROW(cfg.scale_samples(10), dlbench::Error);
}

// now_ns() is the one clock every elapsed time is read from.
TEST(Stopwatch, MeasuresElapsedTime) {
  const std::int64_t first = now_ns();
  const std::int64_t second = now_ns();
  EXPECT_LE(first, second);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const std::int64_t after = now_ns();
  EXPECT_GT(after, second);
  EXPECT_GT(seconds_since(first), 0.0);
  EXPECT_DOUBLE_EQ(seconds_between(first, first + 1500000000), 1.5);
}

}  // namespace
}  // namespace dlbench::runtime
