#pragma once

// Fixed-size worker pool with a parallel_for primitive.
//
// This is the execution substrate behind the simulated "GPU" device:
// data-parallel kernels (matmul tiles, conv output rows, per-sample
// batch work) are sliced across the pool. A pool of size 1 executes
// inline on the calling thread, which is how the "CPU" device runs.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dlbench::runtime {

/// A fixed set of worker threads consuming a shared task queue.
/// Destruction joins all workers after draining outstanding tasks.
class ThreadPool {
 public:
  /// Creates `num_threads` workers. 0 or 1 means "inline execution":
  /// no threads are spawned and submitted work runs on the caller.
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t size() const { return workers_.empty() ? 1 : workers_.size(); }

  /// Runs fn(i) for i in [0, count), partitioned into contiguous chunks
  /// across the pool. Blocks until every index has been processed.
  /// Exceptions from fn propagate to the caller (first one wins).
  /// `grain` is the minimum indices per chunk (see parallel_for_ranges).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Like parallel_for but hands each worker a [begin, end) range, which
  /// avoids per-index std::function overhead in hot kernels. The work is
  /// split into min(workers, ceil(count / grain)) chunks, so a count
  /// barely above the caller's inline threshold is not shredded into
  /// per-worker slivers whose dispatch overhead dwarfs the work.
  ///
  /// Must not be called from a pool worker thread (of any pool): the
  /// caller blocks on chunk completion while occupying a worker slot,
  /// which deadlocks once every worker is a blocked caller. Checked
  /// (throws dlbench::Error); see in_pool_worker().
  void parallel_for_ranges(
      std::size_t count,
      const std::function<void(std::size_t begin, std::size_t end)>& fn,
      std::size_t grain = 1);

  /// Enqueues one task for the workers. On an inline pool (no workers)
  /// the task runs immediately on the calling thread — there is nobody
  /// else to run it, and parking it in the queue would leak it (or
  /// deadlock a caller waiting on its completion).
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Worker count of the process-wide Device::gpu() pool: DLB_THREADS
/// when set (>= 1), otherwise all hardware cores (min 2).
std::size_t env_pool_threads();

/// True on a thread owned by any ThreadPool while it executes a task.
/// parallel_for_ranges checks this to refuse re-entrant fan-out (the
/// deadlock described there); the data-parallel trainer relies on the
/// invariant that replica work running on pool workers never re-enters
/// a pool (replicas compute with the serial device).
bool in_pool_worker();

}  // namespace dlbench::runtime
