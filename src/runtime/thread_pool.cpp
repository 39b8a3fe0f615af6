#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "runtime/fault.hpp"
#include "runtime/trace.hpp"
#include "util/error.hpp"

namespace dlbench::runtime {

namespace {
// True while this thread is executing a task on behalf of any pool.
// One flag across pools: a worker of pool A fanning out on pool B is
// the same blocked-slot hazard as re-entering A itself.
thread_local bool t_in_pool_worker = false;
}  // namespace

bool in_pool_worker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads <= 1) return;  // inline mode
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    fault::maybe_stall_worker();
    t_in_pool_worker = true;
    task();
    t_in_pool_worker = false;
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Inline pool: no worker will ever drain the queue, so enqueueing
    // here would strand the task forever. Run it on the caller, which
    // is the documented execution mode of a <=1-thread pool.
    trace::counter_add("pool.tasks", 1);
    task();
    return;
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    depth = tasks_.size();
  }
  // Recorded from the submitting thread only: workers may still be
  // draining the queue after a TraceScope on the caller's side ends.
  trace::counter_add("pool.tasks", 1);
  trace::gauge_record("pool.queue_depth", static_cast<std::int64_t>(depth));
  cv_.notify_one();
}

void ThreadPool::parallel_for_ranges(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (count == 0) return;
  if (workers_.empty()) {
    fn(0, count);
    return;
  }
  DLB_CHECK(!t_in_pool_worker,
            "ThreadPool::parallel_for_ranges called from a pool worker: the "
            "caller would block on completion while holding a worker slot "
            "(deadlock); run nested work serially instead");
  // min(workers, ceil(count/grain)) chunks: grain is the floor on chunk
  // size, so slightly-over-threshold counts get one or two meaty chunks
  // instead of a per-worker spray of slivers.
  // The chunk size is fixed first and the chunk count derived from it,
  // so every dispatched range is non-empty (count=5 on 4 workers is
  // three chunks: 2, 2 and 1).
  if (grain == 0) grain = 1;
  const std::size_t max_chunks = (count + grain - 1) / grain;
  const std::size_t target = std::min(max_chunks, workers_.size());
  const std::size_t chunk = (count + target - 1) / target;
  const std::size_t n_chunks = (count + chunk - 1) / chunk;

  // Completion state lives behind done_mu: the counter must be
  // decremented under the lock, otherwise the waiter can observe zero
  // and destroy the mutex while the last worker is still locking it.
  std::exception_ptr first_error;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t remaining = n_chunks;

  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    submit([&, begin, end] {
      std::exception_ptr error;
      try {
        fn(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_one();
    });
  }

  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_ranges(
      count,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      grain);
}

std::size_t env_pool_threads() {
  if (const char* env = std::getenv("DLB_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return std::max(2u, std::thread::hardware_concurrency());
}

}  // namespace dlbench::runtime
