#pragma once

// Step-scoped tensor memory arenas — the storage layer under the
// execution-plan compiler (nn/plan.hpp, DESIGN.md §15).
//
// The hot loops of this codebase (train step, data-parallel shard, serve
// forward) allocate the same sequence of activation/gradient tensors
// every iteration: the shapes are a pure function of (model, batch
// shape). This module turns that observation into zero steady-state
// heap allocations in three phases:
//
//   1. Measure: one representative step runs with a MeasureScope
//      active. Every Tensor allocated on the owner thread is served
//      from the heap as usual, but tagged with a deleter that records
//      its *death* — so after the step we hold, per allocation, its
//      size plus [def_seq, death_seq) lifetime interval in allocation
//      order.
//   2. Pack: pack_slots() replays the recorded def/death events
//      through a first-fit free-list allocator, assigning every slot a
//      64-byte-aligned offset such that no two slots whose lifetimes
//      overlap share bytes. Slots that outlive the step (layer caches
//      released only when the next step overwrites them) are never
//      freed inside the step, so nothing later can alias them.
//   3. Replay: an Arena owns one block of `arena_bytes` and a
//      ReplayScope serves the step's k-th allocation at the k-th
//      recorded offset via the shared_ptr aliasing constructor — no
//      heap traffic, no control-block allocation, and the block stays
//      alive until every outstanding handle drops (handles from step N
//      remain *valid* in step N+1; their contents are overwritten when
//      the same slot is redefined, which is exactly the Caffe blob-
//      sharing contract: nothing reads an activation after the step
//      that produced it, except the layer caches the next forward
//      reassigns before backward runs).
//
// Any divergence from the recorded trace (different size at sequence
// k, more allocations than slots) spills that allocation to the heap,
// sets a flag the planner uses to invalidate the plan, and the step
// still completes correctly — the arena is an optimization, never a
// correctness dependency. Numerical behavior is unchanged by
// construction: the arena changes where bytes live, never what is
// written to them, so planned and unplanned runs are bitwise
// identical at any thread count.
//
// Threading contract: scopes are thread-local and consulted only by
// the thread that installed them. Pool workers never see a scope, so
// worker-side allocations (there are none on the tensor hot path; see
// the ThreadScratch note below) fall through to the heap untouched.
//
// Counters (count() below): tensor.arena_allocs / tensor.arena_bytes
// count replay hits; tensor.arena_spills counts replay misses; heap
// allocations count as tensor.allocs / tensor.bytes on every path;
// plan.replays counts replayed steps (nn/plan);
// tensor.arena_mapped_bytes is the net size of the mapped arena blocks
// (added at mmap, subtracted at munmap). Each is bumped at one site,
// into a process-wide total and the trace counter of the same name, so
// the zero-allocation and freed-arena claims are checkable with no
// trace scope active.

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace dlbench::tensor::arena {

namespace detail {
std::shared_ptr<float[]> scope_alloc(std::size_t floats, bool zero);
}  // namespace detail

/// Counted buffer events, in the order of the name table in arena.cpp.
enum class Event {
  kHeapAllocs,   // tensor.allocs
  kHeapBytes,    // tensor.bytes
  kArenaAllocs,  // tensor.arena_allocs
  kArenaBytes,   // tensor.arena_bytes
  kArenaSpills,  // tensor.arena_spills
  kPlanReplays,  // plan.replays
  kMappedBytes,  // tensor.arena_mapped_bytes (net: + map, - unmap)
  kCount
};

/// Counts `n` occurrences of `event` from any thread: the process-wide
/// total and the trace counter move together.
void count(Event event, std::int64_t n = 1);

/// Process-wide total of `event` since start-up.
std::int64_t total(Event event);

/// Sentinel death_seq for allocations still live when the measured
/// step ended; they are treated as live-to-end and never reused
/// within the step.
inline constexpr std::int64_t kNeverDies =
    std::numeric_limits<std::int64_t>::max();

/// One recorded allocation of a measured step, in allocation order.
struct Slot {
  std::int64_t bytes = 0;      // payload size requested
  std::int64_t offset = -1;    // assigned by pack_slots(), 64B-aligned
  std::int64_t def_seq = 0;    // position in the shared def/death order
  std::int64_t death_seq = kNeverDies;
  bool zeroed = false;         // allocation asked for zero-fill
};

/// Allocation trace of one measured step. Created by the planner,
/// filled by MeasureScope + the deleters it hands out; deleters may
/// outlive the scope (caches dying next step), so the state is shared
/// and records deaths only until sealed.
class Measurement {
 public:
  /// Seals the trace and assigns offsets; returns the packed capacity
  /// in bytes. Idempotent.
  std::int64_t seal_and_pack();

  const std::vector<Slot>& slots() const { return slots_; }
  /// Packed capacity (after seal_and_pack); bytes the replay arena
  /// must own.
  std::int64_t arena_bytes() const { return arena_bytes_; }
  /// Sum of aligned slot sizes — what a no-reuse arena would need.
  /// The measured-vs-naive ratio is the lifetime analysis's win.
  std::int64_t naive_bytes() const { return naive_bytes_; }
  bool sealed() const { return sealed_; }

  /// Shared with the deleters of measured tensors; defined in
  /// arena.cpp. Public only so those (file-local) deleters can name
  /// it — not part of the API.
  struct State;

 private:
  friend class MeasureScope;
  friend std::shared_ptr<float[]> detail::scope_alloc(std::size_t, bool);

  std::shared_ptr<State> state_;
  std::vector<Slot> slots_;
  std::int64_t arena_bytes_ = 0;
  std::int64_t naive_bytes_ = 0;
  bool sealed_ = false;
};

/// Assigns offsets to `slots` (mutated in place) with a first-fit
/// free-list sweep over the def/death event order; returns the high
/// water in bytes. Exposed separately from Measurement for the
/// lifetime/aliasing unit tests.
std::int64_t pack_slots(std::vector<Slot>& slots);

/// One reusable block sized by a sealed Measurement, plus the slot
/// table replayed against it.
class Arena {
 public:
  explicit Arena(const Measurement& measured);

  std::int64_t capacity_bytes() const { return capacity_; }
  const std::vector<Slot>& slots() const { return slots_; }

 private:
  friend class ReplayScope;
  friend std::shared_ptr<float[]> detail::scope_alloc(std::size_t, bool);
  std::vector<Slot> slots_;
  std::int64_t capacity_ = 0;
  std::shared_ptr<float[]> block_;  // keepalive for aliased handles
};

/// RAII: records every owner-thread Tensor allocation into a
/// Measurement until destroyed. At most one scope (of either kind)
/// per thread.
class MeasureScope {
 public:
  explicit MeasureScope(Measurement& m);
  MeasureScope(const MeasureScope&) = delete;
  MeasureScope& operator=(const MeasureScope&) = delete;
  ~MeasureScope();
};

/// RAII: serves owner-thread Tensor allocations from the arena by
/// sequence number until destroyed.
class ReplayScope {
 public:
  explicit ReplayScope(Arena& a);
  ReplayScope(const ReplayScope&) = delete;
  ReplayScope& operator=(const ReplayScope&) = delete;
  ~ReplayScope();

  /// True when any allocation missed the recorded trace (size
  /// mismatch or overrun) and fell back to the heap.
  bool spilled() const;
  /// Replay hits served so far this step.
  std::int64_t served() const;
};

namespace detail {
// scope_alloc (declared above): allocation hook consulted by Tensor's
// constructors. Returns an empty handle when no scope is active on
// this thread (or the replay spilled): the caller then allocates from
// the heap and bumps the regular heap counters itself.

/// True when this thread has an active measure/replay scope (i.e.
/// scope_alloc may return non-null).
bool scope_active();
}  // namespace detail

}  // namespace dlbench::tensor::arena
