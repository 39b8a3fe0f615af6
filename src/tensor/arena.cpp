#include "tensor/arena.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <iterator>
#include <mutex>

#include <sys/mman.h>

#include "runtime/trace.hpp"
#include "util/error.hpp"

namespace dlbench::tensor::arena {

namespace {

constexpr std::int64_t kAlign = 64;  // bytes; one cache line

std::int64_t align_up(std::int64_t bytes) {
  return (bytes + kAlign - 1) / kAlign * kAlign;
}

constexpr const char* kEventNames[] = {
    "tensor.allocs",      "tensor.bytes",        "tensor.arena_allocs",
    "tensor.arena_bytes", "tensor.arena_spills", "plan.replays",
    "tensor.arena_mapped_bytes"};
constexpr auto kEventCount = static_cast<std::size_t>(Event::kCount);

std::array<std::atomic<std::int64_t>, kEventCount> event_totals{};

}  // namespace

void count(Event event, std::int64_t n) {
  static_assert(std::size(kEventNames) == kEventCount);
  const auto e = static_cast<std::size_t>(event);
  event_totals[e].fetch_add(n, std::memory_order_relaxed);
  runtime::trace::counter_add(kEventNames[e], n);
}

std::int64_t total(Event event) {
  return event_totals[static_cast<std::size_t>(event)].load(
      std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Measurement

// Shared with the deleters of measured tensors. The def/death sequence
// is one shared counter so the two event kinds are totally ordered.
// Deaths normally happen on the owner thread (handles are created and
// dropped there), but a handle may in principle be destroyed anywhere,
// so the counter is atomic and each slot's death is written exactly
// once (its own field — no two deleters share one).
struct Measurement::State {
  std::atomic<std::int64_t> seq{0};
  std::atomic<bool> sealed{false};
  // death_seq per slot, written by deleters and merged into the slot
  // table at seal time. Deaths normally land on the owner thread, but
  // a handle may be dropped anywhere, so the table is mutex-guarded —
  // measure-mode overhead is irrelevant (it runs for one step).
  std::mutex mu;
  std::vector<std::int64_t> deaths;
};

namespace {

// Per-thread active scope state. Exactly one of `measuring` /
// `replaying` is non-null while a scope lives.
struct ThreadScope {
  Measurement* measuring = nullptr;
  std::shared_ptr<Measurement::State> measure_state;
  Arena* replaying = nullptr;
  std::int64_t replay_next = 0;
  std::int64_t replay_served = 0;
  bool replay_spilled = false;
};

ThreadScope& tls() {
  thread_local ThreadScope scope;
  return scope;
}

// Deleter for measure-mode tensors: records the death sequence (until
// the measurement seals) and releases the heap buffer.
struct MeasuredDeleter {
  std::shared_ptr<Measurement::State> state;
  std::size_t slot;

  void operator()(float* p) const {
    if (!state->sealed.load(std::memory_order_acquire)) {
      const std::int64_t at =
          state->seq.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(state->mu);
      // Re-check under the lock: seal_and_pack copies the table with
      // the lock held, so a death losing this race is dropped whole
      // rather than written into an already-merged table.
      if (!state->sealed.load(std::memory_order_relaxed))
        state->deaths[slot] = at;
    }
    delete[] p;
  }
};

}  // namespace

std::int64_t Measurement::seal_and_pack() {
  if (sealed_) return arena_bytes_;
  sealed_ = true;
  if (state_) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->sealed.store(true, std::memory_order_release);
      for (std::size_t i = 0; i < slots_.size(); ++i)
        slots_[i].death_seq = state_->deaths[i];
    }
    state_.reset();
  }
  naive_bytes_ = 0;
  for (const Slot& s : slots_) naive_bytes_ += align_up(s.bytes);
  arena_bytes_ = pack_slots(slots_);
  return arena_bytes_;
}

std::int64_t pack_slots(std::vector<Slot>& slots) {
  // Replay the def/death events in sequence order through a first-fit
  // allocator over [0, high_water). Free holes are kept sorted by
  // offset and coalesced on release, so the sweep is deterministic and
  // two slots overlap in memory only if their lifetimes are disjoint.
  struct Event {
    std::int64_t seq;
    bool is_death;
    std::size_t slot;
  };
  std::vector<Event> events;
  events.reserve(slots.size() * 2);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    events.push_back({slots[i].def_seq, false, i});
    if (slots[i].death_seq != kNeverDies)
      events.push_back({slots[i].death_seq, true, i});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });

  struct Hole {
    std::int64_t offset, bytes;
  };
  std::vector<Hole> holes;  // sorted by offset
  std::int64_t high_water = 0;

  for (const Event& ev : events) {
    Slot& s = slots[ev.slot];
    const std::int64_t need = align_up(s.bytes);
    if (!ev.is_death) {
      auto fit = holes.end();
      for (auto it = holes.begin(); it != holes.end(); ++it)
        if (it->bytes >= need) {
          fit = it;
          break;
        }
      if (fit != holes.end()) {
        s.offset = fit->offset;
        fit->offset += need;
        fit->bytes -= need;
        if (fit->bytes == 0) holes.erase(fit);
      } else {
        s.offset = high_water;
        high_water += need;
      }
      continue;
    }
    // Death: return [offset, offset+need) and coalesce neighbours.
    Hole freed{s.offset, need};
    auto after = std::lower_bound(
        holes.begin(), holes.end(), freed,
        [](const Hole& a, const Hole& b) { return a.offset < b.offset; });
    if (after != holes.begin()) {
      auto before = std::prev(after);
      if (before->offset + before->bytes == freed.offset) {
        freed.offset = before->offset;
        freed.bytes += before->bytes;
        after = holes.erase(before);
      }
    }
    if (after != holes.end() && freed.offset + freed.bytes == after->offset) {
      freed.bytes += after->bytes;
      after = holes.erase(after);
    }
    holes.insert(after, freed);
  }
  return high_water;
}

// ---------------------------------------------------------------------------
// Arena

Arena::Arena(const Measurement& measured)
    : slots_(measured.slots()), capacity_(measured.arena_bytes()) {
  DLB_CHECK(measured.sealed(), "arena built from an unsealed measurement");
  // The block is mapped on its own, not taken from the malloc heap: a
  // plan arena is one long-lived block of tens of MB, and inside the
  // heap (where glibc's dynamic mmap threshold puts it once the first
  // plan's block is freed) whether it fits a hole or extends the heap
  // depends on every allocation before it, which moved peak RSS by
  // ~12 MiB between allocation orders of the same step.
  const auto bytes = static_cast<std::size_t>(capacity_);
  if (bytes == 0) return;
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DLB_CHECK(p != MAP_FAILED, "cannot map a " << bytes << "-byte plan arena");
  count(Event::kMappedBytes, capacity_);
  block_ = std::shared_ptr<float[]>(static_cast<float*>(p), [bytes](float* q) {
    munmap(q, bytes);
    count(Event::kMappedBytes, -static_cast<std::int64_t>(bytes));
  });
}

// ---------------------------------------------------------------------------
// Scopes

MeasureScope::MeasureScope(Measurement& m) {
  ThreadScope& t = tls();
  DLB_CHECK(t.measuring == nullptr && t.replaying == nullptr,
            "nested arena scopes on one thread");
  DLB_CHECK(!m.sealed_, "measuring into a sealed Measurement");
  if (!m.state_) m.state_ = std::make_shared<Measurement::State>();
  t.measuring = &m;
  t.measure_state = m.state_;
}

MeasureScope::~MeasureScope() {
  ThreadScope& t = tls();
  t.measuring = nullptr;
  t.measure_state.reset();
}

ReplayScope::ReplayScope(Arena& a) {
  ThreadScope& t = tls();
  DLB_CHECK(t.measuring == nullptr && t.replaying == nullptr,
            "nested arena scopes on one thread");
  t.replaying = &a;
  t.replay_next = 0;
  t.replay_served = 0;
  t.replay_spilled = false;
}

ReplayScope::~ReplayScope() { tls().replaying = nullptr; }

bool ReplayScope::spilled() const { return tls().replay_spilled; }

std::int64_t ReplayScope::served() const { return tls().replay_served; }

namespace detail {

bool scope_active() {
  const ThreadScope& t = tls();
  return t.measuring != nullptr || t.replaying != nullptr;
}

std::shared_ptr<float[]> scope_alloc(std::size_t floats, bool zero) {
  ThreadScope& t = tls();
  const auto bytes = static_cast<std::int64_t>(floats * sizeof(float));

  if (t.measuring != nullptr) {
    // Heap allocation as usual (and counted as such), wrapped so the
    // deleter reports when this buffer dies relative to its siblings.
    Measurement& m = *t.measuring;
    Measurement::State& st = *t.measure_state;
    const std::size_t id = m.slots_.size();
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.deaths.push_back(kNeverDies);
    }
    Slot slot;
    slot.bytes = bytes;
    slot.def_seq = st.seq.fetch_add(1, std::memory_order_relaxed);
    slot.zeroed = zero;
    m.slots_.push_back(slot);
    float* raw = zero ? new float[floats]() : new float[floats];
    count(Event::kHeapAllocs);
    count(Event::kHeapBytes, bytes);
    return std::shared_ptr<float[]>(raw,
                                    MeasuredDeleter{t.measure_state, id});
  }

  if (t.replaying != nullptr) {
    Arena& a = *t.replaying;
    const std::size_t k = static_cast<std::size_t>(t.replay_next++);
    if (k < a.slots_.size() && a.slots_[k].bytes == bytes) {
      float* p = a.block_.get() +
                 static_cast<std::size_t>(a.slots_[k].offset) / sizeof(float);
      if (zero && floats > 0) std::memset(p, 0, floats * sizeof(float));
      ++t.replay_served;
      count(Event::kArenaAllocs);
      count(Event::kArenaBytes, bytes);
      return std::shared_ptr<float[]>(a.block_, p);
    }
    // Trace divergence: spill to the heap (caller allocates + counts)
    // and let the planner re-measure.
    t.replay_spilled = true;
    count(Event::kArenaSpills);
    return nullptr;
  }

  return nullptr;
}

}  // namespace detail

}  // namespace dlbench::tensor::arena
