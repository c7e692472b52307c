// Single-threaded discrete-event simulator.
//
// Events are (time, callback) pairs processed in non-decreasing time order;
// events scheduled for the same instant run in FIFO order (a sequence number
// breaks ties), which keeps runs deterministic. The queue is a binary heap
// of (time, seq) keys, a strict total order, so the pop order does not
// depend on the heap's layout.
//
// Cancellation is lazy. cancel() bumps the slot's generation, destroys the
// capture and frees the slot in O(1), leaving the heap entry behind; each
// entry carries the generation it was scheduled under, and an entry whose
// generation no longer matches its slot's is stale. run(), run_until() and
// the dispatch discard stale entries as they reach the front, so a
// cancelled event never fires and never moves the clock. Stale entries
// are bounded: once the heap holds more than 2 * live + 32 entries, a
// cancel drops every stale entry and re-heapifies in place (O(n), paid for
// by the more than live + 32 cancels since the last purge). A slot whose
// generation would wrap is retired, so a stale entry or handle can never
// match a recycled slot.
//
// The pop is bottom-up: the hole left at the root walks to a leaf along
// the earlier child, one comparison per level, and the heap's last entry
// then sifts up from that leaf, which is usually at once.
//
// The hot path is allocation-free in steady state:
//   * Callback is a small-buffer inline callable (util::InlineFunction) —
//     captures live inside the event record, never on the heap, and an
//     oversized capture is a compile-time error;
//   * the id -> event mapping is a generation-stamped slot vector with an
//     intrusive free list, not a hash map: scheduling pops a slot, firing
//     or cancelling pushes it back and bumps the slot's generation so
//     stale handles can never alias a recycled slot. Handles pack
//     (generation << 32 | slot), so schedule / cancel / is_pending are
//     array indexing with no hashing and no node allocations;
//   * heap entries are 24-byte (time, seq, slot, gen) records; the
//     callback stays put in its slot while entries sift, so reordering
//     moves no capture state.
// After warm-up (heap and slot vectors at their high-water capacity) a
// schedule/cancel/dispatch cycle performs zero allocations — see
// bench_micro_core's steady-state benchmarks and tests/perf_alloc_test.
//
// The whole library is single-threaded by design (Core Guidelines CP.1 —
// assume your code will run in a multi-threaded program only where you say
// so); simulations parallelize across *runs* in the sweep engine
// (app/sweep.hpp), each worker with its own Simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace bcp::sim {

using TimePoint = util::Seconds;

class Simulator {
 public:
  /// Inline, move-only event callback; captures up to
  /// util::kInlineFunctionCapacity bytes, larger captures fail to compile.
  using Callback = util::InlineFunction<void()>;

  /// Opaque handle to a scheduled event; value-semantic, cheap to copy.
  /// A default-constructed handle is invalid and never pending. The id
  /// packs (generation << 32 | slot): recycling a slot bumps its
  /// generation, so handles to fired/cancelled events stay dead forever.
  ///
  /// A restartable timer (a MAC's backoff, ack timeout or beacon) is one
  /// handle plus the owner's `this`: re-arm with
  ///   sim.cancel(h);
  ///   h = sim.schedule_in(delay, [this] { on_expiry(); });
  /// and test it with is_pending(h). Cancelling a fired, cancelled or
  /// default handle is a no-op, so the pair needs no guard, and the
  /// handle is already not pending inside its own callback.
  struct EventHandle {
    std::uint64_t id = 0;
    bool valid() const { return id != 0; }
  };

  /// Current simulation time. Starts at 0.
  TimePoint now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now).
  EventHandle schedule_at(TimePoint t, Callback cb);

  /// Schedules `cb` after `delay` (>= 0) seconds.
  EventHandle schedule_in(util::Seconds delay, Callback cb);

  /// Cancels a pending event and releases its capture at once; its heap
  /// entry is left stale and discarded later. Returns true if it was
  /// pending (and is now guaranteed not to fire); false if already fired,
  /// cancelled, or invalid.
  bool cancel(EventHandle h);

  /// True if the event has neither fired nor been cancelled.
  bool is_pending(EventHandle h) const;

  /// Runs until the queue is empty or stop() is called.
  void run();

  /// Processes every event with time <= `end`, then advances the clock to
  /// exactly `end` (so time-integrating observers can be finalized there).
  void run_until(TimePoint end);

  /// Makes run()/run_until() return after the current callback completes.
  void stop() { stopped_ = true; }

  /// Drops every pending event without running it: captured state is
  /// destroyed on the calling thread and all outstanding handles die. The
  /// clock and processed count are preserved. The sharded engine tears a
  /// shard down on its pinned worker thread — pending captures may hold
  /// thread-local pooled payloads that must be released there, not on
  /// whichever thread destroys the Simulator object.
  void clear();

  /// Number of callbacks executed so far (cancelled events excluded).
  std::uint64_t processed_count() const { return processed_; }

  /// Number of live (scheduled, not cancelled, not fired) events.
  std::size_t pending_count() const { return live_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Heap entry: ordering key plus the slot holding the callback and the
  /// slot generation it was scheduled under (stale once they differ).
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;  // FIFO tie-break for equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// One event slot. `pos` links the free list while the slot is free.
  /// `gen` starts at 1 and is bumped on every release; 0 marks a retired
  /// slot, so a default EventHandle can never match.
  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t pos = kNoSlot;
    Callback cb;
  };

  static std::uint64_t pack(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
  }
  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t gen_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// (time, seq) ordering: true if `a` fires strictly before `b`. Bitwise
  /// operators keep it free of branches, so the pop picks a child with a
  /// flag, not a jump.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  bool is_stale(const HeapEntry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  void sift_up(std::size_t hole, const HeapEntry& e);
  /// Removes the front entry (bottom-up). Pre: heap non-empty.
  void pop_front();
  /// Discards stale front entries; false when no live event is left.
  bool settle_front();
  /// Drops every stale entry and re-heapifies.
  void compact();

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  /// Pops and runs the front event. Pre: settle_front() returned true.
  void dispatch_one();

  TimePoint now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;  // scheduled, neither fired nor cancelled
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through Slot::pos
};

}  // namespace bcp::sim
