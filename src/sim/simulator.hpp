// Single-threaded discrete-event simulator.
//
// Events are (time, callback) pairs processed in non-decreasing time order;
// events scheduled for the same instant run in FIFO order (a sequence number
// breaks ties), which keeps runs deterministic. The queue is an *indexed*
// binary heap, so cancellation removes the event immediately (O(log n))
// instead of leaving a tombstone to skip at pop time.
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
//   * heap entries are 24-byte (time, seq, slot) records; the callback
//     stays put in its slot while entries sift, so reordering moves no
//     capture state.
// After warm-up (heap and slot vectors at their high-water capacity) a
// schedule/cancel/dispatch cycle performs zero allocations — see
// bench_micro_core's schedule/cancel benchmark and tests/perf_alloc_test.
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

  /// Cancels a pending event, removing it from the queue immediately.
  /// Returns true if it was pending (and is now guaranteed not to fire);
  /// false if already fired, cancelled, or invalid.
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
  std::size_t pending_count() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Heap entry: ordering key plus the slot holding the callback. Sifts
  /// move 24 bytes and patch the slot's back-pointer.
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;  // FIFO tie-break for equal times
    std::uint32_t slot;
  };

  /// One event slot. Live: `pos` is the heap index of its entry. Free:
  /// `pos` links the free list. `gen` starts at 1 and is bumped on every
  /// release; 0 is reserved so a default EventHandle can never match.
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

  /// (time, seq) ordering: true if `a` fires strictly before `b`.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Indexed-heap plumbing.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void place(const HeapEntry& e, std::size_t i);  ///< writes heap_[i] + slot pos
  void remove_heap_entry(std::size_t i);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  /// Pops and runs the earliest event. Pre: queue is non-empty.
  void dispatch_one();

  TimePoint now_ = 0.0;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;  // intrusive free list through Slot::pos
};

}  // namespace bcp::sim
