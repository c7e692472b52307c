#include "sim/simulator.hpp"

#include <utility>

#include "util/assert.hpp"

namespace bcp::sim {

void Simulator::place(const HeapEntry& e, std::size_t i) {
  slots_[e.slot].pos = static_cast<std::uint32_t>(i);
  heap_[i] = e;
}

void Simulator::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
    place(heap_[parent], i);
    i = parent;
  }
  place(e, i);
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], e)) break;
    place(heap_[child], i);
    i = child;
  }
  place(e, i);
}

void Simulator::remove_heap_entry(std::size_t i) {
  const std::size_t last = heap_.size() - 1;
  if (i != last) {
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    const bool goes_up = earlier(moved, heap_[i]);
    place(moved, i);
    if (goes_up)
      sift_up(i);
    else
      sift_down(i);
  } else {
    heap_.pop_back();
  }
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].pos;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  BCP_ENSURE_MSG(slot != kNoSlot, "event slot space exhausted");
  slots_.emplace_back();
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Bump the generation so every outstanding handle to this slot is dead;
  // skip 0, which is reserved for invalid handles.
  if (++s.gen == 0) s.gen = 1;
  s.pos = free_head_;
  free_head_ = slot;
}

Simulator::EventHandle Simulator::schedule_at(TimePoint t, Callback cb) {
  BCP_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
  BCP_REQUIRE(cb != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventHandle{pack(s.gen, slot)};
}

Simulator::EventHandle Simulator::schedule_in(util::Seconds delay,
                                              Callback cb) {
  BCP_REQUIRE_MSG(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const std::uint32_t slot = slot_of(h.id);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.gen != gen_of(h.id)) return false;  // fired or cancelled already
  const std::uint32_t pos = s.pos;
  s.cb.reset();  // release captured state now, not at slot reuse
  release_slot(slot);
  remove_heap_entry(pos);
  return true;
}

bool Simulator::is_pending(EventHandle h) const {
  if (!h.valid()) return false;
  const std::uint32_t slot = slot_of(h.id);
  return slot < slots_.size() && slots_[slot].gen == gen_of(h.id);
}

void Simulator::dispatch_one() {
  const HeapEntry top = heap_.front();
  Slot& s = slots_[top.slot];
  Callback cb = std::move(s.cb);
  // Free the slot before running the callback so is_pending() on the
  // firing event's own handle is already false inside it, and the slot is
  // immediately reusable by whatever the callback schedules.
  release_slot(top.slot);
  remove_heap_entry(0);
  BCP_ENSURE(top.time >= now_);
  now_ = top.time;
  ++processed_;
  cb();
}

void Simulator::run() {
  stopped_ = false;
  while (!heap_.empty() && !stopped_) dispatch_one();
}

void Simulator::clear() {
  for (const HeapEntry& e : heap_) {
    slots_[e.slot].cb.reset();
    release_slot(e.slot);
  }
  heap_.clear();
}

void Simulator::run_until(TimePoint end) {
  BCP_REQUIRE(end >= now_);
  stopped_ = false;
  while (!heap_.empty() && !stopped_ && heap_.front().time <= end)
    dispatch_one();
  if (!stopped_) now_ = end;
}

Timer::Timer(Simulator& sim, Callback on_expire)
    : sim_(sim), on_expire_(std::move(on_expire)) {
  BCP_REQUIRE(on_expire_ != nullptr);
}

void Timer::start(util::Seconds delay) {
  cancel();
  handle_ = sim_.schedule_in(delay, [this] {
    handle_ = Simulator::EventHandle{};
    on_expire_();
  });
}

void Timer::cancel() {
  if (handle_.valid()) {
    sim_.cancel(handle_);
    handle_ = Simulator::EventHandle{};
  }
}

bool Timer::running() const { return sim_.is_pending(handle_); }

}  // namespace bcp::sim
