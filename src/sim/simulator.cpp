#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace bcp::sim {

void Simulator::sift_up(std::size_t hole, const HeapEntry& e) {
  HeapEntry* const h = heap_.data();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(e, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = e;
}

void Simulator::pop_front() {
  const std::size_t n = heap_.size() - 1;  // entries left after the pop
  HeapEntry* const h = heap_.data();
  std::size_t hole = 0;
  std::size_t child = 1;
  for (; child + 1 < n; child = 2 * hole + 1) {
    child += earlier(h[child + 1], h[child]);
    h[hole] = h[child];
    hole = child;
  }
  if (child < n) {  // a lone left child at the bottom
    h[hole] = h[child];
    hole = child;
  }
  if (hole != n) sift_up(hole, h[n]);
  heap_.pop_back();
}

bool Simulator::settle_front() {
  while (!heap_.empty()) {
    if (!is_stale(heap_.front())) return true;
    pop_front();
  }
  return false;
}

void Simulator::compact() {
  const auto stale = [this](const HeapEntry& e) { return is_stale(e); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), stale), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) {
                   return earlier(b, a);
                 });
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
  // Bump the generation so every outstanding handle and heap entry of this
  // slot is dead. A generation that wraps to 0 retires the slot: it never
  // rejoins the free list, so no old generation can come back to life.
  if (++s.gen == 0) return;
  s.pos = free_head_;
  free_head_ = slot;
}

Simulator::EventHandle Simulator::schedule_at(TimePoint t, Callback cb) {
  BCP_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
  BCP_REQUIRE(cb != nullptr);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  ++live_;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{t, next_seq_++, slot, s.gen});
  return EventHandle{pack(s.gen, slot)};
}

Simulator::EventHandle Simulator::schedule_in(util::Seconds delay,
                                              Callback cb) {
  BCP_REQUIRE_MSG(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventHandle h) {
  if (!is_pending(h)) return false;
  const std::uint32_t slot = slot_of(h.id);
  slots_[slot].cb.reset();  // release captured state now, not at slot reuse
  release_slot(slot);
  --live_;
  if (heap_.size() > 2 * live_ + 32) compact();
  return true;
}

bool Simulator::is_pending(EventHandle h) const {
  if (!h.valid()) return false;
  const std::uint32_t slot = slot_of(h.id);
  return slot < slots_.size() && slots_[slot].gen == gen_of(h.id);
}

void Simulator::dispatch_one() {
  const HeapEntry top = heap_.front();
  pop_front();
  Slot& s = slots_[top.slot];
  Callback cb = std::move(s.cb);
  // Free the slot before running the callback so is_pending() on the
  // firing event's own handle is already false inside it, and the slot is
  // immediately reusable by whatever the callback schedules.
  release_slot(top.slot);
  --live_;
  BCP_ENSURE(top.time >= now_);
  now_ = top.time;
  ++processed_;
  cb();
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && settle_front()) dispatch_one();
}

void Simulator::clear() {
  for (const HeapEntry& e : heap_) {
    if (is_stale(e)) continue;
    slots_[e.slot].cb.reset();
    release_slot(e.slot);
  }
  heap_.clear();
  live_ = 0;
}

void Simulator::run_until(TimePoint end) {
  BCP_REQUIRE(end >= now_);
  stopped_ = false;
  while (!stopped_ && settle_front() && heap_.front().time <= end)
    dispatch_one();
  if (!stopped_) now_ = end;
}

}  // namespace bcp::sim
