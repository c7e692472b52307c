// A FIFO on a sliding vector window.
//
// std::deque costs two allocations just to default-construct (block map +
// first block, on libstdc++) — real money when a 2500-node scenario holds
// four idle queues per node. This queue allocates nothing until the first
// push and compacts the popped prefix lazily (amortized O(1) per element).
// An empty queue holds no buffer: a queue that drains or is cleared parks
// its empty buffer, capacity kept, on a spare list, and the next empty
// queue's first push_back takes it back. Queue storage therefore scales
// with the queues that are non-empty at the same time, not with the node
// count, and steady-state churn stays off the allocator.
//
// The spare list is thread-local, one per element type. A sharded run
// pins each shard to one worker thread, so a node's queues park and take
// on that thread; and a parked buffer holds no element, so no pooled
// MessageRef (whose arena is thread-local) crosses threads through it.
// Buffers parked by a thread are freed when that thread exits.
//
// References returned by front()/begin() are invalidated by push_back and
// pop_front (vector semantics) — copy or move the element out before
// mutating, which is how the MAC/host code uses it.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace bcp::util {

template <typename T>
class SlidingQueue {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }

  T& front() {
    BCP_REQUIRE(!empty());
    return buf_[head_];
  }
  const T& front() const {
    BCP_REQUIRE(!empty());
    return buf_[head_];
  }

  void push_back(T value) {
    if (buf_.capacity() == 0) take_spare();
    buf_.push_back(std::move(value));
  }

  void pop_front() {
    BCP_REQUIRE(!empty());
    buf_[head_] = T{};  // release the element's resources now
    ++head_;
    if (head_ == buf_.size()) {
      clear();
    } else if (head_ > buf_.size() / 2) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    buf_.clear();
    head_ = 0;
    // Park the storage; the moved-from buf_ is left empty, with none.
    if (buf_.capacity() != 0) spares().push_back(std::move(buf_));
  }

  // Iteration over the live range, oldest first.
  T* begin() { return buf_.data() + head_; }
  T* end() { return buf_.data() + buf_.size(); }
  const T* begin() const { return buf_.data() + head_; }
  const T* end() const { return buf_.data() + buf_.size(); }

  /// Empty buffers parked on this thread's spare list for T.
  static std::size_t spare_buffers() { return spares().size(); }

 private:
  static std::vector<std::vector<T>>& spares() {
    thread_local std::vector<std::vector<T>> spares;
    return spares;
  }

  void take_spare() {
    auto& s = spares();
    if (s.empty()) return;
    buf_.swap(s.back());
    s.pop_back();
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace bcp::util
