// Unit tests: the hot-path primitives behind the allocation-free event
// loop — util::InlineFunction (inline callbacks), net::MessagePool /
// MessageRef (shared-immutable pooled payloads) and util::SlidingQueue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>

#include "net/message.hpp"
#include "net/message_ref.hpp"
#include "util/inline_function.hpp"
#include "util/sliding_queue.hpp"
#include "util/units.hpp"

namespace bcp {
namespace {

using util::InlineFunction;

TEST(InlineFunction, DefaultIsNull) {
  InlineFunction<void()> f;
  EXPECT_FALSE(f);
  EXPECT_TRUE(f == nullptr);
  EXPECT_TRUE(nullptr == f);
  EXPECT_FALSE(f != nullptr);
}

TEST(InlineFunction, InvokesSmallCapture) {
  int hits = 0;
  InlineFunction<void()> f = [&hits] { ++hits; };
  ASSERT_TRUE(f);
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, CaptureAtExactCapacityFits) {
  // Exactly kInlineFunctionCapacity bytes of captured state.
  struct Block {
    char data[util::kInlineFunctionCapacity];
  };
  Block b{};
  b.data[0] = 42;
  b.data[sizeof(b.data) - 1] = 7;
  InlineFunction<int()> f = [b] {
    return static_cast<int>(b.data[0]) +
           static_cast<int>(b.data[sizeof(b.data) - 1]);
  };
  EXPECT_EQ(f(), 49);
}

TEST(InlineFunction, OneByteCaptureAndCapacityOneWork) {
  char c = 3;
  InlineFunction<int(), 8> f = [c] { return c + 1; };
  EXPECT_EQ(f(), 4);
}

TEST(InlineFunction, ForwardsArgumentsAndReturn) {
  InlineFunction<int(int, int)> f = [](int a, int b) { return a * 10 + b; };
  EXPECT_EQ(f(3, 4), 34);
}

TEST(InlineFunction, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  InlineFunction<void()> a = [&hits] { ++hits; };
  InlineFunction<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) — documented state
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunction, DestructionReleasesCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    InlineFunction<void()> f = [token = std::move(token)] { (void)token; };
    EXPECT_FALSE(watch.expired());  // alive inside the closure
  }
  EXPECT_TRUE(watch.expired());  // destructor ran the capture's destructor
}

TEST(InlineFunction, AssignNullptrReleasesCapturedState) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineFunction<void()> f = [token = std::move(token)] { (void)token; };
  f = nullptr;
  EXPECT_FALSE(f);
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, MoveAssignReplacesExistingCallable) {
  int first = 0;
  int second = 0;
  InlineFunction<void()> f = [&first] { ++first; };
  f = InlineFunction<void()>([&second] { ++second; });
  f();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(InlineFunction, MutableLambdaKeepsStateAcrossCalls) {
  InlineFunction<int()> f = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(f(), 1);
  EXPECT_EQ(f(), 2);
}

// ---- MessagePool / MessageRef -------------------------------------------

net::Message data_message(util::Bits bits) {
  net::Message m;
  m.src = 1;
  m.dst = 2;
  m.body = net::DataPacket{1, 2, 1, bits, 0.0};
  return m;
}

TEST(MessagePool, RefsShareOnePayload) {
  net::MessageRef a = net::make_message(data_message(util::bytes(32)));
  net::MessageRef b = a;
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(a.get(), b.get());  // same pooled node, no copy
  EXPECT_EQ(b->size_bits(), util::bytes(32));
}

TEST(MessagePool, MoveLeavesSourceEmpty) {
  net::MessageRef a = net::make_message(data_message(util::bytes(32)));
  net::MessageRef b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b);
}

TEST(MessagePool, NodesAreRecycledNotLeaked) {
  net::MessagePool& pool = net::MessagePool::local();
  const std::size_t live0 = pool.outstanding();
  const net::Message proto = data_message(util::bytes(32));
  {
    net::MessageRef first = net::make_message(net::Message(proto));
    EXPECT_EQ(pool.outstanding(), live0 + 1);
  }
  EXPECT_EQ(pool.outstanding(), live0);
  const std::size_t pooled = pool.pooled();
  // Churn many make/release cycles: outstanding stays flat and the free
  // list never grows past its high-water mark — no per-message allocation.
  for (int i = 0; i < 1000; ++i) {
    net::MessageRef r = net::make_message(net::Message(proto));
    net::MessageRef shared = r;
    EXPECT_EQ(pool.outstanding(), live0 + 1);
  }
  EXPECT_EQ(pool.outstanding(), live0);
  EXPECT_EQ(pool.pooled(), pooled);
}

TEST(MessagePool, LastRefOfManyReleases) {
  net::MessagePool& pool = net::MessagePool::local();
  const std::size_t live0 = pool.outstanding();
  net::MessageRef a = net::make_message(data_message(util::bytes(64)));
  {
    net::MessageRef b = a;
    net::MessageRef c;
    c = b;
    EXPECT_EQ(pool.outstanding(), live0 + 1);
  }
  EXPECT_EQ(pool.outstanding(), live0 + 1);  // `a` still holds it
  a.reset();
  EXPECT_FALSE(a);
  EXPECT_EQ(pool.outstanding(), live0);
}

// ---- SlidingQueue -------------------------------------------------------

TEST(SlidingQueue, FifoOrderAcrossMixedPushPop) {
  util::SlidingQueue<int> q;
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 5; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.front(), 0);
  q.pop_front();
  q.push_back(5);
  std::vector<int> seen;
  while (!q.empty()) {
    seen.push_back(q.front());
    q.pop_front();
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SlidingQueue, IterationCoversLiveRangeOldestFirst) {
  util::SlidingQueue<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  for (int i = 0; i < 3; ++i) q.pop_front();
  std::vector<int> seen(q.begin(), q.end());
  EXPECT_EQ(seen, (std::vector<int>{3, 4, 5, 6, 7}));
}

TEST(SlidingQueue, SwapExchangesContents) {
  util::SlidingQueue<int> a;
  util::SlidingQueue<int> b;
  a.push_back(1);
  a.push_back(2);
  b.swap(a);
  EXPECT_TRUE(a.empty());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.front(), 1);
}

TEST(SlidingQueue, PopReleasesElementResourcesImmediately) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  util::SlidingQueue<std::shared_ptr<int>> q;
  q.push_back(std::move(token));
  q.push_back(std::make_shared<int>(6));
  q.pop_front();  // must drop the element now, not at compaction time
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(*q.front(), 6);
}

/// An element type no other test queues, so this thread's spare list for
/// it starts empty.
struct Parked {
  int v = 0;
};

TEST(SlidingQueue, DrainedBufferIsReusedByAnotherQueuesFirstPush) {
  using Queue = util::SlidingQueue<Parked>;
  ASSERT_EQ(Queue::spare_buffers(), 0u);
  Queue a;
  for (int i = 0; i < 8; ++i) a.push_back(Parked{i});
  const Parked* storage = &a.front();
  while (!a.empty()) a.pop_front();
  EXPECT_EQ(Queue::spare_buffers(), 1u);
  // The next queue to go non-empty takes the parked buffer, capacity kept.
  Queue b;
  b.push_back(Parked{42});
  EXPECT_EQ(Queue::spare_buffers(), 0u);
  EXPECT_EQ(&b.front(), storage);
  for (int i = 1; i < 8; ++i) b.push_back(Parked{42 + i});
  EXPECT_EQ(&b.front(), storage);  // no regrowth within the old capacity
  // clear() parks too; a queue that never held anything parks nothing.
  b.clear();
  EXPECT_EQ(Queue::spare_buffers(), 1u);
  Queue never_used;
  never_used.clear();
  EXPECT_EQ(Queue::spare_buffers(), 1u);
  a.push_back(Parked{7});
  EXPECT_EQ(&a.front(), storage);
  a.clear();
}

TEST(SlidingQueue, FifoClearAndSwapMatchAReferenceDeque) {
  // Several queues share one spare list; each must still behave like its
  // own std::deque through pushes, pops, drains, clears and swaps.
  constexpr int kQueues = 4;
  util::SlidingQueue<int> q[kQueues];
  std::deque<int> ref[kQueues];
  std::uint64_t state = 12345;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<int>(state >> 33);
  };
  for (int step = 0; step < 20000; ++step) {
    const int i = next() % kQueues;
    const int op = next() % 16;
    if (op < 8) {
      q[i].push_back(step);
      ref[i].push_back(step);
    } else if (op < 14) {
      if (!ref[i].empty()) {
        ASSERT_EQ(q[i].front(), ref[i].front()) << "step " << step;
        q[i].pop_front();
        ref[i].pop_front();
      }
    } else if (op == 14) {
      q[i].clear();
      ref[i].clear();
    } else {
      const int j = next() % kQueues;
      q[i].swap(q[j]);
      ref[i].swap(ref[j]);
    }
    for (int k = 0; k < kQueues; ++k) {
      ASSERT_EQ(q[k].size(), ref[k].size()) << "step " << step;
      ASSERT_TRUE(std::equal(q[k].begin(), q[k].end(), ref[k].begin()))
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace bcp
