// The allocation contract of the event hot path, enforced.
//
// A process-wide operator-new hook counts every C++ heap allocation; each
// test warms its structures to their high-water mark, snapshots the
// counter, runs thousands of steady-state cycles and asserts the counter
// did not move. This is the load-bearing guarantee behind the simulator's
// events/sec: schedule/cancel/dispatch recycles generation-stamped slots,
// inline callbacks live inside them, and pooled message payloads ride the
// free list — none of it may touch the allocator once warm.
//
// The hook (util/alloc_count_hook.hpp, shared with bench_micro_core's
// allocs_per_item counters) is included only by this dedicated test
// binary, so the counting does not perturb the rest of the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "energy/radio_model.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_params.hpp"
#include "net/message.hpp"
#include "net/message_ref.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "test_hosts.hpp"
#include "util/alloc_count_hook.hpp"
#include "util/sliding_queue.hpp"
#include "util/units.hpp"

namespace bcp {
namespace {

using util::g_alloc_count;

TEST(PerfAlloc, ScheduleCancelDispatchIsAllocationFreeWhenWarm) {
  sim::Simulator s;
  long long fired = 0;
  // The MAC-timer mix: schedule a batch, cancel every other event (the
  // usual fate of retry/ack timers), dispatch the rest.
  const auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto h = s.schedule_in(1.0 + 0.5 * i, [&fired] { ++fired; });
      if (i % 2 == 0) s.cancel(h);
    }
    s.run();
  };
  cycle(256);  // warm-up: vectors grow to their high-water capacity
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 100; ++round) cycle(256);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "schedule/cancel/dispatch allocated in steady state";
  EXPECT_EQ(fired, 101 * 128);
}

TEST(PerfAlloc, NestedSchedulingFromCallbacksIsAllocationFreeWhenWarm) {
  sim::Simulator s;
  // Chains that reschedule from inside callbacks — the pattern of every
  // protocol timer re-armed from its own expiry — must also recycle slots
  // without allocating.
  int remaining = 0;
  std::function<void()> hop;  // intentionally cold; captured by pointer
  auto* hop_ptr = &hop;
  hop = [&s, &remaining, hop_ptr] {
    if (remaining-- > 0) s.schedule_in(0.25, [hop_ptr] { (*hop_ptr)(); });
  };
  remaining = 64;
  s.schedule_in(0.25, [hop_ptr] { (*hop_ptr)(); });
  s.run();  // warm-up chain
  const std::uint64_t before = g_alloc_count;
  remaining = 1024;
  s.schedule_in(0.25, [hop_ptr] { (*hop_ptr)(); });
  s.run();
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(remaining, -1);
}

TEST(PerfAlloc, FarFutureRearmStormIsAllocationFreeWhenWarm) {
  sim::Simulator s;
  // Each event re-arms a far-future timer, so every re-arm leaves a stale
  // heap entry that never reaches the front. The heap must purge them and
  // stay within the capacity warm-up reached; without the purge it grows
  // by one entry per event and reallocates.
  sim::Simulator::EventHandle timer;
  int remaining = 0;
  std::function<void()> tick;  // intentionally cold; captured by pointer
  auto* tick_ptr = &tick;
  tick = [&s, &timer, &remaining, tick_ptr] {
    s.cancel(timer);
    timer = s.schedule_in(1e6, [] {});
    if (remaining-- > 0) s.schedule_in(0.25, [tick_ptr] { (*tick_ptr)(); });
  };
  remaining = 4096;
  s.schedule_in(0.25, [tick_ptr] { (*tick_ptr)(); });
  s.run_until(s.now() + 1e5);  // warm-up storm
  const std::uint64_t before = g_alloc_count;
  remaining = 100000;
  s.schedule_in(0.25, [tick_ptr] { (*tick_ptr)(); });
  s.run_until(s.now() + 1e5);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "far-future re-arms allocated in steady state";
  EXPECT_EQ(remaining, -1);
  EXPECT_EQ(s.pending_count(), 1u);  // the armed timer
}

TEST(PerfAlloc, CaptureChannelHotPathIsAllocationFreeWhenWarm) {
  // The SINR/capture path threads per-arrival power state through the
  // TxSlots and leased arrival lists — none of which may touch the
  // allocator once warm, exactly like the default channel. Colliding
  // transmissions exercise the interference bookkeeping (peak updates +
  // running sums) on every cycle.
  sim::Simulator s;
  phy::Channel::Params params;
  params.propagation.kind = phy::PropagationKind::kLogDistance;
  params.capture.enabled = true;
  phy::Channel ch(s, {{0, 0}, {10, 0}, {20, 0}}, 50.0, params, 1);
  phy::Frame f0;
  f0.tx_node = 0;
  f0.rx_node = 1;
  f0.payload_bits = 256;
  f0.header_bits = 88;
  net::Message m0;
  m0.src = 0;
  m0.dst = 1;
  m0.body = net::DataPacket{0, 1, 1, 256, 0.0};
  f0.message = net::make_message(std::move(m0));
  phy::Frame f2 = f0;
  f2.tx_node = 2;  // shares the pooled payload; distinct transmitter
  const auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const double t = i * 0.1;  // relative: the clock keeps advancing
      s.schedule_in(t, [&ch, &f0] { ch.start_tx(0, f0, 0.01); });
      s.schedule_in(t + 0.002, [&ch, &f2] { ch.start_tx(2, f2, 0.01); });
    }
    s.run();
  };
  cycle(64);  // warm-up: arrival lists and slots reach high-water capacity
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 50; ++round) cycle(64);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "the capture channel allocated in steady state";
  EXPECT_GT(ch.stats().deliveries_corrupt, 0);  // collisions really happened
  EXPECT_EQ(ch.live_arrivals(), 0);
}

TEST(PerfAlloc, CsmaUnicastExchangeIsAllocationFreeWhenWarm) {
  // Two CSMA stations trading acked unicast frames: every frame arms the
  // sender's backoff and ack timeout and the receiver's ack tx, each a
  // cancel-then-schedule on an event handle, through the radios and the
  // channel. Once warm, none of it may touch the allocator.
  sim::Simulator s;
  phy::Channel ch(s, {{0, 0}, {10, 0}}, 50.0, phy::Channel::Params{0.0}, 1);
  phy::Radio r0(s, ch, 0, energy::micaz(), phy::OverhearMode::kNone, true);
  phy::Radio r1(s, ch, 1, energy::micaz(), phy::OverhearMode::kNone, true);
  const mac::MacParams params = mac::sensor_mac_params();
  mac::Mac::Stats s0, s1;
  mac::CsmaCaMac m0(s, r0, params, 1, s0);
  mac::CsmaCaMac m1(s, r1, params, 2, s1);
  long long delivered = 0;
  testing_support::FnMacHost host1;
  host1.rx = [&delivered](const net::Message&, net::NodeId) { ++delivered; };
  m1.set_host(&host1);
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.body = net::DataPacket{0, 1, 1, util::bytes(32), 0.0};
  const net::MessageRef msg = net::make_message(std::move(m));
  const auto cycle = [&](int frames) {
    for (int i = 0; i < frames; ++i) m0.enqueue(msg, 1);
    s.run();
  };
  cycle(8);  // warm-up: queues, event slots and arrivals reach high water
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 200; ++round) cycle(8);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "the CSMA unicast exchange allocated in steady state";
  EXPECT_EQ(s0.tx_success, 201 * 8);
  EXPECT_EQ(s1.acks_sent, 201 * 8);
  EXPECT_EQ(delivered, 201 * 8);
}

TEST(PerfAlloc, QueuesFilledAndDrainedInTurnShareOneBuffer) {
  // A thousand per-node queues see bursts one after another, the way MAC
  // queues do across a large network. A drained queue parks its buffer
  // for the next, so warm-up allocates for one queue's growth, not for
  // every queue, and the steady state allocates nothing.
  std::vector<util::SlidingQueue<net::MessageRef>> queues(1000);
  net::Message m;
  m.src = 0;
  m.dst = 1;
  m.body = net::DataPacket{0, 1, 1, util::bytes(32), 0.0};
  const net::MessageRef msg = net::make_message(std::move(m));
  const auto burst = [&msg](util::SlidingQueue<net::MessageRef>& q) {
    for (int i = 0; i < 8; ++i) q.push_back(msg);
    while (!q.empty()) q.pop_front();
  };
  const std::uint64_t cold = g_alloc_count;
  for (auto& q : queues) burst(q);
  // Capacity 1, 2, 4, 8 for the one buffer, plus the spare list itself.
  EXPECT_LE(g_alloc_count - cold, 5u)
      << "queues that are never non-empty together did not share storage";
  const std::uint64_t before = g_alloc_count;
  for (int round = 0; round < 20; ++round)
    for (auto& q : queues) burst(q);
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "queues filled and drained in turn allocated in steady state";
}

TEST(PerfAlloc, PooledControlMessagesAreAllocationFreeWhenWarm) {
  net::Message proto;
  proto.src = 3;
  proto.dst = 4;
  proto.body = net::WakeupRequest{3, 4, 1, util::bytes(1600)};
  { net::MessageRef warm = net::make_message(net::Message(proto)); }
  const std::uint64_t before = g_alloc_count;
  for (int i = 0; i < 10000; ++i) {
    net::MessageRef ref = net::make_message(net::Message(proto));
    net::MessageRef queue_copy = ref;   // MAC queue
    net::MessageRef frame_copy = ref;   // frame on the air
    EXPECT_GT(frame_copy->size_bits(), 0);
  }
  EXPECT_EQ(g_alloc_count - before, 0u)
      << "pooled message round-trips allocated in steady state";
}

}  // namespace
}  // namespace bcp
