// The parallel engine's contracts:
//   * ShardMap stripes are equal-population and ordered left to right,
//     and equal a full (x, id) sort's split;
//   * ShardedSimulator runs every shard to the horizon, phases parity
//     correctly, and propagates shard exceptions;
//   * boundary frames from an even stripe reach the adjacent odd stripe
//     with their EXACT original timing (the differential test diffs a
//     2-shard run against the single-queue Channel event for event), and
//     frames in every other direction arrive late by less than one window;
//   * a sharded run's metrics are a pure function of (config, shard
//     count): byte-identical across sim_threads and across repeats;
//   * the rx conservation law holds per-shard and summed;
//   * membership epochs: a node death (crash or battery depletion) or a
//     recovery is exact in the stripe that owns the node, and remote
//     stripes see it at most one window barrier late — differentially
//     pinned against the single-queue LinkState run;
//   * fault plans, finite batteries and lifetime routing run sharded with
//     thread-count-invariant metrics; only TDMA is still rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "app/scenario.hpp"
#include "net/link_state.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "phy/sharded_channel.hpp"
#include "sim/sharded_simulator.hpp"
#include "util/units.hpp"

namespace bcp {
namespace {

TEST(ShardMap, StripesAreBalancedAndOrderedLeftToRight) {
  std::vector<net::Position> positions;
  for (int i = 0; i < 12; ++i)
    positions.push_back({static_cast<double>(11 - i) * 10.0, 0.0});
  const phy::ShardMap map = phy::ShardMap::stripes(positions, 4);
  ASSERT_EQ(map.count, 4);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(map.owned_count(s), 3);
  // Node i sits at x = (11-i)*10: the *rightmost* node is id 0, so stripe
  // numbers must decrease with id (stripes are ordered by x, not by id).
  for (int i = 0; i + 1 < 12; ++i)
    EXPECT_GE(map.shard_of[static_cast<std::size_t>(i)],
              map.shard_of[static_cast<std::size_t>(i + 1)]);
}

TEST(ShardMap, MoreShardsThanNodesClampsToNodeCount) {
  const std::vector<net::Position> positions{{0, 0}, {10, 0}, {20, 0}};
  const phy::ShardMap map = phy::ShardMap::stripes(positions, 8);
  EXPECT_EQ(map.count, 3);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(map.owned_count(s), 1);
}

/// The stripe split by full sort: ids ordered by (x, id), stripe s takes
/// ranks [n·s/count, n·(s+1)/count).
std::vector<std::int32_t> full_sort_stripes(
    const std::vector<net::Position>& pos, int shards) {
  const std::size_t n = pos.size();
  const auto count = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(shards), n));
  std::vector<std::int32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::int32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    const auto& pa = pos[static_cast<std::size_t>(a)];
    const auto& pb = pos[static_cast<std::size_t>(b)];
    return pa.x != pb.x ? pa.x < pb.x : a < b;
  });
  std::vector<std::int32_t> shard_of(n, 0);
  for (std::size_t s = 0; s < count; ++s)
    for (std::size_t i = n * s / count; i < n * (s + 1) / count; ++i)
      shard_of[static_cast<std::size_t>(order[i])] =
          static_cast<std::int32_t>(s);
  return shard_of;
}

TEST(ShardMap, StripesEqualTheFullSortReference) {
  // Grid columns share one x per 37 nodes, so most stripe boundaries fall
  // inside a column and the id tie-break decides them.
  const std::vector<net::Topology> placements = {
      net::Topology::grid(37, 1440.0, 0),
      net::Topology::uniform_random(1000, 500.0, 5),
      net::Topology::gaussian_clusters(1000, 500.0, 5, 30.0, 5)};
  for (const net::Topology& t : placements)
    for (int shards = 1; shards <= 16; ++shards) {
      SCOPED_TRACE(t.name + " shards " + std::to_string(shards));
      const phy::ShardMap map = phy::ShardMap::stripes(t.positions, shards);
      ASSERT_EQ(map.shard_of, full_sort_stripes(t.positions, shards));
      // local_of and owned are the ascending-id inverse of shard_of.
      for (int s = 0; s < map.count; ++s) {
        const auto& ids = map.owned_nodes(s);
        ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
        for (std::size_t l = 0; l < ids.size(); ++l) {
          const auto g = static_cast<std::size_t>(ids[l]);
          ASSERT_EQ(map.shard_of[g], s);
          ASSERT_EQ(map.local_of[g], static_cast<std::int32_t>(l));
        }
      }
    }
}

TEST(ShardedSimulator, RunsEveryShardToTheHorizonInWindows) {
  sim::ShardedSimulator::Params params;
  params.shards = 4;
  params.threads = 1;
  params.window = 0.5;
  sim::ShardedSimulator engine(params);
  std::vector<int> fired(4, 0);
  engine.for_each_shard([&](int s) {
    for (int k = 0; k < 5; ++k)
      engine.shard(s).schedule_at(0.3 + k, [&fired, s] { ++fired[s]; });
  });
  engine.run(10.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(fired[s], 5) << "shard " << s;
    EXPECT_DOUBLE_EQ(engine.shard(s).now(), 10.0);
  }
  EXPECT_EQ(engine.total_processed(), 20u);
}

TEST(ShardedSimulator, DrainHookSeesEveryWindowInOrder) {
  sim::ShardedSimulator::Params params;
  params.shards = 2;
  params.threads = 1;
  params.window = 1.0;
  sim::ShardedSimulator engine(params);
  std::vector<std::int64_t> windows;
  engine.set_drain(1, [&](std::int64_t w) { windows.push_back(w); });
  engine.run(3.0);
  // 3 real windows plus two settlement rounds at the horizon.
  ASSERT_EQ(windows.size(), 5u);
  for (std::size_t i = 0; i < windows.size(); ++i)
    EXPECT_EQ(windows[i], static_cast<std::int64_t>(i));
}

TEST(ShardedSimulator, ShardExceptionPropagatesToTheCaller) {
  sim::ShardedSimulator::Params params;
  params.shards = 2;
  params.threads = 1;
  sim::ShardedSimulator engine(params);
  EXPECT_THROW(engine.for_each_shard([](int s) {
    if (s == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

// ---- Differential boundary-frame tests ------------------------------------

struct RxEvent {
  net::NodeId hearer;
  net::NodeId tx_node;
  double t_start;
  double t_end;
  bool clean;
};

/// Records every delivery at one node with the owning simulator's clock.
class Recorder final : public phy::ChannelListener {
 public:
  Recorder(sim::Simulator& sim, net::NodeId self,
           std::vector<RxEvent>& out)
      : sim_(sim), self_(self), out_(out) {}

  void on_rx_start(std::uint64_t id, const phy::Frame& frame,
                   util::Seconds) override {
    starts_.push_back({id, sim_.now()});
    (void)frame;
  }
  void on_rx_end(std::uint64_t id, const phy::Frame& frame,
                 bool clean) override {
    double t_start = -1;
    for (const auto& s : starts_)
      if (s.first == id) t_start = s.second;
    out_.push_back({self_, frame.tx_node, t_start, sim_.now(), clean});
  }

 private:
  sim::Simulator& sim_;
  net::NodeId self_;
  std::vector<RxEvent>& out_;
  std::vector<std::pair<std::uint64_t, double>> starts_;
};

/// Chain 0—1—2—3 at 10 m spacing, 15 m range; two stripes cut it between
/// nodes 1 and 2, so 1↔2 frames cross the boundary.
struct ChainFixture {
  std::vector<net::Position> positions{{0, 0}, {10, 0}, {20, 0}, {30, 0}};
  util::Metres range = 15.0;
};

std::vector<RxEvent> run_single(const ChainFixture& fx,
                                const std::vector<std::pair<net::NodeId, double>>& txs,
                                double horizon, double duration) {
  sim::Simulator sim;
  phy::Channel channel(sim, fx.positions, fx.range, phy::Channel::Params{},
                       99);
  std::vector<RxEvent> events;
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (net::NodeId id = 0; id < 4; ++id) {
    recorders.push_back(std::make_unique<Recorder>(sim, id, events));
    channel.attach(id, recorders.back().get());
  }
  for (const auto& [src, at] : txs)
    sim.schedule_at(at, [&channel, src = src, duration] {
      phy::Frame frame;
      frame.tx_node = src;
      frame.rx_node = net::kBroadcastNode;
      channel.start_tx(src, frame, duration);
    });
  sim.run_until(horizon);
  return events;
}

std::vector<RxEvent> run_sharded(const ChainFixture& fx,
                                 const std::vector<std::pair<net::NodeId, double>>& txs,
                                 double horizon, double duration,
                                 double window) {
  sim::ShardedSimulator::Params params;
  params.shards = 2;
  params.threads = 1;
  params.window = window;
  sim::ShardedSimulator engine(params);
  const phy::ShardMap map = phy::ShardMap::stripes(fx.positions, 2);
  auto graph =
      std::make_shared<net::ConnectivityGraph>(fx.positions, fx.range);
  phy::ShardedMedium medium(engine, graph, map, phy::Channel::Params{}, 99);
  for (int s = 0; s < 2; ++s)
    engine.set_drain(s, [&medium, s](std::int64_t w) { medium.drain(s, w); });
  std::vector<RxEvent> events;
  std::vector<std::unique_ptr<Recorder>> recorders;
  engine.for_each_shard([&](int s) {
    for (net::NodeId id = 0; id < 4; ++id) {
      if (map.shard_of[static_cast<std::size_t>(id)] != s) continue;
      recorders.push_back(
          std::make_unique<Recorder>(engine.shard(s), id, events));
      medium.shard(s).attach(id, recorders.back().get());
    }
    for (const auto& [src, at] : txs) {
      if (map.shard_of[static_cast<std::size_t>(src)] != s) continue;
      engine.shard(s).schedule_at(
          at, [channel = &medium.shard(s), src = src, duration] {
            phy::Frame frame;
            frame.tx_node = src;
            frame.rx_node = net::kBroadcastNode;
            channel->start_tx(src, frame, duration);
          });
    }
  });
  engine.run(horizon);
  return events;
}

const RxEvent* find(const std::vector<RxEvent>& events, net::NodeId hearer,
                    net::NodeId tx_node) {
  for (const auto& e : events)
    if (e.hearer == hearer && e.tx_node == tx_node) return &e;
  return nullptr;
}

TEST(ShardedChannel, EvenToOddBoundaryFrameKeepsExactTiming) {
  const ChainFixture fx;
  // Node 1 (stripe 0, even) transmits mid-window; node 2 (stripe 1) hears
  // it across the boundary. Odd stripes run after even within a window,
  // so the replica arrives with its exact original [start, end).
  const std::vector<std::pair<net::NodeId, double>> txs{{1, 0.005}};
  const auto single = run_single(fx, txs, 0.1, 0.004);
  const auto sharded = run_sharded(fx, txs, 0.1, 0.004, 0.02);
  ASSERT_EQ(single.size(), 2u);   // hearers 0 and 2
  ASSERT_EQ(sharded.size(), 2u);
  for (const net::NodeId hearer : {net::NodeId{0}, net::NodeId{2}}) {
    const RxEvent* a = find(single, hearer, 1);
    const RxEvent* b = find(sharded, hearer, 1);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_DOUBLE_EQ(a->t_start, b->t_start) << "hearer " << hearer;
    EXPECT_DOUBLE_EQ(a->t_end, b->t_end) << "hearer " << hearer;
    EXPECT_EQ(a->clean, b->clean) << "hearer " << hearer;
    EXPECT_TRUE(b->clean);
  }
}

TEST(ShardedChannel, CrossBoundaryCollisionCorruptsBothFramesExactly) {
  const ChainFixture fx;
  // Node 1 (even stripe) and node 3 (odd stripe) overlap on the air; node
  // 2 hears both. Node 1's frame crosses even→odd with exact timing and
  // node 3's is local, so the all-overlaps-corrupt verdict at node 2 must
  // match the single-queue run event for event.
  const std::vector<std::pair<net::NodeId, double>> txs{{1, 0.005},
                                                       {3, 0.006}};
  const auto single = run_single(fx, txs, 0.1, 0.004);
  const auto sharded = run_sharded(fx, txs, 0.1, 0.004, 0.02);
  for (const net::NodeId tx : {net::NodeId{1}, net::NodeId{3}}) {
    const RxEvent* a = find(single, 2, tx);
    const RxEvent* b = find(sharded, 2, tx);
    ASSERT_NE(a, nullptr) << "tx " << tx;
    ASSERT_NE(b, nullptr) << "tx " << tx;
    EXPECT_DOUBLE_EQ(a->t_start, b->t_start) << "tx " << tx;
    EXPECT_DOUBLE_EQ(a->t_end, b->t_end) << "tx " << tx;
    EXPECT_FALSE(a->clean) << "tx " << tx;
    EXPECT_FALSE(b->clean) << "tx " << tx;
  }
}

TEST(ShardedChannel, OddToEvenBoundaryFrameArrivesLateByLessThanOneWindow) {
  const ChainFixture fx;
  const double window = 0.02;
  // Node 2 (odd stripe) transmits at 0.005; node 1 (even stripe) already
  // ran past that instant, so the replica lands at the start of stripe
  // 0's next phase — late, but by less than one exchange window, and
  // still delivered clean (nothing else was on the air).
  const std::vector<std::pair<net::NodeId, double>> txs{{2, 0.005}};
  const auto sharded = run_sharded(fx, txs, 0.1, 0.004, window);
  const RxEvent* late = find(sharded, 1, 2);
  ASSERT_NE(late, nullptr);
  EXPECT_TRUE(late->clean);
  EXPECT_GE(late->t_start, 0.005);
  EXPECT_LT(late->t_start, 0.005 + 2 * window);
  // The same frame's delivery inside its own stripe is exactly on time.
  const RxEvent* local = find(sharded, 3, 2);
  ASSERT_NE(local, nullptr);
  EXPECT_DOUBLE_EQ(local->t_start, 0.005);
  EXPECT_DOUBLE_EQ(local->t_end, 0.009);
}

TEST(ShardedChannel, ConservationLawHoldsAcrossPartitions) {
  const ChainFixture fx;
  const std::vector<std::pair<net::NodeId, double>> txs{
      {0, 0.001}, {1, 0.005}, {2, 0.013}, {3, 0.030}};
  sim::ShardedSimulator::Params params;
  params.shards = 2;
  params.threads = 1;
  params.window = 0.02;
  sim::ShardedSimulator engine(params);
  const phy::ShardMap map = phy::ShardMap::stripes(fx.positions, 2);
  auto graph =
      std::make_shared<net::ConnectivityGraph>(fx.positions, fx.range);
  phy::ShardedMedium medium(engine, graph, map, phy::Channel::Params{}, 7);
  for (int s = 0; s < 2; ++s)
    engine.set_drain(s, [&medium, s](std::int64_t w) { medium.drain(s, w); });
  engine.for_each_shard([&](int s) {
    for (const auto& [src, at] : txs) {
      if (map.shard_of[static_cast<std::size_t>(src)] != s) continue;
      engine.shard(s).schedule_at(
          at, [channel = &medium.shard(s), src = src] {
            phy::Frame frame;
            frame.tx_node = src;
            frame.rx_node = net::kBroadcastNode;
            channel->start_tx(src, frame, 0.004);
          });
    }
  });
  engine.run(0.1);
  const phy::Channel::Stats stats = medium.total_stats();
  EXPECT_EQ(stats.frames, 4);
  EXPECT_GT(medium.boundary_exports(), 0);
  EXPECT_EQ(stats.rx_starts, stats.deliveries_clean +
                                 stats.deliveries_corrupt +
                                 medium.total_live_arrivals());
  EXPECT_EQ(medium.total_live_arrivals(), 0);
}

// ---- Membership-epoch differential tests -----------------------------------

/// One scripted membership flip: `node` goes down (a crash and a battery
/// death are the same kNodeDown delta) or comes back up at `at`.
struct MembershipFlip {
  double at;
  net::NodeId node;
  bool up;
};

std::vector<RxEvent> run_single_membership(
    const ChainFixture& fx,
    const std::vector<std::pair<net::NodeId, double>>& txs,
    const std::vector<MembershipFlip>& flips, double horizon,
    double duration) {
  sim::Simulator sim;
  phy::Channel channel(sim, fx.positions, fx.range, phy::Channel::Params{},
                       99);
  net::LinkState links(4);
  channel.set_link_state(&links);
  std::vector<RxEvent> events;
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (net::NodeId id = 0; id < 4; ++id) {
    recorders.push_back(std::make_unique<Recorder>(sim, id, events));
    channel.attach(id, recorders.back().get());
  }
  for (const auto& f : flips)
    sim.schedule_at(f.at, [&links, f] { links.set_node_up(f.node, f.up); });
  for (const auto& [src, at] : txs)
    sim.schedule_at(at, [&channel, src = src, duration] {
      phy::Frame frame;
      frame.tx_node = src;
      frame.rx_node = net::kBroadcastNode;
      channel.start_tx(src, frame, duration);
    });
  sim.run_until(horizon);
  return events;
}

/// The sharded counterpart wires the full epoch protocol by hand — one
/// LinkState replica per stripe, the owning stripe flips its replica at
/// the exact event instant and queues the delta, and the barrier hook
/// broadcasts the sorted batch to every replica — exactly what the
/// sharded engine's coordinator in run_scenario does, minus the nodes.
/// Also asserts the rx
/// conservation law per channel partition before returning.
std::vector<RxEvent> run_sharded_membership(
    const ChainFixture& fx,
    const std::vector<std::pair<net::NodeId, double>>& txs,
    const std::vector<MembershipFlip>& flips, double horizon,
    double duration, double window) {
  sim::ShardedSimulator::Params params;
  params.shards = 2;
  params.threads = 1;
  params.window = window;
  sim::ShardedSimulator engine(params);
  const phy::ShardMap map = phy::ShardMap::stripes(fx.positions, 2);
  auto graph =
      std::make_shared<net::ConnectivityGraph>(fx.positions, fx.range);
  phy::ShardedMedium medium(engine, graph, map, phy::Channel::Params{}, 99);
  std::vector<net::LinkState> replicas(2, net::LinkState(4));
  std::vector<std::vector<net::MembershipDelta>> pending(2);
  for (int s = 0; s < 2; ++s) {
    medium.shard(s).set_link_state(&replicas[static_cast<std::size_t>(s)]);
    engine.set_drain(s, [&medium, s](std::int64_t w) { medium.drain(s, w); });
  }
  engine.set_barrier_hook([&replicas, &pending](std::int64_t, util::Seconds) {
    std::vector<net::MembershipDelta> batch;
    for (auto& q : pending) {
      batch.insert(batch.end(), q.begin(), q.end());
      q.clear();
    }
    std::sort(batch.begin(), batch.end(), net::MembershipDelta::before);
    for (const auto& d : batch)
      for (auto& r : replicas) r.apply(d);
  });
  std::vector<RxEvent> events;
  std::vector<std::unique_ptr<Recorder>> recorders;
  engine.for_each_shard([&](int s) {
    for (net::NodeId id = 0; id < 4; ++id) {
      if (map.shard_of[static_cast<std::size_t>(id)] != s) continue;
      recorders.push_back(
          std::make_unique<Recorder>(engine.shard(s), id, events));
      medium.shard(s).attach(id, recorders.back().get());
    }
    for (const auto& f : flips) {
      if (map.shard_of[static_cast<std::size_t>(f.node)] != s) continue;
      engine.shard(s).schedule_at(f.at, [&replicas, &pending, f, s] {
        replicas[static_cast<std::size_t>(s)].set_node_up(f.node, f.up);
        net::MembershipDelta d;
        d.time = f.at;
        d.shard = s;
        d.node = f.node;
        d.kind = f.up ? net::LinkChange::Kind::kNodeUp
                      : net::LinkChange::Kind::kNodeDown;
        pending[static_cast<std::size_t>(s)].push_back(d);
      });
    }
    for (const auto& [src, at] : txs) {
      if (map.shard_of[static_cast<std::size_t>(src)] != s) continue;
      engine.shard(s).schedule_at(
          at, [channel = &medium.shard(s), src = src, duration] {
            phy::Frame frame;
            frame.tx_node = src;
            frame.rx_node = net::kBroadcastNode;
            channel->start_tx(src, frame, duration);
          });
    }
  });
  engine.run(horizon);
  for (int s = 0; s < 2; ++s) {
    const phy::Channel::Stats st = medium.shard(s).stats();
    EXPECT_EQ(st.rx_starts, st.deliveries_clean + st.deliveries_corrupt +
                                medium.shard(s).live_arrivals())
        << "conservation violated in partition " << s;
  }
  return events;
}

void expect_same_events(std::vector<RxEvent> a, std::vector<RxEvent> b) {
  const auto order = [](const RxEvent& x, const RxEvent& y) {
    return std::tie(x.hearer, x.tx_node, x.t_start) <
           std::tie(y.hearer, y.tx_node, y.t_start);
  };
  std::sort(a.begin(), a.end(), order);
  std::sort(b.begin(), b.end(), order);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hearer, b[i].hearer) << "event " << i;
    EXPECT_EQ(a[i].tx_node, b[i].tx_node) << "event " << i;
    EXPECT_DOUBLE_EQ(a[i].t_start, b[i].t_start) << "event " << i;
    EXPECT_DOUBLE_EQ(a[i].t_end, b[i].t_end) << "event " << i;
    EXPECT_EQ(a[i].clean, b[i].clean) << "event " << i;
  }
}

TEST(ShardedMembership, OwningStripeSilencesADeathAtTheExactInstant) {
  const ChainFixture fx;
  // Node 2 (odd stripe) dies at t = 0.010. Frames around the death:
  //   * node 1 at 0.001: ends (0.005) before the death — node 2 hears it
  //     across the boundary with exact timing;
  //   * node 3 at 0.012 (node 2's own stripe): the owning replica went
  //     down at the exact instant — silence, no window granularity;
  //   * node 2 itself at 0.015: a dead transmitter reaches nobody;
  //   * node 1 at 0.025 (next window): stripe 0 learned the death at the
  //     0.02 barrier, so the frame is not even exported.
  // The sharded event log must match the single-queue LinkState run
  // event for event.
  const std::vector<std::pair<net::NodeId, double>> txs{
      {1, 0.001}, {3, 0.012}, {2, 0.015}, {1, 0.025}};
  const std::vector<MembershipFlip> flips{{0.010, 2, false}};
  const auto single = run_single_membership(fx, txs, flips, 0.1, 0.004);
  const auto sharded =
      run_sharded_membership(fx, txs, flips, 0.1, 0.004, 0.02);
  // Survivors: hearers 0 and 2 of the 0.001 frame, hearer 0 of the 0.025
  // frame. Everything sent to or from the dead node is silence.
  ASSERT_EQ(single.size(), 3u);
  EXPECT_NE(find(single, 2, 1), nullptr);
  expect_same_events(single, sharded);
}

TEST(ShardedMembership, RemoteStripeSeesARecoveryAtMostOneWindowLate) {
  const ChainFixture fx;
  const double window = 0.02;
  // Node 2 dies at 0.001 and recovers at 0.030 (window [0.02, 0.04)).
  // Node 1 (stripe 0) transmits at 0.032: the single-queue run delivers —
  // node 2 is already back — but stripe 0's replica only learns the
  // recovery at the 0.04 barrier, so the sharded run misses this one
  // frame. One window later (0.045) both engines deliver with exact
  // timing: remote staleness is bounded by one window, never unbounded.
  const std::vector<MembershipFlip> flips{{0.001, 2, false},
                                          {0.030, 2, true}};
  const std::vector<std::pair<net::NodeId, double>> txs{{1, 0.032},
                                                        {1, 0.045}};
  const auto single = run_single_membership(fx, txs, flips, 0.1, 0.004);
  const auto sharded =
      run_sharded_membership(fx, txs, flips, 0.1, 0.004, window);
  const auto rx_at_2 = [](const std::vector<RxEvent>& events) {
    std::vector<double> starts;
    for (const auto& e : events)
      if (e.hearer == 2 && e.tx_node == 1) starts.push_back(e.t_start);
    std::sort(starts.begin(), starts.end());
    return starts;
  };
  const auto single_rx = rx_at_2(single);
  ASSERT_EQ(single_rx.size(), 2u);
  EXPECT_DOUBLE_EQ(single_rx[0], 0.032);
  EXPECT_DOUBLE_EQ(single_rx[1], 0.045);
  const auto sharded_rx = rx_at_2(sharded);
  ASSERT_EQ(sharded_rx.size(), 1u);
  EXPECT_DOUBLE_EQ(sharded_rx[0], 0.045);
  // The missed frame left within one window of the recovery instant —
  // the staleness bound the epoch protocol promises.
  EXPECT_LT(0.032 - 0.030, window);
}

// ---- Whole-scenario contracts ----------------------------------------------

app::ScenarioConfig sharded_config(int shards, int threads) {
  // burst_packets = 10: at 0.2 Kbps a sender fills a burst every ~13 s,
  // so a 120 s run exercises many full wake-up/transfer cycles.
  app::ScenarioConfig config = app::ScenarioConfig::single_hop(
      app::EvalModel::kDualRadio, /*senders=*/6, /*burst_packets=*/10);
  config.duration = 120.0;
  config.shards = shards;
  config.sim_threads = threads;
  return config;
}

TEST(ShardedScenario, MetricsAreIdenticalAcrossWorkerThreadCounts) {
  const app::RunMetrics inline_run =
      app::run_scenario(sharded_config(4, /*threads=*/1));
  const app::RunMetrics threaded_run =
      app::run_scenario(sharded_config(4, /*threads=*/2));
  EXPECT_EQ(app::first_metric_difference(inline_run, threaded_run), nullptr);
  EXPECT_GT(inline_run.delivered, 0);
  EXPECT_GT(inline_run.boundary_frames, 0);
}

TEST(ShardedScenario, RepeatRunsAreIdentical) {
  const app::RunMetrics a = app::run_scenario(sharded_config(3, 0));
  const app::RunMetrics b = app::run_scenario(sharded_config(3, 0));
  EXPECT_EQ(app::first_metric_difference(a, b), nullptr);
}

TEST(ShardedScenario, ShardEventCountsSumToTotalAndConservationHolds) {
  const app::RunMetrics m = app::run_scenario(sharded_config(4, 1));
  ASSERT_EQ(m.shard_events.size(), 4u);
  std::uint64_t sum = 0;
  for (const std::uint64_t e : m.shard_events) {
    EXPECT_GT(e, 0u);
    sum += e;
  }
  EXPECT_EQ(sum, m.events_processed);
  EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end);
}

TEST(ShardedScenario, SensorModelRunsSharded) {
  app::ScenarioConfig config = app::ScenarioConfig::single_hop(
      app::EvalModel::kSensor, 6, 100);
  config.duration = 120.0;
  config.shards = 3;
  config.sim_threads = 1;
  const app::RunMetrics m = app::run_scenario(config);
  EXPECT_GT(m.delivered, 0);
  EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end);
}

// ---- Fault/churn and batteries on the sharded engine -----------------------

TEST(ShardedScenario, FaultChurnRunsShardedAndIsThreadCountInvariant) {
  app::ScenarioConfig churn = sharded_config(4, 1);
  churn.faults.node_crashes = 3;
  churn.faults.link_flaps = 2;
  const app::RunMetrics inline_run = app::run_scenario(churn);
  churn.sim_threads = 2;
  const app::RunMetrics threaded_run = app::run_scenario(churn);
  EXPECT_EQ(app::first_metric_difference(inline_run, threaded_run), nullptr);
  EXPECT_EQ(inline_run.fault_node_crashes, 3);
  EXPECT_EQ(inline_run.fault_link_downs, 2);
  EXPECT_GT(inline_run.delivered, 0);
  EXPECT_GT(inline_run.route_rebuilds, 0);
  EXPECT_EQ(inline_run.chan_rx_starts,
            inline_run.chan_rx_ends + inline_run.chan_rx_live_at_end);
}

TEST(ShardedScenario, ChurnPlusBatteriesRunShardedWithDeathsAccounted) {
  app::ScenarioConfig config = sharded_config(4, 1);
  config.faults.node_crashes = 2;
  config.faults.link_flaps = 2;
  config.battery.enabled = true;
  // A dual-radio node's battery holds sensor_j + wifi_j. 4 J at the
  // busiest nodes' ~60 mW draw runs dry around 65 s of the 120 s run,
  // so deaths are guaranteed.
  config.battery.sensor_initial_j = 2.0;
  config.battery.wifi_initial_j = 2.0;
  const app::RunMetrics inline_run = app::run_scenario(config);
  config.sim_threads = 2;
  const app::RunMetrics threaded_run = app::run_scenario(config);
  EXPECT_EQ(app::first_metric_difference(inline_run, threaded_run), nullptr);
  EXPECT_GT(inline_run.battery_deaths, 0);
  EXPECT_GT(inline_run.time_to_first_death, 0);
  EXPECT_LE(inline_run.time_to_first_death, config.duration);
  EXPECT_GE(inline_run.battery_max_drawn_fraction, 1.0);
  EXPECT_EQ(inline_run.chan_rx_starts,
            inline_run.chan_rx_ends + inline_run.chan_rx_live_at_end);
}

TEST(ShardedScenario, LifetimeRoutingRunsSharded) {
  app::ScenarioConfig config = sharded_config(3, 1);
  config.battery.enabled = true;  // lifetime routing requires a battery
  config.route_policy = net::RoutePolicy::kLifetimeAware;
  const app::RunMetrics inline_run = app::run_scenario(config);
  config.sim_threads = 2;
  const app::RunMetrics threaded_run = app::run_scenario(config);
  EXPECT_EQ(app::first_metric_difference(inline_run, threaded_run), nullptr);
  EXPECT_GT(inline_run.delivered, 0);
  // The coordinator's reroute tick touches every replica on the
  // reroute_period grid, so routing rebuilds keep happening mid-run.
  EXPECT_GT(inline_run.route_rebuilds, 0);
}

// A battery death is a kNodeDown membership delta, so the engines must
// agree exactly when the depletion instant is traffic-independent: with a
// battery that dies before the first burst ever transmits, every node
// depletes by pure idle draw at capacity/idle_power in BOTH engines.
TEST(ShardedScenario, IdleOnlyBatteryDeathMatchesSingleQueueExactly) {
  app::ScenarioConfig config = sharded_config(2, 1);
  config.duration = 30.0;
  config.battery.enabled = true;
  // Dual-radio capacity = sensor_j + wifi_j = 0.15 J: 5 s of Mica's
  // 30 mW idle listen, gone long before the first ~13 s burst transmits.
  config.battery.sensor_initial_j = 0.1;
  config.battery.wifi_initial_j = 0.05;
  const app::RunMetrics sharded = app::run_scenario(config);
  config.shards = 1;  // dispatches to the historical single-queue engine
  const app::RunMetrics single = app::run_scenario(config);
  EXPECT_GT(sharded.battery_deaths, 0);
  EXPECT_EQ(sharded.battery_deaths, single.battery_deaths);
  EXPECT_EQ(sharded.time_to_first_death, single.time_to_first_death);
  EXPECT_EQ(sharded.time_to_sink_partition, single.time_to_sink_partition);
  EXPECT_EQ(sharded.delivered_bits_until_first_death,
            single.delivered_bits_until_first_death);
  EXPECT_EQ(sharded.delivered_bits_until_partition,
            single.delivered_bits_until_partition);
}

// ---- Stripe-local node state (the id-mapping memory model) -----------------

/// 23 nodes on a line, positions scrambled relative to ids so the five
/// stripes interleave in id space.
phy::ShardMap scrambled_five_stripes() {
  std::vector<net::Position> positions;
  for (int i = 0; i < 23; ++i)
    positions.push_back({static_cast<double>((i * 7) % 23) * 5.0, 0.0});
  return phy::ShardMap::stripes(positions, 5);
}

TEST(ShardMap, LocalIdsAreContiguousAscendingAndInvertOwned) {
  const phy::ShardMap map = scrambled_five_stripes();
  ASSERT_EQ(map.count, 5);
  ASSERT_EQ(map.local_of.size(), 23u);
  int total = 0;
  for (int s = 0; s < map.count; ++s) {
    const std::vector<net::NodeId>& ids = map.owned_nodes(s);
    ASSERT_EQ(static_cast<int>(ids.size()), map.owned_count(s));
    total += map.owned_count(s);
    for (std::size_t l = 0; l < ids.size(); ++l) {
      const auto g = static_cast<std::size_t>(ids[l]);
      EXPECT_EQ(map.shard_of[g], s);
      // owned[s][local_of[g]] == g: local ids are the dense inverse.
      EXPECT_EQ(map.local_of[g], static_cast<std::int32_t>(l));
      if (l > 0) {
        EXPECT_LT(ids[l - 1], ids[l]);  // ascending global order
      }
    }
  }
  EXPECT_EQ(total, 23);  // every node owned by exactly one stripe
}

TEST(ShardMap, StripeViewOwnsAndLocalizesEveryId) {
  const phy::ShardMap map = scrambled_five_stripes();
  for (int s = 0; s < map.count; ++s) {
    const net::Stripe stripe = map.stripe(s);
    EXPECT_FALSE(stripe.whole());
    EXPECT_EQ(stripe.shard, s);
    EXPECT_EQ(stripe.owned, map.owned_count(s));
    EXPECT_EQ(stripe.slots(23), static_cast<std::size_t>(map.owned_count(s)));
    for (net::NodeId id = 0; id < 23; ++id) {
      const auto g = static_cast<std::size_t>(id);
      EXPECT_EQ(stripe.owner(id), map.shard_of[g]) << "id " << id;
      ASSERT_EQ(stripe.owns(id), map.shard_of[g] == s) << "id " << id;
      if (stripe.owns(id)) {
        EXPECT_EQ(map.owned_nodes(s)[stripe.local(id)], id) << "id " << id;
      }
    }
  }
  EXPECT_THROW(map.stripe(map.count), std::invalid_argument);
  // The default view is the whole network: every id owned, at its own id.
  const net::Stripe whole;
  EXPECT_TRUE(whole.whole());
  EXPECT_EQ(whole.slots(23), 23u);
  for (net::NodeId id = 0; id < 23; ++id) {
    EXPECT_TRUE(whole.owns(id));
    EXPECT_EQ(whole.owner(id), 0);
    EXPECT_EQ(whole.local(id), static_cast<std::size_t>(id));
  }
}

TEST(ShardedChannel, PartitionVectorsAreStripeLocal) {
  const ChainFixture fx;
  sim::ShardedSimulator::Params params;
  params.shards = 2;
  params.threads = 1;
  params.window = 0.02;
  sim::ShardedSimulator engine(params);
  const phy::ShardMap map = phy::ShardMap::stripes(fx.positions, 2);
  auto graph =
      std::make_shared<net::ConnectivityGraph>(fx.positions, fx.range);
  phy::ShardedMedium medium(engine, graph, map, phy::Channel::Params{}, 99);
  // Every partition's per-node channel arrays are sized by its stripe's
  // population, not the global one — the O(n/shards) memory claim.
  for (int s = 0; s < 2; ++s)
    EXPECT_EQ(medium.shard(s).node_slots(),
              static_cast<std::size_t>(map.owned_count(s)))
        << "shard " << s;
}

TEST(LinkStateReplica, StripeLocalDenseSizeIsOwnedCount) {
  const phy::ShardMap map = scrambled_five_stripes();
  for (int s = 0; s < map.count; ++s) {
    const net::LinkState replica(23, map.stripe(s));
    EXPECT_EQ(replica.dense_size(),
              static_cast<std::size_t>(map.owned_count(s)));
    EXPECT_EQ(replica.node_count(), 23);  // queries still span the world
  }
  EXPECT_EQ(net::LinkState(23).dense_size(), 23u);
}

TEST(LinkStateReplica, StripeLocalAnswersMatchDenseUnderChurn) {
  const ChainFixture fx;  // 0—1—2—3; stripe 0 owns {0,1}
  const phy::ShardMap map = phy::ShardMap::stripes(fx.positions, 2);
  net::LinkState stripe(4, map.stripe(0));
  net::LinkState dense(4);
  // Mutation sequence spanning owned ids (0, 1), the boundary neighbor 2
  // and the far id 3, with idempotent repeats: every answer and every
  // revision bump must match the whole-network layout exactly.
  const auto check = [&] {
    EXPECT_EQ(stripe.all_up(), dense.all_up());
    EXPECT_EQ(stripe.down_node_count(), dense.down_node_count());
    EXPECT_EQ(stripe.down_link_count(), dense.down_link_count());
    EXPECT_EQ(stripe.revision(), dense.revision());
    for (net::NodeId v = 0; v < 4; ++v)
      EXPECT_EQ(stripe.node_up(v), dense.node_up(v)) << "node " << v;
    for (net::NodeId a = 0; a < 4; ++a)
      for (net::NodeId b = 0; b < 4; ++b)
        if (a != b) {
          EXPECT_EQ(stripe.link_up(a, b), dense.link_up(a, b))
              << a << "-" << b;
        }
  };
  const std::vector<std::pair<net::NodeId, bool>> flips{
      {1, false}, {1, false},  // repeat: no revision bump in either
      {3, false}, {3, false},  // far id → sparse down-set, repeated
      {2, false},              // boundary neighbor → sparse down-set
      {1, true},  {3, true},  {3, true}, {2, true},
      {0, false}, {0, true},  {2, false}, {2, true}};
  check();
  for (const auto& [node, up] : flips) {
    stripe.set_node_up(node, up);
    dense.set_node_up(node, up);
    check();
  }
  const std::vector<std::tuple<net::NodeId, net::NodeId, bool>> link_flips{
      {1, 2, false}, {2, 1, false},  // same pair: no revision bump
      {2, 3, false},                 // both endpoints remote
      {1, 2, true},  {3, 2, true}};
  for (const auto& [a, b, up] : link_flips) {
    stripe.set_link_up(a, b, up);
    dense.set_link_up(a, b, up);
    check();
  }
  EXPECT_TRUE(stripe.all_up());
}

TEST(ShardedScenario, ShardCountAboveNodeCountIsRejected) {
  app::ScenarioConfig config = app::ScenarioConfig::single_hop(
      app::EvalModel::kSensor, 3, 100);
  config.shards = config.topology.node_count() + 1;
  try {
    app::run_scenario(config);
    FAIL() << "shards > nodes must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "shard count must not exceed the node count"),
              std::string::npos)
        << e.what();
  }
}

// ---- Differential goldens across the id-mapping refactor -------------------
//
// These values were captured on the globally-sized (pre stripe-local)
// partitions; the stripe-local refactor must reproduce every one of them
// bit for bit. A mismatch means the id translation changed behavior, not
// just layout. Each cell also re-runs on 4 worker threads and must match
// its inline run on every RunMetrics field.

app::ScenarioConfig golden_grid_config(int nodes, int shards, double duration,
                                       int senders) {
  app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
      app::EvalModel::kDualRadio, senders, /*burst_packets=*/10);
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::kGrid;
  spec.nodes = nodes;
  spec.seed = 1;
  int side = 1;
  while (side * side < nodes) ++side;
  spec.grid_side = side;
  spec.area = 40.0 * (side - 1);
  cfg.topology = spec;
  cfg.rate_bps = 2000.0;
  cfg.duration = duration;
  cfg.seed = 1;
  cfg.shards = shards;
  cfg.sim_threads = 1;
  return cfg;
}

// Runs a pinned cell as configured (sim_threads = 1) and again on 4
// worker threads, and requires every RunMetrics field to agree: the
// thread-count determinism gate at 900 and 10k nodes. Returns the inline
// run, which the caller checks against its pinned values.
app::RunMetrics run_inline_and_threaded(app::ScenarioConfig cfg) {
  const app::RunMetrics inline_run = app::run_scenario(cfg);
  cfg.sim_threads = 4;
  const app::RunMetrics threaded_run = app::run_scenario(cfg);
  const char* differs = app::first_metric_difference(inline_run, threaded_run);
  EXPECT_EQ(differs, nullptr) << "first field that differs: " << differs;
  return inline_run;
}

TEST(ShardedGolden, Grid900Nodes4ShardsIsBytePinned) {
  const app::RunMetrics m =
      run_inline_and_threaded(golden_grid_config(900, 4, 20.0, 10));
  EXPECT_EQ(m.generated, 1564);
  EXPECT_EQ(m.delivered, 432);
  EXPECT_EQ(m.events_processed, 117125u);
  EXPECT_EQ(m.boundary_frames, 7118);
  EXPECT_EQ(m.goodput, 0.27621483375959077);
  EXPECT_EQ(m.mean_delay, 5.3365775142110161);
  EXPECT_EQ(m.normalized_energy, 1.097699034764013);
  EXPECT_EQ(m.sensor_energy.tx, 3.7665600872727643);
  EXPECT_EQ(m.wifi_energy.full(), 116.40174674995447);
}

TEST(ShardedGolden, Grid10000Nodes8ShardsIsBytePinned) {
  const app::RunMetrics m =
      run_inline_and_threaded(golden_grid_config(10000, 8, 12.0, 10));
  EXPECT_EQ(m.generated, 938);
  EXPECT_EQ(m.delivered, 70);
  EXPECT_EQ(m.events_processed, 136855u);
  EXPECT_EQ(m.boundary_frames, 6358);
  EXPECT_EQ(m.goodput, 0.074626865671641784);
  EXPECT_EQ(m.mean_delay, 5.666617315016957);
  EXPECT_EQ(m.normalized_energy, 6.8851241550321571);
  EXPECT_EQ(m.sensor_energy.tx, 4.7077937394711435);
  EXPECT_EQ(m.wifi_energy.full(), 117.02122515845767);
}

TEST(ShardedGolden, Churn900Nodes4ShardsWithBatteriesIsBytePinned) {
  app::ScenarioConfig cfg = app::ScenarioConfig::multi_hop(
      app::EvalModel::kDualRadio, 10, /*burst_packets=*/10);
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::kGrid;
  spec.nodes = 900;
  spec.seed = 1;
  spec.grid_side = 30;
  spec.area = 40.0 * 29;
  cfg.topology = spec;
  cfg.rate_bps = 2000.0;
  cfg.duration = 60.0;
  cfg.seed = 1;
  cfg.shards = 4;
  cfg.sim_threads = 1;
  cfg.faults.node_crashes = 6;
  cfg.faults.seed = 7;
  cfg.battery.enabled = true;
  cfg.battery.sensor_initial_j = 2.0;
  cfg.battery.wifi_initial_j = 2.0;
  const app::RunMetrics m = run_inline_and_threaded(cfg);
  EXPECT_EQ(m.generated, 4689);
  EXPECT_EQ(m.delivered, 130);
  EXPECT_EQ(m.events_processed, 42143u);
  EXPECT_EQ(m.boundary_frames, 2411);
  EXPECT_EQ(m.fault_node_crashes, 6);
  EXPECT_EQ(m.fault_node_recoveries, 6);
  EXPECT_EQ(m.battery_deaths, 9);
  EXPECT_EQ(m.time_to_first_death, 7.3244032790697666);
  EXPECT_EQ(m.route_rebuilds, 119);
  EXPECT_EQ(m.goodput, 0.027724461505651526);
  EXPECT_EQ(m.normalized_energy, 1.2236367146638714);
}

TEST(ShardedScenario, TdmaIsRejected) {
  app::ScenarioConfig config = app::ScenarioConfig::single_hop(
      app::EvalModel::kSensor, 6, 100);
  config.shards = 2;
  config.sensor_mac.family = mac::MacFamily::kTdma;
  EXPECT_THROW(app::run_scenario(config), std::invalid_argument);
}

}  // namespace
}  // namespace bcp
