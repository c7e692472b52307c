// Unit tests: messages, topology, routing.
#include <gtest/gtest.h>

#include "net/message.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/units.hpp"

namespace bcp::net {
namespace {

using util::bytes;

TEST(Message, DataPacketSize) {
  Message m;
  m.body = DataPacket{0, 1, 1, bytes(32), 0.0};
  EXPECT_EQ(m.size_bits(), bytes(32));
  EXPECT_TRUE(m.is_data());
  EXPECT_FALSE(m.is_control());
  EXPECT_FALSE(m.is_bulk());
}

TEST(Message, ControlSizesAreSmallAndEqual) {
  Message req;
  req.body = WakeupRequest{0, 1, 7, bytes(1024)};
  Message ack;
  ack.body = WakeupAck{1, 0, 7, bytes(512)};
  EXPECT_EQ(req.size_bits(), control_body_bits());
  EXPECT_EQ(ack.size_bits(), control_body_bits());
  EXPECT_TRUE(req.is_control());
  EXPECT_TRUE(ack.is_control());
}

TEST(Message, BulkFrameSizeIsSumOfPackets) {
  BulkFrame f;
  for (int i = 0; i < 32; ++i)
    f.packets.push_back(DataPacket{2, 0, static_cast<std::uint32_t>(i),
                                   bytes(32), 0.0});
  EXPECT_EQ(f.payload_bits(), bytes(1024));
  Message m;
  m.body = f;
  EXPECT_EQ(m.size_bits(), bytes(1024));
  EXPECT_TRUE(m.is_bulk());
}

TEST(Message, BulkFrameCachedPayloadBits) {
  BulkFrame f;
  for (int i = 0; i < 8; ++i)
    f.packets.push_back(DataPacket{2, 0, static_cast<std::uint32_t>(i),
                                   bytes(32), 0.0});
  EXPECT_EQ(f.cached_payload_bits, -1);  // hand-built frames: no cache
  f.cache_payload_bits();
  EXPECT_EQ(f.cached_payload_bits, bytes(256));
  EXPECT_EQ(f.payload_bits(), bytes(256));
  // The cache is a snapshot of the assembly-time packet set: mutating the
  // frame afterwards does NOT invalidate it (assembly is final)...
  f.packets.push_back(DataPacket{2, 0, 9, bytes(32), 0.0});
  EXPECT_EQ(f.payload_bits(), bytes(256));
  // ...until the owner re-stamps it.
  f.cache_payload_bits();
  EXPECT_EQ(f.payload_bits(), bytes(288));
}

TEST(Topology, PaperGridGeometry) {
  const auto g = Topology::grid(6, 200.0, 0);
  EXPECT_EQ(g.node_count(), 36);
  EXPECT_EQ(g.sink, 0);
  // 6 nodes per row, 40 m apart.
  EXPECT_DOUBLE_EQ(g.position(1).x, 40.0);
  EXPECT_DOUBLE_EQ(g.position(6).x, 0.0);
  EXPECT_DOUBLE_EQ(g.position(6).y, 40.0);
  EXPECT_DOUBLE_EQ(g.position(0).x, 0.0);
  EXPECT_DOUBLE_EQ(g.position(5).x, 200.0);
  EXPECT_DOUBLE_EQ(g.position(35).x, 200.0);
  EXPECT_DOUBLE_EQ(g.position(35).y, 200.0);
}

TEST(Topology, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

TEST(Topology, GridValidation) {
  EXPECT_THROW(Topology::grid(0, 200, 0), std::invalid_argument);
  EXPECT_THROW(Topology::grid(6, 200, 36), std::invalid_argument);
  EXPECT_THROW(Topology::grid(6, -5, 0), std::invalid_argument);
}

TEST(Connectivity, SensorRangeGivesFourNeighbourGrid) {
  const auto g = Topology::grid(6, 200.0, 0);
  const ConnectivityGraph c(g.positions, 40.0);
  // Corner: 2 neighbours; edge: 3; interior: 4. Diagonals (56.6 m) out.
  EXPECT_EQ(c.neighbors(0).size(), 2u);
  EXPECT_EQ(c.neighbors(1).size(), 3u);
  EXPECT_EQ(c.neighbors(7).size(), 4u);
  EXPECT_TRUE(c.connected(0, 1));
  EXPECT_TRUE(c.connected(0, 6));
  EXPECT_FALSE(c.connected(0, 7));   // diagonal
  EXPECT_FALSE(c.connected(0, 2));   // two cells away
  EXPECT_FALSE(c.connected(3, 3));   // self
}

TEST(Connectivity, WideRangeConnectsEverything) {
  const auto g = Topology::grid(6, 200.0, 0);
  const ConnectivityGraph c(g.positions, 300.0);
  EXPECT_EQ(c.neighbors(0).size(), 35u);
  EXPECT_TRUE(c.connected(0, 35));
}

TEST(Routing, HopsEqualManhattanDistanceOnTheGrid) {
  const auto g = Topology::grid(6, 200.0, 0);
  const RoutingTable r{ConnectivityGraph(g.positions, 40.0)};
  EXPECT_EQ(r.hops(0, 0), 0);
  EXPECT_EQ(r.hops(1, 0), 1);
  EXPECT_EQ(r.hops(7, 0), 2);    // (1,1): one right + one down
  EXPECT_EQ(r.hops(35, 0), 10);  // far corner: 5 + 5
  EXPECT_EQ(r.hops(0, 35), 10);  // symmetric
}

TEST(Routing, MeanDepthToCornerSinkIsFiveHops) {
  // Matches the paper's "communication through sensor radios require 5
  // hops" working point (§2.2).
  const auto g = Topology::grid(6, 200.0, 0);
  const RoutingTable r{ConnectivityGraph(g.positions, 40.0)};
  EXPECT_DOUBLE_EQ(r.mean_hops_to(0), 180.0 / 35.0);  // ≈ 5.14 hops
}

TEST(Routing, NextHopAlwaysDecreasesDistance) {
  const auto g = Topology::grid(6, 200.0, 0);
  const RoutingTable r{ConnectivityGraph(g.positions, 40.0)};
  for (NodeId from = 1; from < 36; ++from) {
    const NodeId nh = r.next_hop(from, 0);
    ASSERT_NE(nh, kInvalidNode);
    EXPECT_EQ(r.hops(nh, 0), r.hops(from, 0) - 1);
  }
}

TEST(Routing, RouteFollowsToDestinationWithoutLoops) {
  const auto g = Topology::grid(6, 200.0, 0);
  const RoutingTable r{ConnectivityGraph(g.positions, 40.0)};
  for (NodeId from = 0; from < 36; ++from) {
    NodeId cur = from;
    int steps = 0;
    while (cur != 17 && steps <= 36) {
      cur = r.next_hop(cur, 17);
      ++steps;
    }
    EXPECT_EQ(cur, 17) << "from " << from;
    EXPECT_EQ(steps, r.hops(from, 17));
  }
}

TEST(Routing, SingleWifiHopWithWideRange) {
  const auto g = Topology::grid(6, 200.0, 0);
  const RoutingTable r{ConnectivityGraph(g.positions, 300.0)};
  for (NodeId from = 1; from < 36; ++from) {
    EXPECT_EQ(r.hops(from, 0), 1);
    EXPECT_EQ(r.next_hop(from, 0), 0);
  }
}

TEST(Routing, DisconnectedNodesReportUnreachable) {
  // Two clusters 1000 m apart.
  std::vector<Position> pos{{0, 0}, {10, 0}, {1000, 0}, {1010, 0}};
  const RoutingTable r{ConnectivityGraph(pos, 50.0)};
  EXPECT_EQ(r.hops(0, 2), -1);
  EXPECT_EQ(r.next_hop(0, 2), kInvalidNode);
  EXPECT_FALSE(r.reachable(0, 3));
  EXPECT_TRUE(r.reachable(0, 1));
}

TEST(Routing, DeterministicTieBreaking) {
  const auto g = Topology::grid(6, 200.0, 0);
  const RoutingTable a{ConnectivityGraph(g.positions, 40.0)};
  const RoutingTable b{ConnectivityGraph(g.positions, 40.0)};
  for (NodeId from = 0; from < 36; ++from)
    EXPECT_EQ(a.next_hop(from, 0), b.next_hop(from, 0));
}

}  // namespace
}  // namespace bcp::net
