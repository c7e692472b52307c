// Unit + property tests for the topology subsystem: generator
// determinism, CSR cell-array neighbour discovery vs the brute-force
// pairwise reference (every generator and degenerate placements), the CSR
// storage shape, component/stranded reporting, convergecast routing vs
// the all-pairs table, and tree point-to-point routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace bcp::net {
namespace {

std::vector<Topology> all_generated(std::uint64_t seed) {
  return {Topology::grid(6, 200.0, 0),
          Topology::uniform_random(40, 200.0, seed),
          Topology::gaussian_clusters(40, 200.0, 4, 25.0, seed),
          Topology::line_corridor(40, 200.0, 20.0, seed),
          Topology::ring(40, 100.0)};
}

TEST(TopologyGenerators, SameSeedIsByteIdentical) {
  const auto a = all_generated(42);
  const auto b = all_generated(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    SCOPED_TRACE(a[t].name);
    ASSERT_EQ(a[t].node_count(), b[t].node_count());
    EXPECT_EQ(a[t].sink, b[t].sink);
    for (int i = 0; i < a[t].node_count(); ++i) {
      // Bit-exact, not approximately equal.
      EXPECT_EQ(a[t].position(i).x, b[t].position(i).x);
      EXPECT_EQ(a[t].position(i).y, b[t].position(i).y);
    }
  }
}

TEST(TopologyGenerators, DifferentSeedsDiffer) {
  const auto a = Topology::uniform_random(40, 200.0, 1);
  const auto b = Topology::uniform_random(40, 200.0, 2);
  bool any_differ = false;
  for (int i = 0; i < 40; ++i)
    any_differ |= a.position(i).x != b.position(i).x;
  EXPECT_TRUE(any_differ);
}

TEST(TopologyGenerators, GeometryInvariants) {
  // Every generator stays within its bounding box and owns node 0 as sink.
  for (const auto& t : all_generated(7)) {
    SCOPED_TRACE(t.name);
    EXPECT_EQ(t.sink, 0);
    for (int i = 0; i < t.node_count(); ++i) {
      EXPECT_GE(t.position(i).x, 0.0);
      EXPECT_GE(t.position(i).y, 0.0);
    }
  }
  // Ring: all nodes exactly on the circle.
  const auto ring = Topology::ring(24, 100.0);
  for (int i = 0; i < 24; ++i) {
    const double r = distance(ring.position(i), Position{100.0, 100.0});
    EXPECT_NEAR(r, 100.0, 1e-9);
  }
  // Line corridor: lattice x positions, jitter only across the width.
  const auto line = Topology::line_corridor(21, 200.0, 20.0, 3);
  for (int i = 0; i < 21; ++i) {
    EXPECT_DOUBLE_EQ(line.position(i).x, i * 10.0);
    EXPECT_LE(line.position(i).y, 20.0);
  }
  // Clusters: clamped into the square, sink on the first centre.
  const auto cluster = Topology::gaussian_clusters(50, 200.0, 4, 25.0, 9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(cluster.position(i).x, 200.0);
    EXPECT_LE(cluster.position(i).y, 200.0);
  }
}

TEST(TopologySpec, BuildDispatchesAndCounts) {
  TopologySpec spec;
  EXPECT_EQ(spec.node_count(), 36);  // default: the paper grid
  EXPECT_EQ(spec.build().name, "grid");
  EXPECT_EQ(spec.build().node_count(), 36);

  spec.kind = TopologyKind::kUniformRandom;
  spec.nodes = 50;
  EXPECT_EQ(spec.node_count(), 50);
  EXPECT_EQ(spec.build().name, "rand");
  EXPECT_EQ(spec.build().node_count(), 50);

  for (const auto kind :
       {TopologyKind::kGaussianClusters, TopologyKind::kLineCorridor,
        TopologyKind::kRing}) {
    spec.kind = kind;
    EXPECT_EQ(spec.build().name, to_string(kind));
    EXPECT_EQ(spec.build().node_count(), 50);
  }
}

std::vector<NodeId> as_vector(ConnectivityGraph::Neighbors nbrs) {
  return std::vector<NodeId>(nbrs.begin(), nbrs.end());
}

/// Brute-force reference: the ascending pairwise scan, per node.
std::vector<std::vector<NodeId>> pairwise_neighbors(
    const std::vector<Position>& pos, double range) {
  std::vector<std::vector<NodeId>> out(pos.size());
  for (std::size_t a = 0; a < pos.size(); ++a)
    for (std::size_t b = 0; b < pos.size(); ++b)
      if (b != a && distance(pos[a], pos[b]) <= range)
        out[a].push_back(static_cast<NodeId>(b));
  return out;
}

void expect_pairwise(const std::vector<Position>& pos, double range) {
  const ConnectivityGraph g(pos, range);
  const auto expect = pairwise_neighbors(pos, range);
  ASSERT_EQ(g.node_count(), static_cast<int>(pos.size()));
  for (NodeId a = 0; a < g.node_count(); ++a)
    ASSERT_EQ(as_vector(g.neighbors(a)),
              expect[static_cast<std::size_t>(a)])
        << "node " << a << " range " << range;
}

TEST(SpatialHash, NeighborsMatchBruteForceOnRandomPlacements) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    for (const double range : {15.0, 40.0, 75.0, 300.0}) {
      const auto t = Topology::uniform_random(120, 200.0, seed);
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_pairwise(t.positions, range);
    }
  }
}

TEST(SpatialHash, NeighborsMatchBruteForceForEveryGenerator) {
  const std::vector<Topology> placements = {
      Topology::grid(12, 200.0, 0),
      Topology::uniform_random(150, 200.0, 7),
      Topology::gaussian_clusters(150, 200.0, 4, 25.0, 7),
      Topology::line_corridor(150, 600.0, 20.0, 7),
      Topology::ring(150, 100.0)};
  for (const Topology& t : placements)
    for (const double range : {15.0, 40.0, 75.0, 300.0}) {
      SCOPED_TRACE(t.name);
      expect_pairwise(t.positions, range);
    }
}

TEST(SpatialHash, HandlesCoincidentAndNegativeFreePositions) {
  // Duplicate positions are mutual neighbours at distance 0.
  const std::vector<Position> pos{{10, 10}, {10, 10}, {100, 100}};
  const ConnectivityGraph g(pos, 5.0);
  EXPECT_EQ(as_vector(g.neighbors(0)), std::vector<NodeId>{1});
  EXPECT_EQ(as_vector(g.neighbors(1)), std::vector<NodeId>{0});
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(SpatialHash, DegeneratePlacementsMatchBruteForce) {
  // A single node: no links, one cell.
  const ConnectivityGraph single({{3, 4}}, 10.0);
  EXPECT_TRUE(single.neighbors(0).empty());
  EXPECT_EQ(CellGrid::covering({{3, 4}}, 10.0).cells(), 1u);

  // All nodes coincident: the complete graph from one cell.
  expect_pairwise(std::vector<Position>(20, Position{7.5, -2.0}), 1.0);

  // A collinear row, denser than the range and exactly at it.
  std::vector<Position> row;
  for (int i = 0; i < 50; ++i) row.push_back({i * 10.0, 5.0});
  for (const double range : {5.0, 10.0, 25.0, 1000.0})
    expect_pairwise(row, range);

  // Negative coordinates on both axes, straddling the origin.
  std::vector<Position> negative;
  for (int i = 0; i < 60; ++i)
    negative.push_back({-300.0 + 11.0 * i, -150.0 + 7.0 * (i % 9)});
  for (const double range : {7.0, 11.0, 40.0}) expect_pairwise(negative, range);

  // Lattices exactly one range apart, so every link has length == range
  // and sits on a cell edge — with an exactly representable spacing and
  // with spacings that round (0.1 and 0.3 are not binary fractions),
  // including an origin offset that puts nodes off the cell anchor.
  for (const double spacing : {40.0, 0.1, 0.3, 1e-3})
    for (const double origin : {0.0, -17.3, 0.05}) {
      std::vector<Position> lattice;
      for (int r = 0; r < 9; ++r)
        for (int c = 0; c < 9; ++c)
          lattice.push_back({origin + c * spacing, origin + r * spacing});
      SCOPED_TRACE("spacing " + std::to_string(spacing));
      expect_pairwise(lattice, spacing);
    }
}

TEST(SpatialHash, FarOutlierKeepsTheCellArrayLinear) {
  // One node 1e9 m away: cells one range wide would need ~6e14 of them.
  // The cell side widens instead, so the array stays within 2n cells.
  std::vector<Position> pos = Topology::uniform_random(200, 200.0, 3).positions;
  pos.push_back({1e9, 1e9});
  const CellGrid grid = CellGrid::covering(pos, 40.0);
  EXPECT_LE(grid.cells(), 2 * pos.size());
  EXPECT_GE(grid.side, 40.0);
  expect_pairwise(pos, 40.0);
  const ConnectivityGraph g(pos, 40.0);
  EXPECT_TRUE(g.neighbors(200).empty());
}

TEST(SpatialHash, UniformPlacementsKeepCellsOneRangeWide) {
  // The 316×316 grid of the scale benchmark: one cell per node column.
  const auto t = Topology::grid(316, 12600.0, 0);
  const CellGrid grid = CellGrid::covering(t.positions, 40.0);
  EXPECT_LT(grid.side, 40.01);
  EXPECT_LE(grid.cells(), 2 * t.positions.size());
}

TEST(SpatialHash, CsrStorageIsExactlyOffsetsAndTwoIdsPerEdge) {
  for (const double range : {15.0, 40.0, 300.0}) {
    const auto t = Topology::uniform_random(300, 400.0, 11);
    const ConnectivityGraph g(t.positions, range);
    std::size_t edges = 0;
    for (const auto& list : pairwise_neighbors(t.positions, range))
      edges += list.size();
    edges /= 2;
    EXPECT_EQ(g.offsets().size(), t.positions.size() + 1);
    EXPECT_EQ(g.offsets().front(), 0u);
    EXPECT_EQ(g.offsets().back(), 2 * edges);
    EXPECT_EQ(g.adjacency().size(), 2 * edges);
    EXPECT_EQ(g.adjacency().capacity(), 2 * edges);
    for (NodeId v = 0; v < g.node_count(); ++v)
      EXPECT_EQ(g.neighbors(v).begin(),
                g.adjacency().data() +
                    g.offsets()[static_cast<std::size_t>(v)]);
  }
}

TEST(Components, LabelsAndUnreachable) {
  // Two clusters 1000 m apart plus one isolated node.
  const std::vector<Position> pos{{0, 0},    {10, 0},   {1000, 0},
                                  {1010, 0}, {5000, 5000}};
  const ConnectivityGraph g(pos, 50.0);
  const std::vector<int> label = connected_components(g);
  EXPECT_EQ(label, (std::vector<int>{0, 0, 1, 1, 2}));
  EXPECT_EQ(unreachable_from(g, 0), (std::vector<NodeId>{2, 3, 4}));
  EXPECT_EQ(unreachable_from(g, 2), (std::vector<NodeId>{0, 1, 4}));
  const auto t = Topology::grid(4, 90.0, 0);
  EXPECT_TRUE(
      unreachable_from(ConnectivityGraph(t.positions, 30.0), 0).empty());
}

TEST(Components, FormatNodeListTruncates) {
  EXPECT_EQ(format_node_list({}), "[]");
  EXPECT_EQ(format_node_list({3, 17}), "[3, 17]");
  EXPECT_EQ(format_node_list({1, 2, 3, 4}, 2), "[1, 2, ... (2 more)]");
}

TEST(Convergecast, MatchesAllPairsSliceOnPaperGrid) {
  const auto t = Topology::grid(6, 200.0, 0);
  const ConnectivityGraph g(t.positions, 40.0);
  const RoutingTable table(g);
  const ConvergecastRouting tree(g, t.sink);
  for (NodeId from = 0; from < t.node_count(); ++from) {
    EXPECT_EQ(tree.parent(from), table.next_hop(from, t.sink)) << from;
    EXPECT_EQ(tree.depth(from), table.hops(from, t.sink)) << from;
    EXPECT_EQ(tree.next_hop(from, t.sink), table.next_hop(from, t.sink));
  }
  EXPECT_DOUBLE_EQ(tree.mean_depth(), table.mean_hops_to(t.sink));
  EXPECT_TRUE(tree.stranded().empty());
}

TEST(Convergecast, MatchesAllPairsSliceOnRandomPlacements) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const auto t = Topology::uniform_random(80, 200.0, seed);
    const ConnectivityGraph g(t.positions, 60.0);
    const RoutingTable table(g);
    const ConvergecastRouting tree(g, t.sink);
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (NodeId from = 0; from < t.node_count(); ++from) {
      EXPECT_EQ(tree.parent(from), table.next_hop(from, t.sink)) << from;
      EXPECT_EQ(tree.depth(from), table.hops(from, t.sink)) << from;
    }
  }
}

TEST(Convergecast, ReportsStrandedNodes) {
  const std::vector<Position> pos{{0, 0}, {10, 0}, {1000, 0}, {1010, 0}};
  const ConvergecastRouting tree{ConnectivityGraph(pos, 50.0), 0};
  EXPECT_EQ(tree.stranded(), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(tree.parent(2), kInvalidNode);
  EXPECT_EQ(tree.depth(2), -1);
  EXPECT_EQ(tree.next_hop(2, 0), kInvalidNode);
  EXPECT_EQ(tree.hops(2, 0), -1);
  EXPECT_EQ(tree.next_hop(0, 3), kInvalidNode);
}

TEST(Convergecast, TreeRoutesReachEveryPair) {
  // Point-to-point routing along the tree (the BCP control plane routes
  // wake-up acks away from the sink): following next_hop from any node
  // must reach any other in exactly hops() steps, without loops.
  const auto spec = first_connected(
      [] {
        TopologySpec s;
        s.kind = TopologyKind::kUniformRandom;
        s.nodes = 60;
        s.area = 150.0;
        return s;
      }(),
      40.0);
  const auto t = spec.build();
  const ConnectivityGraph g(t.positions, 40.0);
  const ConvergecastRouting tree(g, t.sink);
  ASSERT_TRUE(tree.stranded().empty());
  for (NodeId from = 0; from < t.node_count(); ++from)
    for (NodeId to = 0; to < t.node_count(); ++to) {
      NodeId cur = from;
      int steps = 0;
      while (cur != to) {
        const NodeId next = tree.next_hop(cur, to);
        ASSERT_NE(next, kInvalidNode) << from << "->" << to;
        // Every tree hop is a physical link.
        ASSERT_TRUE(next == cur || g.connected(cur, next));
        cur = next;
        ASSERT_LE(++steps, t.node_count()) << "loop " << from << "->" << to;
      }
      EXPECT_EQ(steps, tree.hops(from, to)) << from << "->" << to;
    }
}

// FNV-1a over next_hop and hops for every (from, to) pair: the tree's
// answers in both directions, toward and away from the sink.
std::uint64_t all_pairs_digest(const ConvergecastRouting& tree) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for (NodeId from = 0; from < tree.node_count(); ++from)
    for (NodeId to = 0; to < tree.node_count(); ++to) {
      mix(tree.next_hop(from, to));
      mix(tree.hops(from, to));
    }
  return h;
}

TEST(Convergecast, PointToPointAnswersArePinned) {
  // The digests were taken from the subtree-interval (Euler-tour)
  // implementation of next_hop; any rewrite must reproduce them. The
  // random placement strands some nodes, so the kInvalidNode / -1 answers
  // are pinned too.
  const auto grid = Topology::grid(6, 200.0, 0);
  const ConvergecastRouting paper(ConnectivityGraph(grid.positions, 40.0),
                                  grid.sink);
  const auto random = Topology::uniform_random(200, 300.0, 5);
  const ConvergecastRouting scattered(
      ConnectivityGraph(random.positions, 35.0), random.sink);
  ASSERT_FALSE(scattered.stranded().empty());
  EXPECT_EQ(all_pairs_digest(paper), 0xf3bf1798e2406143ull);
  EXPECT_EQ(all_pairs_digest(scattered), 0x4a0e325744582c21ull);
}

TEST(Convergecast, SinkIdentityMatchesRoutingTableConventions) {
  const auto t = Topology::grid(3, 80.0, 4);
  const ConnectivityGraph g(t.positions, 40.0);
  const ConvergecastRouting tree(g, 4);
  EXPECT_EQ(tree.sink(), 4);
  EXPECT_EQ(tree.next_hop(4, 4), 4);
  EXPECT_EQ(tree.hops(4, 4), 0);
  EXPECT_EQ(tree.parent(4), 4);
  EXPECT_EQ(tree.depth(4), 0);
}

TEST(FirstConnected, DeterministicAndConnected) {
  TopologySpec spec;
  spec.kind = TopologyKind::kUniformRandom;
  spec.nodes = 36;
  spec.area = 200.0;
  spec.seed = 1;
  const TopologySpec a = first_connected(spec, 40.0);
  const TopologySpec b = first_connected(spec, 40.0);
  EXPECT_EQ(a.seed, b.seed);
  const auto t = a.build();
  EXPECT_TRUE(
      unreachable_from(ConnectivityGraph(t.positions, 40.0), t.sink)
          .empty());
  // A spec that is already connected is returned unchanged.
  TopologySpec grid_spec;
  EXPECT_EQ(first_connected(grid_spec, 40.0).seed, grid_spec.seed);
}

TEST(FirstConnected, ThrowsWhenNoSeedWorks) {
  TopologySpec spec;
  spec.kind = TopologyKind::kUniformRandom;
  spec.nodes = 8;
  spec.area = 100000.0;  // 8 nodes over 100 km: never 40 m-connected
  EXPECT_THROW(first_connected(spec, 40.0, 5), std::invalid_argument);
}

}  // namespace
}  // namespace bcp::net
