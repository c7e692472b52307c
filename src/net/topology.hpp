// Node placement and connectivity.
//
// The paper's §4.1 study runs on one placement — "a 200×200 m^2 grid
// network with 36 nodes", a 6×6 grid with 40 m spacing equal to the
// sensor-radio range, so sensor connectivity is the 4-neighbour grid and
// routes are Manhattan paths (mean depth ≈ 5 hops to a corner sink,
// matching the 5-hop linear example in §2.2). That placement is
// `Topology::grid(6, 200.0, 0)`.
//
// Everything downstream of placement (channels, routing, scenarios,
// benches) consumes the `Topology` value type, so the grid is just one of
// several deterministic seeded generators:
//
//   grid              — the paper's square lattice (unchanged numerically);
//   uniform_random    — n nodes i.i.d. uniform over the square;
//   gaussian_clusters — cluster centres uniform, members normal around
//                       them (village/field deployments);
//   line_corridor     — evenly spaced along a corridor with lateral
//                       jitter (pipeline / road-side networks, cf. the
//                       1-D broadcasting literature);
//   ring              — evenly spaced on a circle (perimeter monitoring).
//
// Generators are pure functions of their arguments: the same seed yields
// byte-identical positions, which the reproducibility tests rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "util/units.hpp"

namespace bcp::net {

struct Position {
  util::Metres x = 0;
  util::Metres y = 0;
};

util::Metres distance(const Position& a, const Position& b);

/// A node placement: positions, a designated sink, and a short name used
/// in bench metadata ("grid", "rand", ...).
struct Topology {
  std::string name;
  NodeId sink = 0;
  std::vector<Position> positions;

  int node_count() const { return static_cast<int>(positions.size()); }
  const Position& position(NodeId id) const;

  /// `side`×`side` lattice over an `area`-metre square (spacing =
  /// area/(side-1)), row-major from the origin; `sink` must be a valid
  /// node index.
  static Topology grid(int side, util::Metres area, NodeId sink);

  /// n nodes i.i.d. uniform over the `area` square; node 0 is the sink
  /// (drawn like the rest).
  static Topology uniform_random(int n, util::Metres area,
                                 std::uint64_t seed);

  /// `clusters` centres uniform over the square, node i normal
  /// (stddev = `spread`, clamped to the square) around centre i mod
  /// clusters. Node 0 sits exactly on the first centre and is the sink.
  static Topology gaussian_clusters(int n, util::Metres area, int clusters,
                                    util::Metres spread, std::uint64_t seed);

  /// n nodes spaced length/(n-1) apart along a corridor, each jittered
  /// uniformly across its `width`; node 0 is the sink at the corridor
  /// mouth (x = 0, mid-width).
  static Topology line_corridor(int n, util::Metres length,
                                util::Metres width, std::uint64_t seed);

  /// n nodes evenly spaced on a circle of the given radius centred at
  /// (radius, radius); node 0 is the sink at angle 0.
  static Topology ring(int n, util::Metres radius);
};

/// Which generator a TopologySpec names.
enum class TopologyKind {
  kGrid,
  kUniformRandom,
  kGaussianClusters,
  kLineCorridor,
  kRing,
};

const char* to_string(TopologyKind kind);

/// A declarative placement recipe — the form scenario configs and sweep
/// axes carry. `build()` dispatches to the Topology generators; the
/// placement `seed` is deliberately separate from the scenario's traffic
/// seed, so replications re-roll traffic on a fixed placement.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kGrid;

  // kGrid: side×side lattice; every other generator places `nodes`.
  int grid_side = 6;
  int nodes = 36;

  /// Square side (grid/random/clusters), corridor length (line), or
  /// circle diameter (ring).
  util::Metres area = 200.0;

  // kLineCorridor / kGaussianClusters shape parameters.
  util::Metres corridor_width = 20.0;
  int clusters = 4;
  util::Metres cluster_spread = 25.0;

  /// kGrid only: which lattice index is the sink (generators fix node 0).
  NodeId sink = 0;

  /// Placement randomness (ignored by kGrid and kRing).
  std::uint64_t seed = 1;

  int node_count() const {
    return kind == TopologyKind::kGrid ? grid_side * grid_side : nodes;
  }

  Topology build() const;
};

/// Returns `spec` with its seed advanced to the first value, at most
/// `max_tries` ahead, whose disc graph at `range` reaches every node from
/// the sink; throws std::invalid_argument when none of the tried seeds
/// yields a connected placement. No-op for deterministic generators.
TopologySpec first_connected(TopologySpec spec, util::Metres range,
                             int max_tries = 128);

/// The flat cell array ConnectivityGraph buckets nodes into: `cols` ×
/// `rows` square cells of side `side` over the placement's bounding box,
/// anchored at its lower-left corner (`min_x`, `min_y`). The side starts a
/// hair above the link range (so a link spans at most one cell boundary
/// per axis even after floating-point rounding) and doubles until the
/// array has at most 2·max(n, 1) cells. A grid or any bounded-density
/// placement keeps cells one range wide; a far outlier only widens them,
/// so memory is O(n) for every placement.
struct CellGrid {
  double min_x = 0;
  double min_y = 0;
  double side = 0;
  std::size_t cols = 1;
  std::size_t rows = 1;

  static CellGrid covering(const std::vector<Position>& positions,
                           util::Metres range);

  std::size_t cells() const { return cols * rows; }
  /// Row-major index of the cell holding `p` (a position inside the box).
  std::size_t cell_of(const Position& p) const;
};

/// Undirected disc-model connectivity: a and b are linked iff
/// distance(a, b) <= range. Compressed sparse row (CSR) storage: one
/// offsets array of n + 1 entries and one neighbour array of 2E ids, node
/// v's neighbours at [offsets()[v], offsets()[v + 1]). Each slice is
/// ascending (the order the original pairwise scan produced), so every
/// BFS and every per-hearer RNG draw walks links identically. Neighbours
/// are found through a CellGrid filled by a counting sort, each node
/// testing only its 3×3 cell block: O(n + E) for bounded-density
/// placements, with no hash map and no heap block per node or per cell.
class ConnectivityGraph {
 public:
  /// One node's neighbour ids, ascending: a read-only view into the CSR
  /// array, valid while the graph lives.
  class Neighbors {
   public:
    Neighbors(const NodeId* first, const NodeId* last)
        : first_(first), last_(last) {}
    const NodeId* begin() const { return first_; }
    const NodeId* end() const { return last_; }
    std::size_t size() const {
      return static_cast<std::size_t>(last_ - first_);
    }
    bool empty() const { return first_ == last_; }
    NodeId operator[](std::size_t i) const { return first_[i]; }

   private:
    const NodeId* first_;
    const NodeId* last_;
  };

  ConnectivityGraph(std::vector<Position> positions, util::Metres range);

  int node_count() const { return static_cast<int>(positions_.size()); }
  util::Metres range() const { return range_; }
  Neighbors neighbors(NodeId id) const;
  bool connected(NodeId a, NodeId b) const;
  const Position& position(NodeId id) const;

  /// The CSR arrays. Link (v, neighbors(v)[k]) is entry offsets()[v] + k
  /// of adjacency(), the index per-link tables share.
  const std::vector<std::size_t>& offsets() const { return offsets_; }
  const std::vector<NodeId>& adjacency() const { return adjacency_; }

 private:
  std::vector<Position> positions_;
  util::Metres range_;
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
};

/// Connected-component label per node (labels are 0-based, assigned in
/// order of each component's lowest node id; one BFS sweep, O(n + e)).
std::vector<int> connected_components(const ConnectivityGraph& graph);

/// Nodes with no path to `root`, ascending (empty iff the graph is
/// connected as seen from `root`). One BFS from the root, O(n + e).
std::vector<NodeId> unreachable_from(const ConnectivityGraph& graph,
                                     NodeId root);

/// Human-readable "[3, 17, 21, ...]" list of stranded nodes for error
/// messages; truncates after `max_listed` entries.
std::string format_node_list(const std::vector<NodeId>& nodes,
                             std::size_t max_listed = 16);

}  // namespace bcp::net
