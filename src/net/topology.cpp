#include "net/topology.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::net {

util::Metres distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// ------------------------------------------------------------- Topology --

const Position& Topology::position(NodeId id) const {
  BCP_REQUIRE(id >= 0 && id < node_count());
  return positions[static_cast<std::size_t>(id)];
}

namespace {

/// RNG stream for placement draws, salted away from every traffic stream.
util::Xoshiro256 placement_rng(std::uint64_t seed) {
  return util::Xoshiro256(util::substream(seed, 0, /*salt=*/0x544F504Fu));
}

/// Deterministic standard normal via Box–Muller (std::normal_distribution
/// is implementation-defined, which would break byte-identical placement
/// across standard libraries).
double standard_normal(util::Xoshiro256& rng) {
  // uniform() is in [0, 1); shift off zero for the log.
  const double u1 = 1.0 - rng.uniform();
  const double u2 = rng.uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.141592653589793238462643383279502884 * u2);
}

}  // namespace

Topology Topology::grid(int side, util::Metres area, NodeId sink) {
  BCP_REQUIRE(side >= 1);
  BCP_REQUIRE(area > 0);
  BCP_REQUIRE(sink >= 0 && sink < side * side);
  const util::Metres spacing = side > 1 ? area / (side - 1) : 0.0;
  Topology t;
  t.name = "grid";
  t.sink = sink;
  t.positions.reserve(static_cast<std::size_t>(side) *
                      static_cast<std::size_t>(side));
  for (int row = 0; row < side; ++row)
    for (int col = 0; col < side; ++col)
      t.positions.push_back(Position{col * spacing, row * spacing});
  return t;
}

Topology Topology::uniform_random(int n, util::Metres area,
                                  std::uint64_t seed) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(area > 0);
  util::Xoshiro256 rng = placement_rng(seed);
  Topology t;
  t.name = "rand";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, area);
    const double y = rng.uniform(0.0, area);
    t.positions.push_back(Position{x, y});
  }
  return t;
}

Topology Topology::gaussian_clusters(int n, util::Metres area, int clusters,
                                     util::Metres spread,
                                     std::uint64_t seed) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(area > 0);
  BCP_REQUIRE(clusters >= 1);
  BCP_REQUIRE(spread > 0);
  util::Xoshiro256 rng = placement_rng(seed);
  std::vector<Position> centres;
  centres.reserve(static_cast<std::size_t>(clusters));
  // Keep centres a spread away from the boundary when the square allows.
  const double margin = std::min(spread, area / 2.0);
  for (int c = 0; c < clusters; ++c) {
    const double x = rng.uniform(margin, area - margin);
    const double y = rng.uniform(margin, area - margin);
    centres.push_back(Position{x, y});
  }
  Topology t;
  t.name = "cluster";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  // Node 0 — the sink — sits exactly on the first centre (the "base
  // station at the first cluster" convention).
  t.positions.push_back(centres.front());
  for (int i = 1; i < n; ++i) {
    const Position& c =
        centres[static_cast<std::size_t>(i % clusters)];
    const double x =
        std::clamp(c.x + spread * standard_normal(rng), 0.0, area);
    const double y =
        std::clamp(c.y + spread * standard_normal(rng), 0.0, area);
    t.positions.push_back(Position{x, y});
  }
  return t;
}

Topology Topology::line_corridor(int n, util::Metres length,
                                 util::Metres width, std::uint64_t seed) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(length > 0);
  BCP_REQUIRE(width > 0);
  util::Xoshiro256 rng = placement_rng(seed);
  const util::Metres spacing = n > 1 ? length / (n - 1) : 0.0;
  Topology t;
  t.name = "line";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  // The sink guards the corridor mouth at mid-width; the rest keep their
  // lattice x (so a spacing <= range guarantees a connected chain) with
  // uniform lateral jitter.
  t.positions.push_back(Position{0.0, width / 2.0});
  for (int i = 1; i < n; ++i) {
    const double y = rng.uniform(0.0, width);
    t.positions.push_back(Position{i * spacing, y});
  }
  return t;
}

Topology Topology::ring(int n, util::Metres radius) {
  BCP_REQUIRE(n >= 1);
  BCP_REQUIRE(radius > 0);
  Topology t;
  t.name = "ring";
  t.sink = 0;
  t.positions.reserve(static_cast<std::size_t>(n));
  const double tau = 2.0 * 3.141592653589793238462643383279502884;
  for (int i = 0; i < n; ++i) {
    const double angle = tau * i / n;
    t.positions.push_back(Position{radius + radius * std::cos(angle),
                                   radius + radius * std::sin(angle)});
  }
  return t;
}

// --------------------------------------------------------- TopologySpec --

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kGrid:             return "grid";
    case TopologyKind::kUniformRandom:    return "rand";
    case TopologyKind::kGaussianClusters: return "cluster";
    case TopologyKind::kLineCorridor:     return "line";
    case TopologyKind::kRing:             return "ring";
  }
  return "?";
}

Topology TopologySpec::build() const {
  switch (kind) {
    case TopologyKind::kGrid:
      return Topology::grid(grid_side, area, sink);
    case TopologyKind::kUniformRandom:
      return Topology::uniform_random(nodes, area, seed);
    case TopologyKind::kGaussianClusters:
      return Topology::gaussian_clusters(nodes, area, clusters,
                                         cluster_spread, seed);
    case TopologyKind::kLineCorridor:
      return Topology::line_corridor(nodes, area, corridor_width, seed);
    case TopologyKind::kRing:
      return Topology::ring(nodes, area / 2.0);
  }
  BCP_REQUIRE_MSG(false, "unknown topology kind");
  throw std::logic_error("unreachable");
}

TopologySpec first_connected(TopologySpec spec, util::Metres range,
                             int max_tries) {
  BCP_REQUIRE(range > 0);
  BCP_REQUIRE(max_tries >= 1);
  for (int attempt = 0; attempt < max_tries; ++attempt) {
    const Topology topo = spec.build();
    const ConnectivityGraph graph(topo.positions, range);
    if (unreachable_from(graph, topo.sink).empty()) return spec;
    ++spec.seed;
  }
  BCP_REQUIRE_MSG(false,
                  std::string("no sink-connected ") + to_string(spec.kind) +
                      " placement of " + std::to_string(spec.node_count()) +
                      " nodes at range " + std::to_string(range) +
                      " m within " + std::to_string(max_tries) + " seeds");
  throw std::logic_error("unreachable");
}

// ------------------------------------------------------------- CellGrid --

CellGrid CellGrid::covering(const std::vector<Position>& positions,
                            util::Metres range) {
  BCP_REQUIRE(range > 0);
  CellGrid grid;
  grid.side = range;
  if (positions.empty()) return grid;
  double max_x = positions.front().x;
  double max_y = positions.front().y;
  grid.min_x = max_x;
  grid.min_y = max_y;
  for (const Position& p : positions) {
    BCP_REQUIRE_MSG(std::isfinite(p.x) && std::isfinite(p.y),
                    "node position is not finite");
    grid.min_x = std::min(grid.min_x, p.x);
    grid.min_y = std::min(grid.min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double span_x = max_x - grid.min_x;
  const double span_y = max_y - grid.min_y;
  BCP_REQUIRE_MSG(std::isfinite(span_x) && std::isfinite(span_y),
                  "placement span is not finite");
  // The 2^-16 margin keeps a link of exactly `range` within one cell
  // boundary per axis: the rounding of (x - min_x) / side is far below it
  // for any cell count a 32-bit node id allows.
  const auto count = [](double span, double side) {
    return std::floor(span / side) + 1.0;
  };
  const double limit =
      2.0 * static_cast<double>(std::max<std::size_t>(positions.size(), 1));
  double side = range * (1.0 + 0x1p-16);
  while (count(span_x, side) * count(span_y, side) > limit) side *= 2.0;
  grid.side = side;
  grid.cols = static_cast<std::size_t>(count(span_x, side));
  grid.rows = static_cast<std::size_t>(count(span_y, side));
  return grid;
}

std::size_t CellGrid::cell_of(const Position& p) const {
  const auto col =
      std::min(cols - 1, static_cast<std::size_t>((p.x - min_x) / side));
  const auto row =
      std::min(rows - 1, static_cast<std::size_t>((p.y - min_y) / side));
  return row * cols + col;
}

// ---------------------------------------------------- ConnectivityGraph --

ConnectivityGraph::ConnectivityGraph(std::vector<Position> positions,
                                     util::Metres range)
    : positions_(std::move(positions)), range_(range) {
  BCP_REQUIRE(range > 0);
  const std::size_t n = positions_.size();
  const CellGrid grid = CellGrid::covering(positions_, range_);

  // Counting sort into the flat cell array, row-major: cell c's members
  // are members[start[c], start[c + 1]), ascending by id (filled
  // back to front in descending id order).
  std::vector<std::uint32_t> cell_of(n);
  std::vector<std::uint32_t> start(grid.cells() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell_of[i] = static_cast<std::uint32_t>(grid.cell_of(positions_[i]));
    ++start[cell_of[i]];
  }
  for (std::size_t c = 1; c < grid.cells(); ++c) start[c] += start[c - 1];
  start[grid.cells()] = static_cast<std::uint32_t>(n);
  std::vector<NodeId> members(n);
  for (std::size_t i = n; i-- > 0;)
    members[--start[cell_of[i]]] = static_cast<NodeId>(i);

  // Any link spans at most one cell boundary per axis, so node i only
  // tests its 3×3 block — three runs of adjacent cells, one per row.
  std::vector<NodeId> found;
  offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Position& p = positions_[i];
    const std::size_t cx = cell_of[i] % grid.cols;
    const std::size_t cy = cell_of[i] / grid.cols;
    const std::size_t x_lo = cx > 0 ? cx - 1 : 0;
    const std::size_t x_hi = std::min(cx + 1, grid.cols - 1);
    const std::size_t y_lo = cy > 0 ? cy - 1 : 0;
    const std::size_t y_hi = std::min(cy + 1, grid.rows - 1);
    const std::size_t first = found.size();
    for (std::size_t y = y_lo; y <= y_hi; ++y) {
      const std::size_t row = y * grid.cols;
      for (std::uint32_t k = start[row + x_lo]; k < start[row + x_hi + 1];
           ++k) {
        const NodeId b = members[k];
        if (static_cast<std::size_t>(b) != i &&
            distance(p, positions_[static_cast<std::size_t>(b)]) <= range_)
          found.push_back(b);
      }
    }
    std::sort(found.begin() + static_cast<std::ptrdiff_t>(first),
              found.end());
    offsets_[i + 1] = found.size();
  }
  // Exactly 2E ids, no growth slack.
  adjacency_.assign(found.begin(), found.end());
}

ConnectivityGraph::Neighbors ConnectivityGraph::neighbors(NodeId id) const {
  BCP_REQUIRE(id >= 0 && id < node_count());
  const NodeId* base = adjacency_.data();
  return Neighbors(base + offsets_[static_cast<std::size_t>(id)],
                   base + offsets_[static_cast<std::size_t>(id) + 1]);
}

bool ConnectivityGraph::connected(NodeId a, NodeId b) const {
  BCP_REQUIRE(a >= 0 && a < node_count());
  BCP_REQUIRE(b >= 0 && b < node_count());
  if (a == b) return false;
  return distance(positions_[static_cast<std::size_t>(a)],
                  positions_[static_cast<std::size_t>(b)]) <= range_;
}

const Position& ConnectivityGraph::position(NodeId id) const {
  BCP_REQUIRE(id >= 0 && id < node_count());
  return positions_[static_cast<std::size_t>(id)];
}

// ------------------------------------------------- connectivity queries --

std::vector<int> connected_components(const ConnectivityGraph& graph) {
  const int n = graph.node_count();
  std::vector<int> label(static_cast<std::size_t>(n), -1);
  int next = 0;
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(n));
  for (NodeId start = 0; start < n; ++start) {
    if (label[static_cast<std::size_t>(start)] >= 0) continue;
    label[static_cast<std::size_t>(start)] = next;
    queue.assign(1, start);
    for (std::size_t head = 0; head < queue.size(); ++head)
      for (const NodeId v : graph.neighbors(queue[head])) {
        if (label[static_cast<std::size_t>(v)] >= 0) continue;
        label[static_cast<std::size_t>(v)] = next;
        queue.push_back(v);
      }
    ++next;
  }
  return label;
}

std::vector<NodeId> unreachable_from(const ConnectivityGraph& graph,
                                     NodeId root) {
  BCP_REQUIRE(root >= 0 && root < graph.node_count());
  const auto n = static_cast<std::size_t>(graph.node_count());
  std::vector<std::uint8_t> reached(n, 0);
  std::vector<NodeId> queue;
  queue.reserve(n);
  reached[static_cast<std::size_t>(root)] = 1;
  queue.push_back(root);
  for (std::size_t head = 0; head < queue.size(); ++head)
    for (const NodeId v : graph.neighbors(queue[head])) {
      if (reached[static_cast<std::size_t>(v)]) continue;
      reached[static_cast<std::size_t>(v)] = 1;
      queue.push_back(v);
    }
  std::vector<NodeId> out;
  out.reserve(n - queue.size());
  for (std::size_t id = 0; id < n; ++id)
    if (!reached[id]) out.push_back(static_cast<NodeId>(id));
  return out;
}

std::string format_node_list(const std::vector<NodeId>& nodes,
                             std::size_t max_listed) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size() && i < max_listed; ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(nodes[i]);
  }
  if (nodes.size() > max_listed)
    out += ", ... (" + std::to_string(nodes.size() - max_listed) + " more)";
  out += "]";
  return out;
}

}  // namespace bcp::net
