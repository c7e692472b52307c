// Static shortest-path routing over one radio's connectivity graph.
//
// §4.1: "To decouple the routing effects on performance, two separate trees
// that go over sensor and IEEE 802.11 radios are built." Two providers sit
// behind the `Router` interface the node assemblies consume:
//
//   RoutingTable       — dense all-pairs BFS next-hop/hop tables (n×n
//                        memory, one BFS per destination). Fine for the
//                        36-node paper grid and the small-n tests; O(n²)
//                        memory rules it out at scale.
//   ConvergecastRouting — the sink-rooted tree the paper actually
//                        describes: a single BFS from the sink, O(n + e)
//                        time and O(n) memory. Scenarios route every data
//                        packet to the sink, so this is what they use.
//                        Under churn it repairs itself in place from the
//                        LinkState change log, in time proportional to
//                        the part of the tree that changed.
//
// Both break shortest-path ties identically: among equal-hop parents
// prefer the one geometrically closer to the destination, then the lower
// node id — so ConvergecastRouting is exactly the next_hop(·, sink) slice
// of RoutingTable, a property the tests assert.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/link_state.hpp"
#include "net/topology.hpp"

namespace bcp::net {

/// How DynamicRouting scores paths.
///
///   kShortestPath  — hop count only; the historical behaviour, and the
///                    default every golden export pins byte-for-byte.
///   kLifetimeAware — hop count plus a per-relay cost from NodeCostFn
///                    (battery fraction drawn), so convergecast routes
///                    bend around nearly-depleted relays. Convergecast
///                    only: the tree is rebuilt cost-weighted from
///                    scratch on every LinkState revision move (costs
///                    drift globally, so there is nothing to repair).
enum class RoutePolicy : std::uint8_t { kShortestPath, kLifetimeAware };

const char* to_string(RoutePolicy p);

/// Per-node relay cost (>= 0), folded into edge weights as
/// 1 + cost(relay) for the hop *into* `relay` (the sink costs nothing to
/// enter — delivery into it is mandatory). Must be cheap: it is consulted
/// once per node per rebuild.
using NodeCostFn = std::function<double(NodeId)>;

/// Alive (node_up) nodes other than `root` with no LinkState-masked path
/// to it — the sink-partition predicate the battery-death metrics check.
/// Empty result = every surviving node still reaches `root`. If `root`
/// itself is down, every alive node is returned.
std::vector<NodeId> unreachable_alive(const ConnectivityGraph& graph,
                                      NodeId root, const LinkState& links);

/// Next-hop provider interface the node assemblies route through.
class Router {
 public:
  virtual ~Router() = default;

  /// First hop on a shortest path from `from` toward `to`.
  /// Returns `to` itself when adjacent, `from` when from == to, and
  /// kInvalidNode when unreachable.
  virtual NodeId next_hop(NodeId from, NodeId to) const = 0;

  /// Shortest-path hop count; 0 when from == to, -1 when unreachable.
  virtual int hops(NodeId from, NodeId to) const = 0;

  virtual int node_count() const = 0;

  bool reachable(NodeId from, NodeId to) const {
    return hops(from, to) >= 0;
  }
};

/// Dense all-pairs shortest-path tables. A non-null `links` masks the
/// graph: down nodes and down links are invisible to the BFS (the
/// fault/churn path); the tables are a snapshot of that instant.
class RoutingTable final : public Router {
 public:
  explicit RoutingTable(const ConnectivityGraph& graph,
                        const LinkState* links = nullptr);

  NodeId next_hop(NodeId from, NodeId to) const override;
  int hops(NodeId from, NodeId to) const override;
  int node_count() const override { return n_; }

  /// Mean hop count from every node (other than `to`) that can reach `to` —
  /// the "forward progress" statistic of §2.2.
  double mean_hops_to(NodeId to) const;

 private:
  int index(NodeId from, NodeId to) const;

  int n_;
  std::vector<NodeId> next_hop_;  // n*n, row = from, col = to
  std::vector<int> hops_;         // n*n
};

/// Sink-rooted shortest-path tree: one BFS from the sink, parent and
/// depth per node, O(n + e) construction and O(n) memory.
///
/// Routing toward the sink follows the shortest-path tree exactly (the
/// RoutingTable slice). Other destinations — the BCP control plane sends
/// wake-up acks *away* from the sink — are routed along tree paths: up
/// to the nearest common ancestor, then down (the downward branch is
/// `to`'s ancestor one level below `from`, found by climbing parents).
/// Tree paths to non-sink destinations may be longer than graph-shortest
/// paths; convergecast traffic never is.
class ConvergecastRouting final : public Router {
 public:
  /// A non-null `links` masks the graph exactly as in RoutingTable. A
  /// non-null `cost` switches the build from plain BFS to a Dijkstra over
  /// edge weights 1 + cost(next_hop) — the lifetime-aware tree; with
  /// `cost` null the build is the historical BFS, bit-for-bit.
  ConvergecastRouting(const ConnectivityGraph& graph, NodeId sink,
                      const LinkState* links = nullptr,
                      const NodeCostFn& cost = nullptr);

  /// Brings an unweighted tree built over `links` up to date with every
  /// change `links` logged since revision(), in place. The result is
  /// parent- and depth-identical to a fresh build over the same graph
  /// and links, because the parent rule reads only neighbour depths and
  /// link state:
  ///   * down changes invalidate only the nodes left with no up
  ///     neighbour one hop closer (unit-weight Ramalingam–Reps over the
  ///     old depths, in depth order);
  ///   * up changes and the invalidated nodes are re-seeded and relaxed
  ///     outward in depth order;
  ///   * parents are re-chosen only where a depth or a link changed.
  /// A kTouch entry, or a change to the sink itself, rebuilds in full.
  void repair(const ConnectivityGraph& graph, const LinkState& links);

  /// The LinkState revision this tree reflects (0 without links).
  std::uint64_t revision() const { return revision_; }

  NodeId sink() const { return sink_; }

  /// Next hop toward the sink (kInvalidNode when stranded; sink maps to
  /// itself).
  NodeId parent(NodeId from) const;

  /// Hops to the sink; -1 when stranded, 0 at the sink.
  int depth(NodeId from) const;

  /// Mean depth over all nodes (other than the sink) that reach it;
  /// requires at least one.
  double mean_depth() const;

  /// Nodes (other than the sink) with no path to it, ascending.
  std::vector<NodeId> stranded() const;

  // Router. next_hop/hops measure along tree paths; both endpoints must
  // be in the sink's component (else kInvalidNode / -1).
  NodeId next_hop(NodeId from, NodeId to) const override;
  int hops(NodeId from, NodeId to) const override;
  int node_count() const override {
    return static_cast<int>(parent_.size());
  }

 private:
  void build(const ConnectivityGraph& graph, const LinkState* links,
             const NodeCostFn& cost);

  NodeId sink_;
  bool weighted_;
  std::uint64_t revision_ = 0;
  std::vector<NodeId> parent_;
  std::vector<int> depth_;

  // repair() scratch, kept across repairs so a repair allocates nothing
  // once warm. mark_ is all zero between repairs; marked_ lists the nodes
  // to clear.
  std::vector<std::uint8_t> mark_;
  std::vector<NodeId> marked_;
  std::vector<std::pair<int, NodeId>> seeds_;  // (depth key, node)
  std::vector<std::pair<int, NodeId>> fifo_;
  std::vector<std::pair<NodeId, int>> moved_;  // (node, depth before)
  std::vector<NodeId> reparent_;
};

/// Fault-aware router over the LinkState-masked graph, refreshed only when
/// the LinkState's revision actually moved. The shortest-path convergecast
/// tree is repaired in place from the LinkState change log
/// (ConvergecastRouting::repair); the all-pairs tables and the
/// lifetime-aware tree are rebuilt from scratch. Queries between
/// membership changes are as cheap as the static providers; a
/// crash/recover burst that flips k nodes costs one refresh at the next
/// query, not k.
class DynamicRouting final : public Router {
 public:
  /// `graph` and `links` must outlive the router. `all_pairs` picks the
  /// dense-table strategy (small networks) over the convergecast tree.
  /// kLifetimeAware requires a non-null `cost` and always builds the
  /// cost-weighted convergecast tree (all_pairs is ignored): lifetime
  /// objectives are sink-centric, and the dense tables have no weighted
  /// form.
  DynamicRouting(const ConnectivityGraph& graph, NodeId sink,
                 const LinkState& links, bool all_pairs,
                 RoutePolicy policy = RoutePolicy::kShortestPath,
                 NodeCostFn cost = nullptr);

  NodeId next_hop(NodeId from, NodeId to) const override {
    return current().next_hop(from, to);
  }
  int hops(NodeId from, NodeId to) const override {
    return current().hops(from, to);
  }
  int node_count() const override { return graph_.node_count(); }

  /// Refreshes (builds or repairs) performed so far: 1 after the first
  /// query, +1 per revision move that a later query observed.
  std::int64_t rebuild_count() const { return rebuilds_; }

 private:
  const Router& current() const;

  const ConnectivityGraph& graph_;
  NodeId sink_;
  const LinkState& links_;
  bool all_pairs_;
  RoutePolicy policy_;
  NodeCostFn cost_;
  // Lazy cache: queries are logically const; the refresh is bookkeeping.
  // tree_ serves kShortestPath convergecast; impl_ everything else.
  mutable std::unique_ptr<ConvergecastRouting> tree_;
  mutable std::unique_ptr<Router> impl_;
  mutable std::uint64_t built_revision_ = 0;
  mutable std::int64_t rebuilds_ = 0;
};

}  // namespace bcp::net
