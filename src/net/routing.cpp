#include "net/routing.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <utility>

#include "util/assert.hpp"

namespace bcp::net {

const char* to_string(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kShortestPath:  return "shortest-path";
    case RoutePolicy::kLifetimeAware: return "lifetime-aware";
  }
  return "?";
}

namespace {

/// BFS hop counts from `root` over the graph (-1 where unreachable). A
/// non-null `links` hides down nodes and down links from the traversal.
std::vector<int> bfs_distances(const ConnectivityGraph& graph, NodeId root,
                               const LinkState* links) {
  std::vector<int> dist(static_cast<std::size_t>(graph.node_count()), -1);
  if (links != nullptr && !links->node_up(root)) return dist;
  std::deque<NodeId> queue;
  dist[static_cast<std::size_t>(root)] = 0;
  queue.push_back(root);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const NodeId v : graph.neighbors(u)) {
      if (links != nullptr && !links->link_up(u, v)) continue;
      if (dist[static_cast<std::size_t>(v)] < 0) {
        dist[static_cast<std::size_t>(v)] =
            dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

/// The deterministic parent choice both providers share: among `from`'s
/// neighbours one hop closer to `to`, the one geometrically closest to
/// `to`, then the lowest id.
NodeId best_parent(const ConnectivityGraph& graph,
                   const std::vector<int>& dist, NodeId from, NodeId to,
                   const LinkState* links) {
  const int d = dist[static_cast<std::size_t>(from)];
  NodeId best = kInvalidNode;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const NodeId v : graph.neighbors(from)) {
    if (dist[static_cast<std::size_t>(v)] != d - 1) continue;
    if (links != nullptr && !links->link_up(from, v)) continue;
    const double dv = distance(graph.position(v), graph.position(to));
    if (best == kInvalidNode || dv < best_dist ||
        (dv == best_dist && v < best)) {
      best = v;
      best_dist = dv;
    }
  }
  return best;
}

/// Weight of the hop from anywhere into `v` on the way toward `root`:
/// one hop plus the relay cost of `v` (entering the root is mandatory and
/// costs only the hop).
double step_cost(NodeId v, NodeId root, const NodeCostFn& cost) {
  return 1.0 + (v == root ? 0.0 : cost(v));
}

/// Dijkstra from `root` over edge weights step_cost(next_hop): dist[u] is
/// the cheapest cost of a path u -> root (infinity where unreachable).
/// Deterministic: the heap breaks equal-cost pops by lower node id, and
/// the parent choice below re-applies the geometric/id preference.
std::vector<double> weighted_distances(const ConnectivityGraph& graph,
                                       NodeId root, const LinkState* links,
                                       const NodeCostFn& cost) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(graph.node_count()), inf);
  if (links != nullptr && !links->node_up(root)) return dist;
  using Entry = std::pair<double, NodeId>;  // (cost, node), min-heap
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  dist[static_cast<std::size_t>(root)] = 0.0;
  heap.emplace(0.0, root);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    // Every neighbour reaching the root through u pays the same step.
    const double step = step_cost(u, root, cost);
    for (const NodeId v : graph.neighbors(u)) {
      if (links != nullptr && !links->link_up(u, v)) continue;
      const double cand = d + step;
      if (cand < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = cand;
        heap.emplace(cand, v);
      }
    }
  }
  return dist;
}

/// best_parent's weighted twin: among `from`'s neighbours on a cheapest
/// path toward `root` (within a fixed tolerance, so float noise cannot
/// flip the choice), geometrically closest to `root`, then lowest id.
NodeId best_parent_weighted(const ConnectivityGraph& graph,
                            const std::vector<double>& dist, NodeId from,
                            NodeId root, const LinkState* links,
                            const NodeCostFn& cost) {
  const double d = dist[static_cast<std::size_t>(from)];
  NodeId best = kInvalidNode;
  double best_dist = std::numeric_limits<double>::infinity();
  for (const NodeId v : graph.neighbors(from)) {
    if (links != nullptr && !links->link_up(from, v)) continue;
    const double via =
        dist[static_cast<std::size_t>(v)] + step_cost(v, root, cost);
    if (via > d + 1e-9) continue;  // not on a cheapest path
    const double dv = distance(graph.position(v), graph.position(root));
    if (best == kInvalidNode || dv < best_dist ||
        (dv == best_dist && v < best)) {
      best = v;
      best_dist = dv;
    }
  }
  return best;
}

}  // namespace

std::vector<NodeId> unreachable_alive(const ConnectivityGraph& graph,
                                      NodeId root, const LinkState& links) {
  BCP_REQUIRE(root >= 0 && root < graph.node_count());
  const std::vector<int> dist = bfs_distances(graph, root, &links);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    if (v != root && links.node_up(v) && dist[static_cast<std::size_t>(v)] < 0)
      out.push_back(v);
  }
  return out;
}

// ------------------------------------------------------- RoutingTable --

RoutingTable::RoutingTable(const ConnectivityGraph& graph,
                           const LinkState* links)
    : n_(graph.node_count()),
      next_hop_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_),
                kInvalidNode),
      hops_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), -1) {
  // One BFS per destination, relaxing parents with the deterministic
  // (hops, distance-to-destination, id) preference order.
  for (NodeId to = 0; to < n_; ++to) {
    const std::vector<int> dist = bfs_distances(graph, to, links);
    for (NodeId from = 0; from < n_; ++from) {
      const int d = dist[static_cast<std::size_t>(from)];
      hops_[static_cast<std::size_t>(index(from, to))] = d;
      if (from == to) {
        next_hop_[static_cast<std::size_t>(index(from, to))] = from;
        continue;
      }
      if (d < 0) continue;  // unreachable
      const NodeId best = best_parent(graph, dist, from, to, links);
      BCP_ENSURE(best != kInvalidNode);
      next_hop_[static_cast<std::size_t>(index(from, to))] = best;
    }
  }
}

int RoutingTable::index(NodeId from, NodeId to) const {
  BCP_REQUIRE(from >= 0 && from < n_);
  BCP_REQUIRE(to >= 0 && to < n_);
  return from * n_ + to;
}

NodeId RoutingTable::next_hop(NodeId from, NodeId to) const {
  return next_hop_[static_cast<std::size_t>(index(from, to))];
}

int RoutingTable::hops(NodeId from, NodeId to) const {
  return hops_[static_cast<std::size_t>(index(from, to))];
}

double RoutingTable::mean_hops_to(NodeId to) const {
  double sum = 0;
  int count = 0;
  for (NodeId from = 0; from < n_; ++from) {
    if (from == to) continue;
    const int h = hops(from, to);
    if (h < 0) continue;
    sum += h;
    ++count;
  }
  BCP_REQUIRE_MSG(count > 0, "destination unreachable from every node");
  return sum / count;
}

// ------------------------------------------------ ConvergecastRouting --

ConvergecastRouting::ConvergecastRouting(const ConnectivityGraph& graph,
                                         NodeId sink,
                                         const LinkState* links,
                                         const NodeCostFn& cost)
    : sink_(sink), weighted_(cost != nullptr) {
  BCP_REQUIRE(sink >= 0 && sink < graph.node_count());
  build(graph, links, cost);
}

void ConvergecastRouting::build(const ConnectivityGraph& graph,
                                const LinkState* links,
                                const NodeCostFn& cost) {
  const int n = graph.node_count();
  const NodeId sink = sink_;
  revision_ = links == nullptr ? 0 : links->revision();
  parent_.assign(static_cast<std::size_t>(n), kInvalidNode);
  parent_[static_cast<std::size_t>(sink)] = sink;
  if (cost == nullptr) {
    depth_ = bfs_distances(graph, sink, links);
    for (NodeId from = 0; from < n; ++from) {
      if (from == sink || depth_[static_cast<std::size_t>(from)] < 0)
        continue;
      const NodeId best = best_parent(graph, depth_, from, sink, links);
      BCP_ENSURE(best != kInvalidNode);
      parent_[static_cast<std::size_t>(from)] = best;
    }
    return;
  }
  // Lifetime-aware tree: cheapest-cost parents, hop-count depths along
  // the chosen tree (depth_ stays a frame/slot currency for TDMA and
  // the mean-depth statistic even when the tree is weighted).
  const std::vector<double> wdist =
      weighted_distances(graph, sink, links, cost);
  for (NodeId from = 0; from < n; ++from) {
    if (from == sink ||
        wdist[static_cast<std::size_t>(from)] ==
            std::numeric_limits<double>::infinity())
      continue;
    const NodeId best =
        best_parent_weighted(graph, wdist, from, sink, links, cost);
    BCP_ENSURE(best != kInvalidNode);
    parent_[static_cast<std::size_t>(from)] = best;
  }
  // A parent is always strictly cheaper (every step weighs >= 1), so
  // filling depths in ascending cost order sees each parent first.
  depth_.assign(static_cast<std::size_t>(n), -1);
  depth_[static_cast<std::size_t>(sink)] = 0;
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    if (v != sink && parent_[static_cast<std::size_t>(v)] != kInvalidNode)
      order.push_back(v);
  std::sort(order.begin(), order.end(), [&wdist](NodeId a, NodeId b) {
    const double da = wdist[static_cast<std::size_t>(a)];
    const double db = wdist[static_cast<std::size_t>(b)];
    return da < db || (da == db && a < b);
  });
  for (const NodeId v : order) {
    const NodeId p = parent_[static_cast<std::size_t>(v)];
    BCP_ENSURE(depth_[static_cast<std::size_t>(p)] >= 0);
    depth_[static_cast<std::size_t>(v)] =
        depth_[static_cast<std::size_t>(p)] + 1;
  }
}

void ConvergecastRouting::repair(const ConnectivityGraph& graph,
                                 const LinkState& links) {
  using Kind = LinkChange::Kind;
  BCP_REQUIRE_MSG(!weighted_, "a cost-weighted tree can only be rebuilt");
  BCP_REQUIRE(graph.node_count() == node_count() &&
              links.node_count() == node_count());
  const std::vector<LinkChange>& log = links.changes();
  BCP_REQUIRE(revision_ <= log.size());
  const auto first = log.begin() + static_cast<std::ptrdiff_t>(revision_);
  const bool rebuild =
      std::any_of(first, log.end(), [this](const LinkChange& c) {
        return c.kind == Kind::kTouch ||
               ((c.kind == Kind::kNodeDown || c.kind == Kind::kNodeUp) &&
                c.node == sink_);
      });
  if (rebuild) {
    build(graph, &links, nullptr);
    return;
  }

  // Per-node flags, each set at most once per repair.
  enum : std::uint8_t { kQueued = 1, kMoved = 2, kReparent = 4 };
  mark_.resize(parent_.size(), 0);
  const auto mark = [this](NodeId v, std::uint8_t bit) {
    std::uint8_t& m = mark_[static_cast<std::size_t>(v)];
    if (m == 0) marked_.push_back(v);
    const bool fresh = (m & bit) == 0;
    m = static_cast<std::uint8_t>(m | bit);
    return fresh;
  };
  const auto depth_of = [this](NodeId v) -> int& {
    return depth_[static_cast<std::size_t>(v)];
  };
  // Records v's depth before its first change in this repair.
  const auto save = [&](NodeId v) {
    if (mark(v, kMoved)) moved_.emplace_back(v, depth_of(v));
  };
  const auto reparent = [&](NodeId v) {
    if (mark(v, kReparent)) reparent_.push_back(v);
  };
  // Pops the lower-keyed head of two key-sorted runs: the sorted seeds,
  // and the FIFO, which only ever receives (popped key + 1).
  std::size_t si = 0;
  std::size_t fi = 0;
  const auto pop = [&](std::pair<int, NodeId>& out) {
    const bool s = si < seeds_.size();
    const bool f = fi < fifo_.size();
    if (!s && !f) return false;
    out = s && (!f || seeds_[si].first <= fifo_[fi].first) ? seeds_[si++]
                                                           : fifo_[fi++];
    return true;
  };
  seeds_.clear();
  fifo_.clear();
  moved_.clear();
  reparent_.clear();

  // 1. Invalidate (depth -1), in old-depth order, every reachable node
  //    left with no up link to a still-valid node one hop closer. The
  //    candidates are the changed nodes and link endpoints (a crashed node
  //    invalidates itself), then the nodes one hop below each invalidated
  //    node. Afterwards moved_ holds exactly the invalidated nodes.
  const auto candidate = [&](NodeId v) {
    if (depth_of(v) > 0 && mark(v, kQueued))
      seeds_.emplace_back(depth_of(v), v);
  };
  for (auto it = first; it != log.end(); ++it) {
    reparent(it->node);
    candidate(it->node);
    if (it->peer >= 0) {
      reparent(it->peer);
      candidate(it->peer);
    }
  }
  std::sort(seeds_.begin(), seeds_.end());
  std::pair<int, NodeId> e;
  while (pop(e)) {
    const auto [d, v] = e;
    bool supported = false;
    if (links.node_up(v)) {
      for (const NodeId u : graph.neighbors(v)) {
        if (depth_of(u) == d - 1 && links.link_up(v, u)) {
          supported = true;
          break;
        }
      }
    }
    if (supported) continue;
    save(v);
    depth_of(v) = -1;
    for (const NodeId w : graph.neighbors(v))
      if (depth_of(w) == d + 1 && mark(w, kQueued))
        fifo_.emplace_back(d + 1, w);
  }

  // 2. Re-seed the invalidated nodes and the changed nodes and endpoints
  //    from their neighbours, then relax outward in depth order.
  seeds_.clear();
  fifo_.clear();
  si = 0;
  fi = 0;
  const auto seed = [&](NodeId v) {
    if (v == sink_ || !links.node_up(v)) return;
    int best = -1;
    for (const NodeId u : graph.neighbors(v)) {
      const int du = depth_of(u);
      if (du >= 0 && (best < 0 || du + 1 < best) && links.link_up(v, u))
        best = du + 1;
    }
    if (best < 0 || (depth_of(v) >= 0 && depth_of(v) <= best)) return;
    save(v);
    depth_of(v) = best;
    seeds_.emplace_back(best, v);
  };
  const std::size_t invalidated = moved_.size();
  for (std::size_t i = 0; i < invalidated; ++i) seed(moved_[i].first);
  for (auto it = first; it != log.end(); ++it) {
    seed(it->node);
    if (it->peer >= 0) seed(it->peer);
  }
  std::sort(seeds_.begin(), seeds_.end());
  while (pop(e)) {
    const auto [d, v] = e;
    if (depth_of(v) != d) continue;  // lowered again since it was queued
    for (const NodeId w : graph.neighbors(v)) {
      if (depth_of(w) >= 0 && depth_of(w) <= d + 1) continue;
      if (!links.link_up(v, w)) continue;
      save(w);
      depth_of(w) = d + 1;
      fifo_.emplace_back(d + 1, w);
    }
  }

  // 3. Re-choose parents wherever an input of the parent rule changed:
  //    the nodes whose depth moved and their neighbours, plus the changed
  //    nodes and link endpoints.
  for (const auto& [v, before] : moved_) {
    if (depth_of(v) == before) continue;
    reparent(v);
    for (const NodeId w : graph.neighbors(v)) reparent(w);
  }
  for (const NodeId v : reparent_) {
    NodeId& p = parent_[static_cast<std::size_t>(v)];
    if (v == sink_) {
      p = sink_;
    } else if (depth_of(v) < 0) {
      p = kInvalidNode;
    } else {
      p = best_parent(graph, depth_, v, sink_, &links);
      BCP_ENSURE(p != kInvalidNode);
    }
  }

  for (const NodeId v : marked_) mark_[static_cast<std::size_t>(v)] = 0;
  marked_.clear();
  revision_ = log.size();
}

NodeId ConvergecastRouting::parent(NodeId from) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  return parent_[static_cast<std::size_t>(from)];
}

int ConvergecastRouting::depth(NodeId from) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  return depth_[static_cast<std::size_t>(from)];
}

double ConvergecastRouting::mean_depth() const {
  double sum = 0;
  int count = 0;
  for (NodeId from = 0; from < node_count(); ++from) {
    if (from == sink_) continue;
    const int d = depth_[static_cast<std::size_t>(from)];
    if (d < 0) continue;
    sum += d;
    ++count;
  }
  BCP_REQUIRE_MSG(count > 0, "sink unreachable from every node");
  return sum / count;
}

std::vector<NodeId> ConvergecastRouting::stranded() const {
  std::vector<NodeId> out;
  for (NodeId from = 0; from < node_count(); ++from)
    if (from != sink_ && depth_[static_cast<std::size_t>(from)] < 0)
      out.push_back(from);
  return out;
}

NodeId ConvergecastRouting::next_hop(NodeId from, NodeId to) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  BCP_REQUIRE(to >= 0 && to < node_count());
  if (from == to) return from;
  const int df = depth_[static_cast<std::size_t>(from)];
  if (df < 0 || depth_[static_cast<std::size_t>(to)] < 0)
    return kInvalidNode;  // one endpoint is outside the sink's component
  // `to` lies below `from` iff its ancestor one level below `from` hangs
  // off `from`; that ancestor is then the downward hop.
  NodeId below = to;
  while (depth_[static_cast<std::size_t>(below)] > df + 1)
    below = parent_[static_cast<std::size_t>(below)];
  if (depth_[static_cast<std::size_t>(below)] == df + 1 &&
      parent_[static_cast<std::size_t>(below)] == from)
    return below;
  return parent_[static_cast<std::size_t>(from)];
}

int ConvergecastRouting::hops(NodeId from, NodeId to) const {
  BCP_REQUIRE(from >= 0 && from < node_count());
  BCP_REQUIRE(to >= 0 && to < node_count());
  if (from == to) return 0;
  if (depth_[static_cast<std::size_t>(from)] < 0 ||
      depth_[static_cast<std::size_t>(to)] < 0)
    return -1;
  // Tree distance via the nearest common ancestor (climb pointers; depth
  // is bounded by the network diameter).
  NodeId a = from;
  NodeId b = to;
  while (depth_[static_cast<std::size_t>(a)] >
         depth_[static_cast<std::size_t>(b)])
    a = parent_[static_cast<std::size_t>(a)];
  while (depth_[static_cast<std::size_t>(b)] >
         depth_[static_cast<std::size_t>(a)])
    b = parent_[static_cast<std::size_t>(b)];
  while (a != b) {
    a = parent_[static_cast<std::size_t>(a)];
    b = parent_[static_cast<std::size_t>(b)];
  }
  return depth_[static_cast<std::size_t>(from)] +
         depth_[static_cast<std::size_t>(to)] -
         2 * depth_[static_cast<std::size_t>(a)];
}

// --------------------------------------------------- DynamicRouting --

DynamicRouting::DynamicRouting(const ConnectivityGraph& graph, NodeId sink,
                               const LinkState& links, bool all_pairs,
                               RoutePolicy policy, NodeCostFn cost)
    : graph_(graph),
      sink_(sink),
      links_(links),
      all_pairs_(all_pairs),
      policy_(policy),
      cost_(std::move(cost)) {
  BCP_REQUIRE(sink >= 0 && sink < graph.node_count());
  BCP_REQUIRE(links.node_count() == graph.node_count());
  BCP_REQUIRE_MSG(policy_ != RoutePolicy::kLifetimeAware || cost_ != nullptr,
                  "lifetime-aware routing needs a node cost function");
}

const Router& DynamicRouting::current() const {
  if (policy_ == RoutePolicy::kShortestPath && !all_pairs_) {
    if (tree_ == nullptr) {
      tree_ = std::make_unique<ConvergecastRouting>(graph_, sink_, &links_);
      ++rebuilds_;
    } else if (tree_->revision() != links_.revision()) {
      tree_->repair(graph_, links_);
      ++rebuilds_;
    }
    return *tree_;
  }
  if (impl_ == nullptr || built_revision_ != links_.revision()) {
    if (policy_ == RoutePolicy::kLifetimeAware)
      impl_ = std::make_unique<ConvergecastRouting>(graph_, sink_, &links_,
                                                    cost_);
    else
      impl_ = std::make_unique<RoutingTable>(graph_, &links_);
    built_revision_ = links_.revision();
    ++rebuilds_;
  }
  return *impl_;
}

}  // namespace bcp::net
