// Dynamic membership and link availability over a static placement.
//
// The fault/churn subsystem flips nodes and links up and down at run time;
// everything that consumed the static ConnectivityGraph — the Channel's
// hearer loop, the routers' BFS — consults one shared LinkState per radio
// class instead of mutating the graph. Two design points:
//
//   * The hot path stays free: `link_up` answers through an all-up fast
//     path (one branch) while nothing is down, which is every frame of a
//     fault-free run.
//   * Every effective change is appended to a change log (kind, node,
//     peer), and the revision is the log's length. Routing consumes the
//     log behind a cursor (net::DynamicRouting): the convergecast tree is
//     repaired in place from the entries since its last refresh, only on
//     membership change, not per query and not per fault event that
//     changed nothing.
//
// A link is up iff both endpoints are up and the (unordered) pair has not
// been taken down explicitly. Setting a state it already has is a no-op
// and does not bump the revision.
//
// Memory model: a LinkState is laid out over a Stripe — dense bytes for
// the nodes the stripe owns, and a sparse down-set for every other id.
// The whole-network stripe owns every node, so the single-queue engine
// and the sharded coordinator keep one dense byte per node. A sharded
// partition's replica owns its stripe: O(n/shards) dense bytes, plus one
// down-set entry per remote node a broadcast membership delta took down.
// Answers and revision bumps do not depend on the stripe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/message.hpp"

namespace bcp::net {

/// Which global node ids one partition owns, and each owned id's dense
/// local slot. phy::ShardMap::stripe builds one per shard; the arrays are
/// the map's shared per-node arrays (not owned; the ShardMap must outlive
/// every reader). The default, with null arrays, is the whole network:
/// every id owned, at its global id. That case costs one null test.
struct Stripe {
  const std::int32_t* shard_of = nullptr;  ///< global id → owning stripe
  const std::int32_t* local_of = nullptr;  ///< global id → local slot
  std::int32_t shard = 0;
  std::int32_t owned = 0;  ///< the stripe's population (unused when whole)

  bool whole() const { return shard_of == nullptr; }
  /// The stripe that owns `id` (this one, for the whole network).
  std::int32_t owner(NodeId id) const {
    return whole() ? shard : shard_of[static_cast<std::size_t>(id)];
  }
  bool owns(NodeId id) const {
    return whole() || shard_of[static_cast<std::size_t>(id)] == shard;
  }
  /// Dense slot of an owned id. A remote id's local_of entry indexes
  /// another stripe, so callers check owns() first.
  std::size_t local(NodeId id) const {
    return whole() ? static_cast<std::size_t>(id)
                   : static_cast<std::size_t>(
                         local_of[static_cast<std::size_t>(id)]);
  }
  /// Dense slots over a network of `node_count` nodes.
  std::size_t slots(int node_count) const {
    return static_cast<std::size_t>(whole() ? node_count : owned);
  }
};

/// One effective LinkState change, as the change log records it. kTouch
/// changes no membership: it tells log consumers to recompute everything.
struct LinkChange {
  enum class Kind : std::uint8_t {
    kNodeDown, kNodeUp, kLinkDown, kLinkUp, kTouch
  };
  Kind kind = Kind::kTouch;
  NodeId node = -1;  ///< the node, or one link endpoint; -1 for kTouch
  NodeId peer = -1;  ///< the other link endpoint, -1 otherwise
};

/// One membership mutation, ready to be re-applied to another replica.
///
/// The sharded engine keeps one LinkState replica per shard: the shard
/// that owns a node applies crash/recover/flap mutations to its own
/// replica at the exact event instant, queues the mutation as a delta,
/// and the coordinator broadcasts the accumulated batch to every replica
/// at the next window barrier (sorted by `before` — (time, shard, node,
/// peer, kind)), so remote shards see a membership change at most one
/// window late. Re-applying a delta to the replica that originated it is
/// a no-op by LinkState's set-idempotence, so the broadcast does not bump
/// the owner's revision a second time.
struct MembershipDelta {
  double time = 0;       ///< event instant in the owning shard
  std::int32_t shard = 0;  ///< owning shard (deterministic tie-break)
  NodeId node = -1;
  NodeId peer = -1;  ///< second endpoint for link deltas, -1 otherwise
  LinkChange::Kind kind = LinkChange::Kind::kNodeDown;  ///< never kTouch

  /// Deterministic application order: (time, shard, node, peer, kind).
  static bool before(const MembershipDelta& a, const MembershipDelta& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    if (a.node != b.node) return a.node < b.node;
    if (a.peer != b.peer) return a.peer < b.peer;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
};

class LinkState {
 public:
  /// Over `node_count` nodes, dense over the ids `stripe` owns — the
  /// whole network by default (the single-queue engine's shared state and
  /// the sharded coordinator's replica), one partition's stripe for its
  /// replica. Answers and revision bumps are the same for either.
  explicit LinkState(int node_count, Stripe stripe = {});

  int node_count() const { return node_count_; }

  /// True while no node and no link is down — the fast path.
  bool all_up() const { return down_nodes_ == 0 && down_links_.empty(); }

  bool node_up(NodeId node) const;

  /// Both endpoints up and the pair not explicitly down.
  bool link_up(NodeId a, NodeId b) const {
    if (all_up()) return true;
    return node_up(a) && node_up(b) &&
           down_links_.find(key(a, b)) == down_links_.end();
  }

  void set_node_up(NodeId node, bool up);
  void set_link_up(NodeId a, NodeId b, bool up);

  /// Replays one membership delta onto this replica (no-op, and no
  /// revision bump, if the state already matches — see MembershipDelta).
  /// Rejects kTouch, which is no membership change.
  void apply(const MembershipDelta& delta);

  /// Number of effective changes so far; consumers cache against it.
  std::uint64_t revision() const { return log_.size(); }

  /// Every effective change in order; entry i moved the revision from i
  /// to i + 1. Append-only, so a consumer replays [its cursor, revision()).
  const std::vector<LinkChange>& changes() const { return log_; }

  /// Invalidates consumers' caches without changing membership (logged as
  /// kTouch). The lifetime-routing refresh tick uses this: battery
  /// fractions drift continuously, so between deaths no set_* call would
  /// ever prompt DynamicRouting to re-read them.
  void touch() { log_.push_back({LinkChange::Kind::kTouch, -1, -1}); }

  int down_node_count() const { return down_nodes_; }
  std::size_t down_link_count() const { return down_links_.size(); }

  /// Dense bytes actually allocated: node_count() for the whole network,
  /// the owned population for a stripe's replica (the white-box
  /// memory-model assertion the sharded tests pin).
  std::size_t dense_size() const { return node_up_.size(); }

 private:
  static std::uint64_t key(NodeId a, NodeId b);
  /// Counts and logs one effective node flip.
  void node_changed(NodeId node, bool up);

  int node_count_ = 0;
  Stripe stripe_;
  std::vector<std::uint8_t> node_up_;  ///< per owned node, by local slot
  /// Down nodes the stripe does not own. Bounded by the number of
  /// distinct nodes membership deltas ever name, never by n.
  std::unordered_set<NodeId> down_remote_;
  std::unordered_set<std::uint64_t> down_links_;
  /// Grows with the number of effective changes, never with n.
  std::vector<LinkChange> log_;
  int down_nodes_ = 0;
};

}  // namespace bcp::net
