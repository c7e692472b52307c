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
// Memory model: the historical constructor keeps one dense byte per node —
// right for the single-queue engine and for the coordinator replica. A
// sharded partition instead constructs its replica over a StripeDomain:
// dense bytes only for the stripe it owns plus the halo of boundary
// neighbors it must hear (the ids its channel partition ever asks about),
// and a sparse down-set for every other node a broadcast membership delta
// names. Queries and revision bumps are semantically identical to the
// dense layout — same answers, same revisions, byte-identical downstream
// metrics — while per-partition memory drops from O(n) to
// O(n/shards + halo).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/message.hpp"

namespace bcp::net {

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
  enum class Kind : std::uint8_t { kNodeDown, kNodeUp, kLinkDown, kLinkUp };
  double time = 0;       ///< event instant in the owning shard
  std::int32_t shard = 0;  ///< owning shard (deterministic tie-break)
  NodeId node = -1;
  NodeId peer = -1;  ///< second endpoint for link deltas, -1 otherwise
  Kind kind = Kind::kNodeDown;

  /// Deterministic application order: (time, shard, node, peer, kind).
  static bool before(const MembershipDelta& a, const MembershipDelta& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    if (a.node != b.node) return a.node < b.node;
    if (a.peer != b.peer) return a.peer < b.peer;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
};

/// Stripe-local id domain of one partition: which global node ids get a
/// dense slot in that partition's node-indexed state. Slots [0, owned)
/// are the stripe's own nodes in ascending global-id order (the same
/// contiguous local ids phy::ShardMap::local_of assigns); slots
/// [owned, owned + halo) are the halo — remote nodes adjacent to an owned
/// node in some radio graph, i.e. every id the partition's channels can
/// name in a membership query. Built once per shard (phy::ShardMap::
/// domain) for that shard's replica, which both radio classes read.
struct StripeDomain {
  int node_count = 0;      ///< global population (bounds checks)
  std::int32_t shard = 0;  ///< which stripe this domain describes
  std::int32_t owned = 0;  ///< dense slots [0, owned)
  /// Global per-node arrays (not owned; the ShardMap outlives the run).
  const std::int32_t* shard_of = nullptr;
  const std::int32_t* local_of = nullptr;
  /// Halo ids → dense slots in [owned, owned + halo_slot.size()).
  std::unordered_map<NodeId, std::int32_t> halo_slot;

  std::int32_t dense_count() const {
    return owned + static_cast<std::int32_t>(halo_slot.size());
  }

  /// Dense slot of a global id, or -1 when the id is outside owned + halo
  /// (those fall through to a replica's sparse down-set).
  std::int32_t dense_slot(NodeId global) const {
    if (shard_of[static_cast<std::size_t>(global)] == shard)
      return local_of[static_cast<std::size_t>(global)];
    const auto it = halo_slot.find(global);
    return it == halo_slot.end() ? -1 : it->second;
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

class LinkState {
 public:
  /// Dense over every node — the single-queue engine's shared state and
  /// the sharded coordinator's ground-truth replica.
  explicit LinkState(int node_count);

  /// Stripe-local replica: dense over `domain` (owned stripe + halo),
  /// sparse beyond it. Answers and revision bumps are identical to the
  /// dense layout for any query in [0, node_count).
  explicit LinkState(std::shared_ptr<const StripeDomain> domain);

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

  /// Dense bytes actually allocated: node_count() for the historical
  /// layout, owned + halo for a stripe-local replica (the white-box
  /// memory-model assertion the sharded tests pin).
  std::size_t dense_size() const { return node_up_.size(); }
  bool stripe_local() const { return domain_ != nullptr; }

 private:
  static std::uint64_t key(NodeId a, NodeId b);
  /// Counts and logs one effective node flip.
  void node_changed(NodeId node, bool up);

  int node_count_ = 0;
  std::shared_ptr<const StripeDomain> domain_;  ///< null = dense layout
  std::vector<std::uint8_t> node_up_;  ///< dense part (all, or owned+halo)
  /// Stripe-local only: down nodes outside the dense domain. Bounded by
  /// the number of distinct nodes membership deltas ever name, never by n.
  std::unordered_set<NodeId> down_remote_;
  std::unordered_set<std::uint64_t> down_links_;
  /// Grows with the number of effective changes, never with n.
  std::vector<LinkChange> log_;
  int down_nodes_ = 0;
};

}  // namespace bcp::net
