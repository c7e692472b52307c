// Spatial sharding of a radio medium for the parallel engine.
//
// ShardMap cuts the node plane into vertical stripes of equal population
// (sorted by x, ties by id), numbered left to right — so stripe adjacency
// matches index adjacency and the parity phases of sim::ShardedSimulator
// alternate across space.
//
// ShardedMedium is one radio class's Channel, partitioned: every shard
// gets a Channel over the *shared* connectivity graph that delivers only
// to nodes the shard owns. Transmissions heard across a stripe edge are
// exported as Channel::RemoteFrame records into per-directed-pair
// mailboxes and injected into the destination shard at its next window
// drain. Mailboxes are double-buffered by window parity: with the
// engine's even-then-odd phase order, the buffer a writer appends to in
// window k is never the buffer its reader drains in window k, so the
// exchange is lock-free — the engine's phase barriers provide all the
// ordering (see the buffer-parity proof at drain()).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/link_state.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "sim/sharded_simulator.hpp"

namespace bcp::phy {

/// Node → shard assignment as contiguous equal-count x-stripes, plus the
/// global↔local id mapping that lets each partition size its node-indexed
/// state by its own population instead of the global one. Local ids are
/// contiguous per stripe, assigned in ascending global-id order, so a
/// partition's per-node vectors of length owned_count(s) are dense and
/// the translation is one shared O(n) array (like shard_of itself), not
/// per-shard state. Partitions read both arrays through stripe(s).
struct ShardMap {
  int count = 1;
  std::vector<std::int32_t> shard_of;  ///< per node id: owning stripe
  std::vector<std::int32_t> local_of;  ///< per node id: stripe-local id
  /// Per stripe: owned global ids, ascending (the inverse of local_of —
  /// owned[s][local_of[g]] == g for every g with shard_of[g] == s).
  std::vector<std::vector<net::NodeId>> owned;

  /// Splits `positions` into min(shards, n) stripes of (near-)equal
  /// population, sorted by (x, id). Deterministic.
  static ShardMap stripes(const std::vector<net::Position>& positions,
                          int shards);

  int owned_count(int shard) const {
    return static_cast<int>(owned[static_cast<std::size_t>(shard)].size());
  }
  const std::vector<net::NodeId>& owned_nodes(int shard) const {
    return owned[static_cast<std::size_t>(shard)];
  }

  /// Stripe `shard` as the id view its partition reads: ownership and
  /// local slots through this map's arrays, which must outlive the view.
  net::Stripe stripe(int shard) const;
};

class ShardedMedium {
 public:
  /// One Channel per engine shard over the shared graph. Shard s draws
  /// from RNG substream (seed, s) — deterministic at fixed shard count.
  ShardedMedium(sim::ShardedSimulator& engine,
                std::shared_ptr<const net::ConnectivityGraph> graph,
                const ShardMap& map, Channel::Params params,
                std::uint64_t seed);

  Channel& shard(int s) { return *channels_[static_cast<std::size_t>(s)]; }
  const Channel& shard(int s) const {
    return *channels_[static_cast<std::size_t>(s)];
  }

  /// Drains every mailbox addressed to shard s for window `window`,
  /// merging frames in deterministic (start time, source shard) order,
  /// and injects them into s's channel. Call from the engine's drain
  /// hook — i.e. on s's pinned worker thread, between phase barriers.
  void drain(int s, std::int64_t window);

  /// Destroys shard s's channel partition. Must run on s's pinned worker
  /// thread (the teardown for_each_shard phase): in-flight transmission
  /// records hold thread-local pooled payload refs.
  void reset_shard(int s);

  /// Aggregates over live (non-reset) partitions.
  Channel::Stats total_stats() const;
  std::int64_t total_live_arrivals() const;
  std::int64_t boundary_exports() const;

 private:
  struct Mailbox {
    std::vector<Channel::RemoteFrame> buf[2];
  };
  struct Tagged {
    Channel::RemoteFrame rf;
    std::int32_t src_shard;
  };

  Mailbox& mail(int src, int dst) {
    return mail_[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(count_) +
                 static_cast<std::size_t>(dst)];
  }

  sim::ShardedSimulator& engine_;
  const ShardMap& map_;  // not owned; must outlive the medium
  int count_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<Mailbox> mail_;             // src * count_ + dst
  std::vector<std::vector<Tagged>> scratch_;  // per dst shard, drain merge
};

}  // namespace bcp::phy
