// Per-next-hop data accumulation (§3: "Data messages for different
// receivers are buffered separately, so messages for the same next hop can
// be combined and sent to that next hop").
//
// Capacity is shared across next hops — it models the node's RAM (§4.1's
// 5000 × 32 B buffer), not a per-queue quota.
#pragma once

#include <optional>
#include <vector>

#include "net/message.hpp"
#include "util/flat_map.hpp"
#include "util/units.hpp"

namespace bcp::core {

class BulkBuffer {
 public:
  explicit BulkBuffer(util::Bits capacity_bits);

  /// Appends a packet to `next_hop`'s queue. Returns false (packet not
  /// stored) if it would exceed the shared capacity.
  bool push(net::NodeId next_hop, const net::DataPacket& packet);

  /// Removes and returns whole packets from the head of `next_hop`'s queue
  /// whose cumulative size does not exceed `budget_bits` (at least one
  /// packet is returned if the queue is non-empty and the first packet
  /// fits; a first packet larger than the budget is NOT popped).
  std::vector<net::DataPacket> pop_up_to(net::NodeId next_hop,
                                         util::Bits budget_bits);

  /// Removes and returns the oldest packet queued for `next_hop`
  /// (nullopt if none). Used by delay-constrained draining.
  std::optional<net::DataPacket> pop_front(net::NodeId next_hop);

  /// Creation time of the oldest packet queued for `next_hop`
  /// (nullopt if none) — the packet whose buffering delay is largest.
  std::optional<util::Seconds> oldest_created_at(net::NodeId next_hop) const;

  util::Bits buffered_bits(net::NodeId next_hop) const;
  util::Bits total_bits() const { return total_bits_; }
  util::Bits capacity_bits() const { return capacity_; }
  util::Bits free_bits() const { return capacity_ - total_bits_; }

  std::size_t packet_count(net::NodeId next_hop) const;
  std::size_t total_packets() const { return total_packets_; }

  /// Next hops with at least one buffered packet, in ascending id order.
  std::vector<net::NodeId> active_next_hops() const;

  /// Number of next hops holding a queue. A queue exists only while it
  /// holds a packet: draining it releases its entry and storage.
  std::size_t queue_count() const { return queues_.size(); }

  /// Discards every buffered packet (crash/reset); returns how many were
  /// dropped.
  std::size_t clear();

 private:
  /// Never empty: the last pop erases the queue's entry.
  struct Queue {
    std::vector<net::DataPacket> packets;
    std::size_t head = 0;  // index of the first un-popped packet
    util::Bits bits = 0;
  };

  util::Bits capacity_;
  util::Bits total_bits_ = 0;
  std::size_t total_packets_ = 0;
  util::FlatMap<net::NodeId, Queue> queues_;
};

}  // namespace bcp::core
