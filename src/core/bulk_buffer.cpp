#include "core/bulk_buffer.hpp"

#include "util/assert.hpp"

namespace bcp::core {

BulkBuffer::BulkBuffer(util::Bits capacity_bits) : capacity_(capacity_bits) {
  BCP_REQUIRE(capacity_bits > 0);
}

bool BulkBuffer::push(net::NodeId next_hop, const net::DataPacket& packet) {
  BCP_REQUIRE(next_hop >= 0);
  BCP_REQUIRE(packet.payload_bits > 0);
  if (total_bits_ + packet.payload_bits > capacity_) return false;
  Queue& q = queues_[next_hop];
  q.packets.push_back(packet);
  q.bits += packet.payload_bits;
  total_bits_ += packet.payload_bits;
  ++total_packets_;
  return true;
}

std::vector<net::DataPacket> BulkBuffer::pop_up_to(net::NodeId next_hop,
                                                   util::Bits budget_bits) {
  BCP_REQUIRE(budget_bits >= 0);
  std::vector<net::DataPacket> out;
  const auto it = queues_.find(next_hop);
  if (it == queues_.end()) return out;
  Queue& q = it->second;
  // Size the result in one allocation: count the prefix that fits first
  // (index arithmetic only), then copy it.
  util::Bits used = 0;
  std::size_t take = 0;
  while (q.head + take < q.packets.size()) {
    const util::Bits bits = q.packets[q.head + take].payload_bits;
    if (used + bits > budget_bits) break;
    used += bits;
    ++take;
  }
  out.reserve(take);
  out.insert(out.end(),
             q.packets.begin() + static_cast<std::ptrdiff_t>(q.head),
             q.packets.begin() + static_cast<std::ptrdiff_t>(q.head + take));
  q.head += take;
  q.bits -= used;
  total_bits_ -= used;
  total_packets_ -= take;
  // A drained queue gives its entry and storage back: a forwarder that
  // has sent its last burst holds no memory for that hop. A part-drained
  // one compacts once the popped prefix passes half its length.
  if (q.head == q.packets.size()) {
    queues_.erase(it);
  } else if (q.head > q.packets.size() / 2) {
    q.packets.erase(q.packets.begin(),
                    q.packets.begin() + static_cast<std::ptrdiff_t>(q.head));
    q.head = 0;
  }
  return out;
}

std::optional<net::DataPacket> BulkBuffer::pop_front(net::NodeId next_hop) {
  const auto it = queues_.find(next_hop);
  if (it == queues_.end()) return std::nullopt;
  Queue& q = it->second;
  net::DataPacket p = q.packets[q.head];
  q.bits -= p.payload_bits;
  total_bits_ -= p.payload_bits;
  --total_packets_;
  ++q.head;
  if (q.head == q.packets.size()) queues_.erase(it);  // see pop_up_to
  return p;
}

std::optional<util::Seconds> BulkBuffer::oldest_created_at(
    net::NodeId next_hop) const {
  const auto it = queues_.find(next_hop);
  if (it == queues_.end()) return std::nullopt;
  const Queue& q = it->second;
  return q.packets[q.head].created_at;
}

util::Bits BulkBuffer::buffered_bits(net::NodeId next_hop) const {
  const auto it = queues_.find(next_hop);
  return it == queues_.end() ? 0 : it->second.bits;
}

std::size_t BulkBuffer::packet_count(net::NodeId next_hop) const {
  const auto it = queues_.find(next_hop);
  return it == queues_.end() ? 0 : it->second.packets.size() - it->second.head;
}

std::size_t BulkBuffer::clear() {
  const std::size_t dropped = total_packets_;
  queues_.clear();
  total_bits_ = 0;
  total_packets_ = 0;
  return dropped;
}

std::vector<net::NodeId> BulkBuffer::active_next_hops() const {
  std::vector<net::NodeId> hops;
  hops.reserve(queues_.size());
  for (const auto& entry : queues_) hops.push_back(entry.first);
  return hops;
}

}  // namespace bcp::core
