#include "net/link_state.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace bcp::net {

LinkState::LinkState(int node_count) : node_count_(node_count) {
  BCP_REQUIRE(node_count > 0);
  node_up_.assign(static_cast<std::size_t>(node_count), 1);
}

LinkState::LinkState(std::shared_ptr<const StripeDomain> domain)
    : node_count_(domain == nullptr ? 0 : domain->node_count),
      domain_(std::move(domain)) {
  BCP_REQUIRE(domain_ != nullptr && domain_->node_count > 0);
  BCP_REQUIRE(domain_->shard_of != nullptr && domain_->local_of != nullptr);
  BCP_REQUIRE(domain_->owned > 0 &&
              domain_->dense_count() <= domain_->node_count);
  node_up_.assign(static_cast<std::size_t>(domain_->dense_count()), 1);
}

std::uint64_t LinkState::key(NodeId a, NodeId b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

bool LinkState::node_up(NodeId node) const {
  BCP_REQUIRE(node >= 0 && node < node_count());
  if (domain_ != nullptr) {
    const std::int32_t slot = domain_->dense_slot(node);
    if (slot < 0) return down_remote_.find(node) == down_remote_.end();
    return node_up_[static_cast<std::size_t>(slot)] != 0;
  }
  return node_up_[static_cast<std::size_t>(node)] != 0;
}

void LinkState::set_node_up(NodeId node, bool up) {
  BCP_REQUIRE(node >= 0 && node < node_count());
  if (domain_ != nullptr) {
    const std::int32_t slot = domain_->dense_slot(node);
    if (slot < 0) {
      // Outside owned + halo: the sparse overflow. Same idempotence and
      // revision discipline as the dense path.
      const bool changed =
          up ? down_remote_.erase(node) > 0 : down_remote_.insert(node).second;
      if (changed) node_changed(node, up);
      return;
    }
    auto& state = node_up_[static_cast<std::size_t>(slot)];
    if ((state != 0) == up) return;
    state = up ? 1 : 0;
    node_changed(node, up);
    return;
  }
  auto& state = node_up_[static_cast<std::size_t>(node)];
  if ((state != 0) == up) return;
  state = up ? 1 : 0;
  node_changed(node, up);
}

void LinkState::node_changed(NodeId node, bool up) {
  down_nodes_ += up ? -1 : 1;
  log_.push_back(
      {up ? LinkChange::Kind::kNodeUp : LinkChange::Kind::kNodeDown, node, -1});
}

void LinkState::set_link_up(NodeId a, NodeId b, bool up) {
  BCP_REQUIRE(a >= 0 && a < node_count());
  BCP_REQUIRE(b >= 0 && b < node_count());
  BCP_REQUIRE(a != b);
  const std::uint64_t k = key(a, b);
  const bool changed =
      up ? down_links_.erase(k) > 0 : down_links_.insert(k).second;
  if (changed)
    log_.push_back(
        {up ? LinkChange::Kind::kLinkUp : LinkChange::Kind::kLinkDown, a, b});
}

void LinkState::apply(const MembershipDelta& delta) {
  switch (delta.kind) {
    case MembershipDelta::Kind::kNodeDown:
      set_node_up(delta.node, false);
      break;
    case MembershipDelta::Kind::kNodeUp:
      set_node_up(delta.node, true);
      break;
    case MembershipDelta::Kind::kLinkDown:
      set_link_up(delta.node, delta.peer, false);
      break;
    case MembershipDelta::Kind::kLinkUp:
      set_link_up(delta.node, delta.peer, true);
      break;
  }
}

}  // namespace bcp::net
