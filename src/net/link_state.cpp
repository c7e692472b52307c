#include "net/link_state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bcp::net {

LinkState::LinkState(int node_count, Stripe stripe)
    : node_count_(node_count), stripe_(stripe) {
  BCP_REQUIRE(node_count > 0);
  BCP_REQUIRE(stripe_.whole() || (stripe_.local_of != nullptr &&
                                  stripe_.owned > 0 &&
                                  stripe_.owned <= node_count));
  node_up_.assign(stripe_.slots(node_count), 1);
}

std::uint64_t LinkState::key(NodeId a, NodeId b) {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return (hi << 32) | lo;
}

bool LinkState::node_up(NodeId node) const {
  BCP_REQUIRE(node >= 0 && node < node_count());
  if (!stripe_.owns(node)) return down_remote_.find(node) == down_remote_.end();
  return node_up_[stripe_.local(node)] != 0;
}

void LinkState::set_node_up(NodeId node, bool up) {
  BCP_REQUIRE(node >= 0 && node < node_count());
  bool changed;
  if (stripe_.owns(node)) {
    auto& state = node_up_[stripe_.local(node)];
    changed = (state != 0) != up;
    state = up ? 1 : 0;
  } else {
    changed =
        up ? down_remote_.erase(node) > 0 : down_remote_.insert(node).second;
  }
  if (changed) node_changed(node, up);
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
  using Kind = LinkChange::Kind;
  BCP_REQUIRE_MSG(delta.kind != Kind::kTouch,
                  "a membership delta must change membership");
  if (delta.kind == Kind::kNodeDown || delta.kind == Kind::kNodeUp)
    set_node_up(delta.node, delta.kind == Kind::kNodeUp);
  else
    set_link_up(delta.node, delta.peer, delta.kind == Kind::kLinkUp);
}

}  // namespace bcp::net
