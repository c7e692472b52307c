#include "app/nodes.hpp"

#include <utility>

#include "app/duty_cycle.hpp"
#include "mac/mac_params.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::app {

MacSlot make_mac(sim::Simulator& sim, phy::Radio& radio,
                 const MacChoice& choice, std::uint64_t seed) {
  if (choice.family == mac::MacFamily::kTdma) {
    BCP_REQUIRE_MSG(choice.schedule != nullptr,
                    "a TDMA MacChoice needs the shared slot schedule");
    return std::make_unique<mac::TdmaMac>(sim, radio, choice.tdma,
                                          *choice.schedule, seed);
  }
  return MacSlot(std::in_place_type<mac::CsmaCaMac>, sim, radio, choice.csma,
                 seed);
}

// ---------------------------------------------------------- ForwardingNode

ForwardingNode::ForwardingNode(sim::Simulator& sim, phy::Channel& channel,
                               const net::Router& routes,
                               net::NodeId self, net::NodeId sink,
                               const energy::RadioEnergyModel& radio_model,
                               phy::OverhearMode overhear,
                               const MacChoice& mac_choice,
                               std::uint64_t seed, DeliverySink* delivery)
    : sim_(sim), routes_(routes), self_(self), sink_(sink),
      delivery_(delivery),
      radio_(sim, channel, self, radio_model, overhear, /*start_on=*/true),
      mac_(make_mac(sim, radio_, mac_choice,
                    util::substream(seed, static_cast<std::uint64_t>(self),
                                    0x4D4143u))) {
  BCP_REQUIRE(delivery != nullptr);
  mac().set_rx_callback(
      [this](const net::Message& m, net::NodeId from) { on_rx(m, from); });
  mac().set_tx_done_callback([this](const net::Message& m, net::NodeId,
                                    bool success) {
    if (!success && m.is_data())
      delivery_->dropped(std::get<net::DataPacket>(m.body), "mac-failed");
  });
}

void ForwardingNode::send(const net::DataPacket& packet) {
  if (!up_) {
    delivery_->dropped(packet, "node-down");
    return;
  }
  net::Message msg;
  msg.src = self_;
  msg.dst = packet.destination;
  msg.body = packet;
  forward(msg);
}

void ForwardingNode::crash() {
  if (!up_) return;
  up_ = false;
  mac().reset_on_crash();
  radio_.force_off();
}

void ForwardingNode::recover() {
  if (up_) return;
  up_ = true;
  radio_.power_on();
  mac().on_recover();
}

void ForwardingNode::forward(const net::Message& msg) {
  if (msg.dst == self_) {
    if (msg.is_data()) delivery_->delivered(std::get<net::DataPacket>(msg.body));
    return;
  }
  const net::NodeId next = routes_.next_hop(self_, msg.dst);
  if (next == net::kInvalidNode) {
    if (msg.is_data())
      delivery_->dropped(std::get<net::DataPacket>(msg.body), "no-route");
    return;
  }
  if (!mac().enqueue(msg, next)) {
    if (msg.is_data())
      delivery_->dropped(std::get<net::DataPacket>(msg.body), "queue-full");
  }
}

void ForwardingNode::on_rx(const net::Message& msg, net::NodeId /*from*/) {
  forward(msg);
}

// ----------------------------------------------------------- DualRadioNode

DualRadioNode::DualRadioNode(
    sim::Simulator& sim, phy::Channel& low_channel, phy::Channel& high_channel,
    const net::Router& low_routes, const net::Router& high_routes,
    net::NodeId self, const energy::RadioEnergyModel& sensor_model,
    const energy::RadioEnergyModel& wifi_model,
    const core::BcpConfig& bcp_config, phy::OverhearMode wifi_overhear,
    std::uint64_t seed, DeliverySink* delivery, const MacChoice& low_mac,
    const MacChoice& high_mac)
    : sim_(sim),
      high_channel_(high_channel),
      low_routes_(low_routes),
      high_routes_(high_routes),
      self_(self),
      delivery_(delivery),
      // The sensor radio is always on (§2.1: its idling is a base cost); it
      // pays header-only overhearing so the "Sensor-header"-style charge can
      // be read from the meter if wanted. The 802.11 radio starts off; BCP
      // powers it per session.
      low_radio_(sim, low_channel, self, sensor_model,
                 phy::OverhearMode::kHeaderOnly, /*start_on=*/true),
      high_radio_(sim, high_channel, self, wifi_model, wifi_overhear,
                  /*start_on=*/false),
      low_mac_(make_mac(sim, low_radio_, low_mac,
                        util::substream(seed,
                                        static_cast<std::uint64_t>(self),
                                        0x4C4F57u))),
      high_mac_(make_mac(sim, high_radio_, high_mac,
                         util::substream(seed,
                                         static_cast<std::uint64_t>(self),
                                         0x484957u))),
      agent_(*this, bcp_config) {
  BCP_REQUIRE(delivery != nullptr);

  sensor_mac().set_rx_callback(
      [this](const net::Message& m, net::NodeId from) { on_low_rx(m, from); });
  sensor_mac().set_tx_done_callback([this](const net::Message& m, net::NodeId,
                                           bool success) {
    // Only data rides the low radio when the kFallbackLow delay policy is
    // active; account its link-layer losses like the forwarding models do.
    if (!success && m.is_data())
      delivery_->dropped(std::get<net::DataPacket>(m.body), "mac-failed");
  });
  wifi_mac().set_rx_callback(
      [this](const net::Message& m, net::NodeId from) { on_high_rx(m, from); });
  wifi_mac().set_tx_done_callback(
      [this](const net::Message&, net::NodeId, bool success) {
        BCP_ENSURE_MSG(!high_done_.empty(),
                       "high-radio completion without a pending send");
        auto done = std::move(high_done_.front());
        high_done_.pop_front();
        if (done) done(success);
      });
  high_radio_.callbacks().wake_complete = [this] {
    agent_.on_high_radio_ready();
  };
  high_radio_.callbacks().frame_overheard = [this](const phy::Frame& f) {
    if (f.message && f.message->is_bulk())
      agent_.on_bulk_frame_overheard(std::get<net::BulkFrame>(f.message->body));
  };
}

void DualRadioNode::send(const net::DataPacket& packet) {
  if (!up_) {
    delivery_->dropped(packet, "node-down");
    return;
  }
  agent_.submit(packet);
}

void DualRadioNode::crash() {
  if (!up_) return;
  up_ = false;
  // Order matters: the agent's timers go first (so nothing fires into a
  // half-reset node), then the MACs drop their queues silently (the
  // agent's completion expectations died with it), then the radios go
  // dark, truncating anything mid-air.
  agent_.crash();
  sensor_mac().reset_on_crash();
  wifi_mac().reset_on_crash();
  high_done_.clear();
  low_radio_.force_off();
  high_radio_.force_off();
}

void DualRadioNode::recover() {
  if (up_) return;
  up_ = true;
  // The sensor radio is always-on for a live node; the 802.11 radio stays
  // off until the (freshly reset) agent next acquires it.
  low_radio_.power_on();
  sensor_mac().on_recover();
}

core::BcpHost::TimerId DualRadioNode::set_timer(
    util::Seconds delay, core::BcpHost::TimerCallback callback) {
  // TimerCallback IS the simulator's callback type — no re-wrapping.
  return sim_.schedule_in(delay, std::move(callback)).id;
}

void DualRadioNode::cancel_timer(TimerId id) {
  sim_.cancel(sim::Simulator::EventHandle{id});
}

void DualRadioNode::send_low(net::MessageRef msg) {
  BCP_REQUIRE(msg->dst != self_);
  const net::NodeId next = low_routes_.next_hop(self_, msg->dst);
  if (next == net::kInvalidNode) return;  // unreachable peer: handshake fails
  sensor_mac().enqueue(std::move(msg), next);
}

void DualRadioNode::send_high(net::MessageRef msg, net::NodeId peer,
                              core::BcpHost::SendDone done) {
  BCP_REQUIRE(peer != self_);
  if (!wifi_mac().enqueue(std::move(msg), peer)) {
    // Queue full (pathological): report failure asynchronously so the
    // caller's state machine is not reentered from inside send_high.
    sim_.schedule_in(0.0, [done = std::move(done)] { done(false); });
    return;
  }
  high_done_.push_back(std::move(done));
}

void DualRadioNode::high_radio_on() { high_radio_.power_on(); }

void DualRadioNode::try_power_off() {
  // Never yank the radio mid-transmission (a link ack may be going out);
  // retry just after it drains.
  if (high_radio_.state() == phy::RadioState::kTx) {
    sim_.schedule_in(0.001, [this] {
      if (agent_.radio_hold_count() == 0) try_power_off();
    });
    return;
  }
  high_radio_.power_off();
}

void DualRadioNode::high_radio_off() { try_power_off(); }

bool DualRadioNode::high_radio_ready() const {
  // "Ready" for BCP means powered with the wake transition finished — NOT
  // "able to transmit this instant". The radio may be mid-TX (e.g. sending
  // a link ack for a concurrent receiver session) when a wake-up ack
  // arrives; the MAC's carrier sense absorbs that. Requiring Radio::ready()
  // here would strand the sender session waiting for a wake_complete that
  // never fires (the radio is already awake).
  const phy::RadioState s = high_radio_.state();
  return s != phy::RadioState::kOff && s != phy::RadioState::kWaking;
}

net::NodeId DualRadioNode::high_next_hop(net::NodeId dest) const {
  return high_routes_.next_hop(self_, dest);
}

bool DualRadioNode::high_link_exists(net::NodeId peer) const {
  // Disc-model adjacency — exactly "one high-radio hop away", but
  // answerable in O(1) without an all-pairs table (the convergecast
  // routing scenarios use cannot rank arbitrary peers).
  return high_channel_.in_range(self_, peer);
}

void DualRadioNode::deliver(const net::DataPacket& packet) {
  delivery_->delivered(packet);
}

void DualRadioNode::packet_dropped(const net::DataPacket& packet,
                                   const char* reason) {
  delivery_->dropped(packet, reason);
}

void DualRadioNode::on_low_rx(const net::Message& msg, net::NodeId /*from*/) {
  if (msg.dst == self_) {
    agent_.on_low_message(msg);
    return;
  }
  // Relay the control message one more low-radio hop (below BCP, §3).
  const net::NodeId next = low_routes_.next_hop(self_, msg.dst);
  if (next == net::kInvalidNode) return;
  sensor_mac().enqueue(msg, next);
}

void DualRadioNode::on_high_rx(const net::Message& msg,
                               net::NodeId /*from*/) {
  if (const auto* frame = std::get_if<net::BulkFrame>(&msg.body)) {
    agent_.on_bulk_frame(*frame);
  }
  // Anything else over the high radio is ignored: BCP only ships bulk
  // frames there.
}

void crash_node(ForwardingNode* fwd, DualRadioNode* dual,
                DutyCycledWifiNode* duty, net::NodeId node,
                net::LinkState* links) {
  BCP_REQUIRE_MSG((fwd != nullptr) + (dual != nullptr) + (duty != nullptr) ==
                      1,
                  "crash_node takes exactly one node assembly");
  if (fwd != nullptr) fwd->crash();
  if (dual != nullptr) dual->crash();
  if (duty != nullptr) duty->crash();
  if (links != nullptr) links->set_node_up(node, false);
}

}  // namespace bcp::app
