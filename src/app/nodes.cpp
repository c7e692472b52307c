#include "app/nodes.hpp"

#include <utility>

#include "energy/battery.hpp"
#include "mac/mac_params.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::app {

MacSlot make_mac(sim::Simulator& sim, phy::Radio& radio,
                 const MacChoice& choice, std::uint64_t seed,
                 mac::Mac::Stats& stats) {
  if (choice.family == mac::MacFamily::kTdma) {
    BCP_REQUIRE_MSG(choice.schedule != nullptr,
                    "a TDMA MacChoice needs the shared slot schedule");
    return std::make_unique<mac::TdmaMac>(sim, radio, choice.tdma,
                                          *choice.schedule, seed, stats);
  }
  return MacSlot(std::in_place_type<mac::CsmaCaMac>, sim, radio, choice.csma,
                 seed, stats);
}

// ---------------------------------------------------------- ForwardingNode

ForwardingNode::ForwardingNode(sim::Simulator& sim, phy::Channel& channel,
                               const net::Router& routes,
                               net::NodeId self, net::NodeId sink,
                               const energy::RadioEnergyModel& radio_model,
                               phy::OverhearMode overhear,
                               const MacChoice& mac_choice,
                               std::uint64_t seed, DeliverySink* delivery,
                               mac::Mac::Stats& mac_stats)
    : sim_(sim), routes_(routes), self_(self), sink_(sink),
      delivery_(delivery),
      radio_(sim, channel, self, radio_model, overhear, /*start_on=*/true),
      mac_(make_mac(sim, radio_, mac_choice,
                    util::substream(seed, static_cast<std::uint64_t>(self),
                                    0x4D4143u),
                    mac_stats)) {
  BCP_REQUIRE(delivery != nullptr);
  radio_.set_owner(this);
  mac().set_host(this);
}

void ForwardingNode::set_battery(energy::Battery& battery) {
  battery.attach(&radio_.meter());
  battery_ = &battery;
  radio_.report_energy_changes(true);
}

void ForwardingNode::on_radio_energy_changed(phy::Radio&) {
  battery_->rearm();
}

void ForwardingNode::on_mac_rx(mac::Mac&, const net::Message& msg,
                               net::NodeId) {
  forward(msg);
}

void ForwardingNode::on_mac_tx_done(mac::Mac&, const net::Message& msg,
                                    net::NodeId, bool success) {
  if (!success && msg.is_data()) ++delivery_->drops.mac_failed;
}

void ForwardingNode::send(const net::DataPacket& packet) {
  if (!up_) {
    ++delivery_->drops.node_down;
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
    if (msg.is_data()) ++delivery_->drops.no_route;
    return;
  }
  if (!mac().enqueue(msg, next) && msg.is_data())
    ++delivery_->drops.queue_full;
}

// ----------------------------------------------------------- DualRadioNode

DualRadioNode::DualRadioNode(
    sim::Simulator& sim, phy::Channel& low_channel, phy::Channel& high_channel,
    const net::Router& low_routes, const net::Router& high_routes,
    net::NodeId self, const energy::RadioEnergyModel& sensor_model,
    const energy::RadioEnergyModel& wifi_model,
    const core::BcpConfig& bcp_config, std::uint64_t seed,
    DeliverySink* delivery, const MacChoice& low_mac,
    const MacChoice& high_mac, NodeCounters& counters)
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
      high_radio_(sim, high_channel, self, wifi_model,
                  phy::OverhearMode::kFull, /*start_on=*/false),
      low_mac_(make_mac(sim, low_radio_, low_mac,
                        util::substream(seed,
                                        static_cast<std::uint64_t>(self),
                                        0x4C4F57u),
                        counters.low_mac)),
      high_mac_(make_mac(sim, high_radio_, high_mac,
                         util::substream(seed,
                                         static_cast<std::uint64_t>(self),
                                         0x484957u),
                         counters.high_mac)),
      agent_(*this, bcp_config, counters.agent) {
  BCP_REQUIRE(delivery != nullptr);
  low_radio_.set_owner(this);
  high_radio_.set_owner(this);
  sensor_mac().set_host(this);
  wifi_mac().set_host(this);
}

void DualRadioNode::set_battery(energy::Battery& battery) {
  battery.attach(&low_radio_.meter());
  battery.attach(&high_radio_.meter());
  battery_ = &battery;
  low_radio_.report_energy_changes(true);
  high_radio_.report_energy_changes(true);
}

void DualRadioNode::on_radio_wake_complete(phy::Radio& radio) {
  // The sensor radio only wakes on recovery, with nothing waiting on it.
  if (&radio == &high_radio_) agent_.on_high_radio_ready();
}

void DualRadioNode::on_radio_frame_overheard(phy::Radio& radio,
                                             const phy::Frame& frame) {
  if (&radio == &high_radio_ && frame.message && frame.message->is_bulk())
    agent_.on_bulk_frame_overheard(
        std::get<net::BulkFrame>(frame.message->body));
}

void DualRadioNode::on_radio_energy_changed(phy::Radio&) {
  battery_->rearm();
}

void DualRadioNode::on_mac_rx(mac::Mac& mac, const net::Message& msg,
                              net::NodeId) {
  if (&mac == &sensor_mac())
    on_low_rx(msg);
  else
    on_high_rx(msg);
}

void DualRadioNode::on_mac_tx_done(mac::Mac& mac, const net::Message& msg,
                                   net::NodeId, bool success) {
  if (&mac == &sensor_mac()) {
    // Only data rides the low radio when the kFallbackLow delay policy is
    // active; account its link-layer losses like the forwarding models do.
    if (!success && msg.is_data()) ++delivery_->drops.mac_failed;
    return;
  }
  BCP_ENSURE_MSG(!high_done_.empty(),
                 "high-radio completion without a pending send");
  auto done = std::move(high_done_.front());
  high_done_.pop_front();
  if (done) done(success);
}

void DualRadioNode::send(const net::DataPacket& packet) {
  if (!up_) {
    ++delivery_->drops.node_down;
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
  // here would strand the sender session waiting for a wake-up completion
  // that never fires (the radio is already awake).
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

void DualRadioNode::on_low_rx(const net::Message& msg) {
  if (msg.dst == self_) {
    agent_.on_low_message(msg);
    return;
  }
  // Relay the control message one more low-radio hop (below BCP, §3).
  const net::NodeId next = low_routes_.next_hop(self_, msg.dst);
  if (next == net::kInvalidNode) return;
  sensor_mac().enqueue(msg, next);
}

void DualRadioNode::on_high_rx(const net::Message& msg) {
  if (const auto* frame = std::get_if<net::BulkFrame>(&msg.body)) {
    agent_.on_bulk_frame(*frame);
  }
  // Anything else over the high radio is ignored: BCP only ships bulk
  // frames there.
}

}  // namespace bcp::app
