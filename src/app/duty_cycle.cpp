#include "app/duty_cycle.hpp"

#include "mac/mac_params.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::app {

DutyCycledWifiNode::DutyCycledWifiNode(
    sim::Simulator& sim, phy::Channel& channel,
    const net::Router& routes, net::NodeId self, net::NodeId sink,
    const energy::RadioEnergyModel& radio_model, Schedule schedule,
    std::uint64_t seed, DeliverySink* delivery)
    : sim_(sim),
      routes_(routes),
      self_(self),
      sink_(sink),
      schedule_(schedule),
      delivery_(delivery),
      radio_(sim, channel, self, radio_model, phy::OverhearMode::kFull,
             /*start_on=*/false),
      mac_params_(mac::dcf_mac_params()),
      mac_(sim, radio_, mac_params_,
           util::substream(seed, static_cast<std::uint64_t>(self),
                           0x445459u)) {
  BCP_REQUIRE(delivery != nullptr);
  BCP_REQUIRE(schedule_.period > 0);
  BCP_REQUIRE(schedule_.duty > 0 && schedule_.duty <= 1.0);
  mac_.set_rx_callback(
      [this](const net::Message& m, net::NodeId from) { on_rx(m, from); });
  mac_.set_tx_done_callback([this](const net::Message& m, net::NodeId,
                                    bool success) {
    if (!success && m.is_data())
      delivery_->dropped(std::get<net::DataPacket>(m.body), "mac-failed");
    if (awaiting_quiesce_ && mac_.idle()) on_window_close();
  });
  // The usable window begins once the radio's off->on transition finishes
  // (a PSM radio starts waking ahead of the window; equivalently, the
  // window here is wake + duty*period of usable air time).
  radio_.callbacks().wake_complete = [this] {
    window_open_ = true;
    pump();
  };
  // All nodes share the synchronized schedule, first window at t=0.
  sim_.schedule_in(0.0, [this] { on_window_open(); });
}

void DutyCycledWifiNode::crash() {
  if (!up_) return;
  up_ = false;
  window_open_ = false;
  awaiting_quiesce_ = false;
  // The open chain re-schedules itself with no stored handle, so it
  // cannot be cancelled here; instead the next pending open fires once,
  // sees the up_ gate, and the chain ends. Bumping the generation kills
  // any in-flight close the same way it kills overrun closes.
  ++window_generation_;
  pending_.clear();
  mac_.reset_on_crash();
  radio_.force_off();
}

void DutyCycledWifiNode::send(const net::DataPacket& packet) {
  if (!up_) {
    delivery_->dropped(packet, "node-down");
    return;
  }
  net::Message msg;
  msg.src = self_;
  msg.dst = packet.destination;
  msg.body = packet;
  if (msg.dst == self_) {
    delivery_->delivered(packet);
    return;
  }
  pending_.push_back(std::move(msg));
  if (window_open_) pump();
}

void DutyCycledWifiNode::on_window_open() {
  if (!up_) return;  // dead: let the self-rescheduling chain end here
  awaiting_quiesce_ = false;
  ++window_generation_;
  const std::uint64_t generation = window_generation_;
  radio_.power_on();  // charges the wake-up lump; wake_complete opens
  // A close that lands after the next window already opened is stale
  // (high duty factors make wake + usable time overrun the period; at
  // duty = 1 the radio is effectively always on).
  sim_.schedule_in(radio_.model().t_wakeup +
                       schedule_.period * schedule_.duty,
                   [this, generation] {
                     if (generation == window_generation_)
                       on_window_close();
                   });
  sim_.schedule_in(schedule_.period, [this] { on_window_open(); });
}

void DutyCycledWifiNode::on_window_close() {
  window_open_ = false;
  if (!mac_.idle() || radio_.state() == phy::RadioState::kTx) {
    // Let the in-flight exchange finish; tx_done re-checks.
    awaiting_quiesce_ = true;
    return;
  }
  awaiting_quiesce_ = false;
  if (radio_.state() != phy::RadioState::kOff) radio_.power_off();
}

void DutyCycledWifiNode::pump() {
  while (!pending_.empty()) {
    net::Message msg = std::move(pending_.front());
    pending_.pop_front();
    forward(msg);
  }
}

void DutyCycledWifiNode::forward(const net::Message& msg) {
  const net::NodeId next = routes_.next_hop(self_, msg.dst);
  if (next == net::kInvalidNode) {
    if (msg.is_data())
      delivery_->dropped(std::get<net::DataPacket>(msg.body), "no-route");
    return;
  }
  if (!mac_.enqueue(msg, next)) {
    if (msg.is_data())
      delivery_->dropped(std::get<net::DataPacket>(msg.body), "queue-full");
  }
}

void DutyCycledWifiNode::on_rx(const net::Message& msg, net::NodeId) {
  if (msg.dst == self_) {
    if (msg.is_data())
      delivery_->delivered(std::get<net::DataPacket>(msg.body));
    return;
  }
  // Relay; if the window just closed the MAC still drains this frame
  // before the radio sleeps (quiesce path above).
  if (window_open_)
    forward(msg);
  else
    pending_.push_back(msg);
}

}  // namespace bcp::app
