#include "phy/radio.hpp"

#include "util/assert.hpp"

namespace bcp::phy {

const char* to_string(RadioState s) {
  switch (s) {
    case RadioState::kOff:      return "off";
    case RadioState::kWaking:   return "waking";
    case RadioState::kIdle:     return "idle";
    case RadioState::kRx:       return "rx";
    case RadioState::kOverhear: return "overhear";
    case RadioState::kTx:       return "tx";
  }
  return "?";
}

Radio::Radio(sim::Simulator& sim, Channel& channel, net::NodeId self,
             const energy::RadioEnergyModel& model, OverhearMode overhear,
             bool start_on)
    : sim_(sim),
      channel_(channel),
      self_(self),
      overhear_(overhear),
      meter_(model) {
  channel_.attach(self, this);
  if (start_on) {
    state_ = RadioState::kIdle;
    meter_.transition(energy::EnergyCategory::kIdle, sim_.now());
  }
}

energy::EnergyCategory Radio::category_of(RadioState s) const {
  switch (s) {
    case RadioState::kOff:      return energy::EnergyCategory::kOff;
    case RadioState::kWaking:   return energy::EnergyCategory::kWaking;
    case RadioState::kIdle:     return energy::EnergyCategory::kIdle;
    case RadioState::kRx:       return energy::EnergyCategory::kRx;
    case RadioState::kOverhear: return energy::EnergyCategory::kOverhear;
    case RadioState::kTx:       return energy::EnergyCategory::kTx;
  }
  BCP_ENSURE_MSG(false, "bad state");
}

void Radio::set_state(RadioState s) {
  state_ = s;
  meter_.transition(category_of(s), sim_.now());
  // Every power-state change funnels through here, so this one hook is
  // enough for a finite battery to re-arm its depletion event. power_on()
  // charges its e_wakeup lump before entering kWaking, so the owner
  // always sees the lump already drawn.
  if (report_energy_) owner_->on_radio_energy_changed(*this);
}

void Radio::power_on() {
  if (state_ != RadioState::kOff) return;
  meter_.add_wakeup_charge();
  set_state(RadioState::kWaking);
  const auto finish = [this] {
    set_state(RadioState::kIdle);
    if (owner_ != nullptr) owner_->on_radio_wake_complete(*this);
  };
  if (model().t_wakeup <= 0.0) {
    finish();
  } else {
    wake_event_ = sim_.schedule_in(model().t_wakeup, finish);
  }
}

void Radio::power_off() {
  BCP_REQUIRE_MSG(state_ != RadioState::kTx,
                  "cannot power off mid-transmission");
  if (state_ == RadioState::kOff) return;
  sim_.cancel(wake_event_);
  sim_.cancel(header_done_event_);
  lock_tx_id_ = 0;
  lock_addressed_ = false;
  set_state(RadioState::kOff);
}

void Radio::force_off() {
  if (state_ == RadioState::kOff) return;
  if (state_ == RadioState::kTx) {
    channel_.abort_tx_of(self_);
    sim_.cancel(tx_end_event_);
  }
  sim_.cancel(wake_event_);
  sim_.cancel(header_done_event_);
  lock_tx_id_ = 0;
  lock_addressed_ = false;
  set_state(RadioState::kOff);
}

void Radio::transmit(const Frame& frame) {
  BCP_REQUIRE_MSG(ready(), "transmit on a radio that is not ready");
  BCP_REQUIRE(frame.tx_node == self_);
  // Abandon any reception in progress — half-duplex.
  lock_tx_id_ = 0;
  lock_addressed_ = false;
  sim_.cancel(header_done_event_);
  const util::Seconds duration = frame.duration(model().rate);
  set_state(RadioState::kTx);
  channel_.start_tx(self_, frame, duration);
  tx_end_event_ = sim_.schedule_in(duration, [this] {
    set_state(RadioState::kIdle);
    if (link_ != nullptr) link_->on_radio_tx_done();
  });
}

void Radio::on_rx_start(std::uint64_t tx_id, const Frame& frame,
                        util::Seconds duration) {
  (void)duration;
  if (state_ != RadioState::kIdle) return;  // off, waking, or busy
  const bool addressed = frame.rx_node == self_ ||
                         frame.rx_node == net::kBroadcastNode;
  if (addressed) {
    lock_tx_id_ = tx_id;
    lock_addressed_ = true;
    set_state(RadioState::kRx);
    return;
  }
  switch (overhear_) {
    case OverhearMode::kNone:
      return;  // stay idle; the frame costs us nothing
    case OverhearMode::kHeaderOnly: {
      // Listen to the link header, recognise the frame is not ours, and go
      // back to idle; on_rx_end for this frame is then ignored.
      lock_tx_id_ = tx_id;
      lock_addressed_ = false;
      set_state(RadioState::kOverhear);
      const util::Seconds header_time = frame.header_duration(model().rate);
      header_done_event_ = sim_.schedule_in(header_time, [this] {
        if (state_ == RadioState::kOverhear) {
          lock_tx_id_ = 0;
          set_state(RadioState::kIdle);
        }
      });
      return;
    }
    case OverhearMode::kFull:
      lock_tx_id_ = tx_id;
      lock_addressed_ = false;
      set_state(RadioState::kOverhear);
      return;
  }
}

void Radio::on_rx_end(std::uint64_t tx_id, const Frame& frame, bool clean) {
  if (lock_tx_id_ != tx_id) return;  // never locked, or lock was abandoned
  // An abort-truncated frame can end BEFORE its header-only timer fires;
  // kill the timer with the lock, or its stale expiry would clear a later
  // frame's overhear lock (it guards on state, not tx id).
  sim_.cancel(header_done_event_);
  const bool addressed = lock_addressed_;
  lock_tx_id_ = 0;
  lock_addressed_ = false;
  set_state(RadioState::kIdle);
  if (!clean) return;
  if (addressed) {
    if (link_ != nullptr) link_->on_radio_frame_received(frame);
  } else {
    // Only kFull overhearers are still locked at frame end.
    if (owner_ != nullptr) owner_->on_radio_frame_overheard(*this, frame);
  }
}

}  // namespace bcp::phy
