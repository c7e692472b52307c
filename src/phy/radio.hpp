// A radio device: power state machine + energy accounting + the glue
// between a MAC and the Channel.
//
// States and their energy categories:
//   kOff      — radio dark; arrivals are not heard at all.
//   kWaking   — off->on transition in progress (t_wakeup); the Table 1
//               e_wakeup lump is charged when the transition starts.
//   kIdle     — awake, listening but nothing arriving (p_idle).
//   kRx       — locked on a frame addressed to this node (p_rx).
//   kOverhear — locked on (or sampling the header of) someone else's frame.
//   kTx       — transmitting (p_tx).
//
// Overhearing is an energy/visibility policy (OverhearMode):
//   kNone       — others' frames cost nothing (the §4.1 "ideal" sensor view
//                 is obtained by *charging policy* instead, see energy/);
//   kHeaderOnly — pay p_rx for the link header, then return to idle (the
//                 "Sensor-header" model: nodes decode the header, see the
//                 frame is not theirs, and stop listening);
//   kFull       — receive the whole frame and surface it to the owner's
//                 on_radio_frame_overheard (needed for BCP's route-shortcut
//                 learning, §3).
//
// A radio reports to two observers, each a plain pointer: its link (the
// MAC: own frame done, clean frame for me) and its owner (the node: wake-up
// done, frame overheard, energy draw changed). Either may be unset.
#pragma once

#include <cstdint>

#include "energy/energy_meter.hpp"
#include "energy/radio_model.hpp"
#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"

namespace bcp::phy {

enum class RadioState : std::uint8_t {
  kOff,
  kWaking,
  kIdle,
  kRx,
  kOverhear,
  kTx
};

const char* to_string(RadioState s);

enum class OverhearMode : std::uint8_t { kNone, kHeaderOnly, kFull };

class Radio;

/// The link layer a radio serves (its MAC).
class RadioLink {
 public:
  /// The radio's own frame finished.
  virtual void on_radio_tx_done() = 0;
  /// A clean frame addressed to this node (or broadcast) ended.
  virtual void on_radio_frame_received(const Frame& frame) = 0;

 protected:
  ~RadioLink() = default;
};

/// The node that owns a radio. Every hook names the radio, so one owner
/// can watch several.
class RadioOwner {
 public:
  /// The off->on transition finished.
  virtual void on_radio_wake_complete(Radio& radio) = 0;
  /// A clean frame for another node ended (kFull overhearers only).
  virtual void on_radio_frame_overheard(Radio& radio, const Frame& frame) = 0;
  /// The power state changed, and with it the energy draw (the meter has
  /// already moved to the new category). Finite batteries re-arm their
  /// depletion event here. Only called while the radio reports energy
  /// changes (Radio::report_energy_changes).
  virtual void on_radio_energy_changed(Radio& radio) = 0;

 protected:
  ~RadioOwner() = default;
};

class Radio final : public ChannelListener {
 public:
  /// `start_on` = true puts the radio straight into kIdle with no wake-up
  /// charge (how the always-on sensor radios start). `model` is shared,
  /// not copied: it must outlive the radio.
  Radio(sim::Simulator& sim, Channel& channel, net::NodeId self,
        const energy::RadioEnergyModel& model, OverhearMode overhear,
        bool start_on);
  Radio(sim::Simulator&, Channel&, net::NodeId,
        const energy::RadioEnergyModel&&, OverhearMode, bool) = delete;

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  net::NodeId self() const { return self_; }
  RadioState state() const { return state_; }

  /// True when the radio can accept transmit() (awake and not mid-TX).
  bool ready() const {
    return state_ == RadioState::kIdle || state_ == RadioState::kRx ||
           state_ == RadioState::kOverhear;
  }
  bool is_on() const { return state_ != RadioState::kOff; }

  /// Begins the off->on transition (no-op unless kOff). Charges e_wakeup
  /// and tells the owner after t_wakeup.
  void power_on();

  /// Immediate shutdown. Aborts any reception in progress. Must not be
  /// called mid-transmission (the MAC drains first).
  void power_off();

  /// Crash shutdown: like power_off() but legal mid-transmission — the
  /// in-flight frame is truncated (corrupted for every hearer via
  /// Channel::abort_tx_of) and the link never hears on_radio_tx_done. The
  /// owner must reset its MAC state alongside; this is the fault-injection
  /// path, not a protocol-level power-down.
  void force_off();

  /// Puts `frame` on the air. Requires ready(); an in-progress reception
  /// is abandoned (half-duplex). The link hears on_radio_tx_done when the
  /// frame ends.
  void transmit(const Frame& frame);

  /// Carrier sense, delegated to the channel.
  bool channel_busy() const { return channel_.busy_at(self_); }
  util::Seconds channel_clear_at() const { return channel_.clear_at(self_); }

  const energy::RadioEnergyModel& model() const { return meter_.model(); }
  energy::EnergyMeter& meter() { return meter_; }
  const energy::EnergyMeter& meter() const { return meter_; }

  /// Attach the observers (nullptr detaches). Neither is owned; each must
  /// outlive the radio while attached.
  void set_link(RadioLink* link) { link_ = link; }
  void set_owner(RadioOwner* owner) { owner_ = owner; }
  /// Whether every power-state change also reaches the owner's
  /// on_radio_energy_changed (what a finite battery needs). Off, the
  /// default, a state change costs one branch here and no call.
  void report_energy_changes(bool on) { report_energy_ = on; }

  // ChannelListener:
  void on_rx_start(std::uint64_t tx_id, const Frame& frame,
                   util::Seconds duration) override;
  void on_rx_end(std::uint64_t tx_id, const Frame& frame,
                 bool clean) override;

 private:
  void set_state(RadioState s);
  energy::EnergyCategory category_of(RadioState s) const;

  sim::Simulator& sim_;
  Channel& channel_;
  net::NodeId self_;
  OverhearMode overhear_;
  // The one-byte fields pack beside self_ instead of padding a word each.
  RadioState state_ = RadioState::kOff;
  bool lock_addressed_ = false;      ///< locked frame is for us
  bool report_energy_ = false;
  energy::EnergyMeter meter_;
  RadioLink* link_ = nullptr;
  RadioOwner* owner_ = nullptr;
  std::uint64_t lock_tx_id_ = 0;     ///< frame we are locked on (0 = none)
  sim::Simulator::EventHandle wake_event_;
  sim::Simulator::EventHandle header_done_event_;
  sim::Simulator::EventHandle tx_end_event_;
};

}  // namespace bcp::phy
