// Finite per-node energy budgets (network-lifetime experiments).
//
// EnergyMeter is an unbounded accumulator; a Battery inverts it into a
// budget. It watches one or two meters (a dual-radio node drains a single
// battery through both radios) and keeps exactly one depletion event armed
// in the simulator: because every meter category draws constant power, the
// depletion instant under the current power state is exactly computable,
// so depletion is an *event*, never a polling loop. The owner re-arms the
// battery from Radio's energy observer whenever a radio changes state.
//
// Depletion fires `on_depleted` once; the owner routes that into the same
// crash teardown fault plans use (app::detail::Partition::crash), and the
// death is unrecoverable. Wake-up lump charges are indivisible, so a node
// that dies mid-wakeup can overshoot its budget by at most one e_wakeup
// lump.
#pragma once

#include <array>
#include <functional>

#include "energy/energy_meter.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace bcp::energy {

/// Scenario-level battery knobs (on app::ScenarioConfig). Default-off and
/// golden-protected like capture: with `enabled == false` nothing in the
/// run observes the other fields and every export is byte-identical.
struct BatterySpec {
  bool enabled = false;

  /// Initial charge per radio class, in joules. A node's battery capacity
  /// is the sum over the radio classes it actually owns; a class budget of
  /// zero means that class draws from an infinite source (no battery is
  /// created for nodes whose owned classes are all zero). Defaults are
  /// sized against Table 1: 150 J idles a Mica sensor radio (0.03 W) for
  /// ~5000 s; 600 J idles an always-on Cabletron 802.11 radio (0.83 W)
  /// for ~720 s — the asymmetry the lifetime bench measures.
  util::Joules sensor_initial_j = 150.0;
  util::Joules wifi_initial_j = 600.0;

  /// Weight of the battery fraction in the lifetime-aware route cost
  /// (net::RoutePolicy::kLifetimeAware): entering relay v costs
  /// 1 + lifetime_weight * drawn(v)/capacity(v) hops-equivalent.
  double lifetime_weight = 4.0;

  /// How often lifetime-aware routing re-reads battery fractions
  /// (LinkState::touch() cadence). Unused under kShortestPath.
  util::Seconds reroute_period = 30.0;

  void validate() const;
};

/// Runtime budget for one node. Construct with the node's total capacity
/// and a death action, attach the node's meter(s), then rearm() once after
/// the radios reach their boot state and again on every radio state change
/// (the node assemblies forward their radios' on_radio_energy_changed).
class Battery {
 public:
  Battery(sim::Simulator& sim, util::Joules capacity,
          std::function<void()> on_depleted);

  Battery(const Battery&) = delete;
  Battery& operator=(const Battery&) = delete;
  ~Battery();

  /// Registers a meter to draw from this battery (at most two).
  void attach(const EnergyMeter* meter);

  /// Recomputes the depletion event from the current draw: cancels any
  /// pending death, then (a) if the budget is already spent, schedules
  /// death *now* (deferred one event so death never runs inside a radio
  /// state-change call stack); (b) if any attached meter draws power,
  /// schedules death at the exactly-computed depletion instant; (c) if
  /// the node draws nothing, leaves no event armed.
  void rearm();

  util::Joules capacity() const { return capacity_; }

  /// Energy drawn so far (sum of attached meters at sim.now()); frozen at
  /// the death snapshot once depleted.
  util::Joules drawn() const;

  util::Joules remaining() const { return capacity_ - drawn(); }
  bool depleted() const { return depleted_; }

  /// Simulation time of depletion; -1 while alive.
  util::Seconds death_time() const { return death_time_; }

 private:
  void die();

  sim::Simulator& sim_;
  util::Joules capacity_;
  std::function<void()> on_depleted_;
  std::array<const EnergyMeter*, 2> meters_{};
  int meter_count_ = 0;
  sim::Simulator::EventHandle death_event_;
  bool depleted_ = false;
  util::Seconds death_time_ = -1.0;
  util::Joules drawn_at_death_ = 0.0;
};

}  // namespace bcp::energy
