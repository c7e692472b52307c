// Sleep-cycled single-radio node — the §1 strawman BCP is motivated
// against: "One solution is to sleep cycle the radio, alternating the
// state of the radio between sleep and idle. However, such sleep cycling
// cannot reduce the idling energy sufficiently for use in sensor
// networks."
//
// An idealized power-save mode: every node wakes on a network-synchronized
// schedule (`period`, `duty` fraction on), exchanges queued traffic during
// the on-window, and sleeps otherwise. Synchronization is free (no beacon
// or ATIM cost is charged), timers are perfect, and the radio is allowed
// to finish an in-flight exchange past the window edge — every
// simplification favours the sleep-cycled network, which is exactly what
// makes the §1 claim meaningful when BCP still beats it.
#pragma once

#include <memory>

#include "app/nodes.hpp"
#include "energy/radio_model.hpp"
#include "mac/csma_mac.hpp"
#include "net/routing.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/sliding_queue.hpp"

namespace bcp::app {

class DutyCycledWifiNode {
 public:
  struct Schedule {
    util::Seconds period = 1.0;  ///< wake-up interval
    double duty = 0.1;           ///< fraction of the period spent awake
  };

  DutyCycledWifiNode(sim::Simulator& sim, phy::Channel& channel,
                     const net::Router& routes, net::NodeId self,
                     net::NodeId sink,
                     const energy::RadioEnergyModel& radio_model,
                     Schedule schedule, std::uint64_t seed,
                     DeliverySink* delivery);

  /// Entry point for locally generated packets; queued until the next
  /// on-window. While the node is down, packets are dropped with reason
  /// "node-down".
  void send(const net::DataPacket& packet);

  /// Battery-death teardown (duty nodes never appear in fault plans, so
  /// unlike the other assemblies there is no recover()): kills the radio
  /// mid-whatever, discards queued traffic, and permanently ends the
  /// wake-window chain. Idempotent.
  void crash();
  bool up() const { return up_; }

  phy::Radio& radio() { return radio_; }
  const phy::Radio& radio() const { return radio_; }
  mac::CsmaCaMac& mac() { return mac_; }
  std::size_t queued() const { return pending_.size(); }

 private:
  void on_window_open();
  void on_window_close();
  void pump();
  void on_rx(const net::Message& msg, net::NodeId from);
  void forward(const net::Message& msg);

  sim::Simulator& sim_;
  const net::Router& routes_;
  net::NodeId self_;
  net::NodeId sink_;
  Schedule schedule_;
  DeliverySink* delivery_;
  bool up_ = true;
  phy::Radio radio_;
  const mac::MacParams mac_params_;  ///< read in place by mac_
  mac::CsmaCaMac mac_;
  util::SlidingQueue<net::Message> pending_;  ///< waiting for the next window
  bool window_open_ = false;
  bool awaiting_quiesce_ = false;  ///< window closed, MAC still draining
  std::uint64_t window_generation_ = 0;  ///< guards stale close events
};

}  // namespace bcp::app
