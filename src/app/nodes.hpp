// Node assemblies for the three §4.1 evaluation models.
//
// ForwardingNode — a single-radio node (Sensor or pure-802.11 model):
//   workload/relayed packets are queued straight into the MAC toward the
//   sink, hop by hop along a static routing table.
//
// DualRadioNode — a dual-radio node running BCP: the sensor radio carries
//   the routed wake-up handshake (relayed below BCP by this class), the
//   802.11 radio carries bulk frames, and core::BcpAgent does the rest.
//   This class is the simulator's implementation of core::BcpHost.
#pragma once

#include <functional>
#include <memory>

#include "core/bcp_agent.hpp"
#include "core/bcp_host.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac.hpp"
#include "mac/mac_spec.hpp"
#include "net/routing.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/sliding_queue.hpp"

namespace bcp::mac {
struct TdmaSchedule;
}

namespace bcp::app {

class DutyCycledWifiNode;

/// Where delivered packets and drop notices end up (owned by the scenario).
struct DeliverySink {
  std::function<void(const net::DataPacket&)> delivered;
  std::function<void(const net::DataPacket&, const char*)> dropped;
};

/// Which concrete MAC a node assembly instantiates behind the mac::Mac
/// seam. The default (kAuto family + the class MacParams) is the
/// historical CSMA/CA engine, bit-for-bit. A kTdma choice needs resolved
/// TdmaParams and a schedule that outlives the node (the scenario owns
/// both).
struct MacChoice {
  mac::MacParams csma;
  mac::MacFamily family = mac::MacFamily::kAuto;
  mac::TdmaParams tdma;
  const mac::TdmaSchedule* schedule = nullptr;
};

/// Instantiates the chosen family. CSMA choices consume `seed` exactly as
/// the pre-seam concrete members did (the byte-identical contract); TDMA
/// draws its per-node clock drift from it.
std::unique_ptr<mac::Mac> make_mac(sim::Simulator& sim, phy::Radio& radio,
                                   const MacChoice& choice,
                                   std::uint64_t seed);

/// Single-radio store-and-forward node.
class ForwardingNode {
 public:
  ForwardingNode(sim::Simulator& sim, phy::Channel& channel,
                 const net::Router& routes, net::NodeId self,
                 net::NodeId sink, const energy::RadioEnergyModel& radio_model,
                 phy::OverhearMode overhear, const MacChoice& mac_choice,
                 std::uint64_t seed, DeliverySink* delivery);

  /// Entry point for locally generated packets. While the node is down,
  /// packets are dropped with reason "node-down".
  void send(const net::DataPacket& packet);

  /// Fault injection: crash kills the radio mid-whatever (cancelling all
  /// pending MAC timers, truncating an in-flight frame) and silently
  /// discards queued traffic; recover reboots with empty state (the radio
  /// pays its wake-up charge). Both are idempotent.
  void crash();
  void recover();
  bool up() const { return up_; }

  phy::Radio& radio() { return radio_; }
  const phy::Radio& radio() const { return radio_; }
  mac::Mac& mac() { return *mac_; }
  const mac::Mac& mac() const { return *mac_; }
  net::NodeId self() const { return self_; }

 private:
  void forward(const net::Message& msg);
  void on_rx(const net::Message& msg, net::NodeId from);

  sim::Simulator& sim_;
  const net::Router& routes_;
  net::NodeId self_;
  net::NodeId sink_;
  DeliverySink* delivery_;
  bool up_ = true;
  phy::Radio radio_;
  // Behind the seam: which family lives here is a MacChoice decision made
  // once per run at construction (not hot-path state).
  std::unique_ptr<mac::Mac> mac_;
};

/// Dual-radio node: sensor radio + CSMA MAC for control, 802.11 radio +
/// DCF MAC for bulk data, and a BcpAgent in between.
class DualRadioNode final : public core::BcpHost {
 public:
  DualRadioNode(sim::Simulator& sim, phy::Channel& low_channel,
                phy::Channel& high_channel, const net::Router& low_routes,
                const net::Router& high_routes, net::NodeId self,
                const energy::RadioEnergyModel& sensor_model,
                const energy::RadioEnergyModel& wifi_model,
                const core::BcpConfig& bcp_config,
                phy::OverhearMode wifi_overhear, std::uint64_t seed,
                DeliverySink* delivery,
                const MacChoice& low_mac = MacChoice{mac::sensor_mac_params(),
                                                     mac::MacFamily::kAuto,
                                                     {},
                                                     nullptr},
                const MacChoice& high_mac = MacChoice{mac::dcf_mac_params(),
                                                      mac::MacFamily::kAuto,
                                                      {},
                                                      nullptr});

  /// Entry point for locally generated packets (goes through BCP). While
  /// the node is down, packets are dropped with reason "node-down".
  void send(const net::DataPacket& packet);

  /// Fault injection: crash cancels every pending BCP host timer and MAC
  /// timer, truncates in-flight frames, loses buffered bursts, and forces
  /// both radios dark; recover reboots with a clean protocol state (the
  /// sensor radio pays its wake-up, the 802.11 radio stays off until BCP
  /// next needs it). Both are idempotent.
  void crash();
  void recover();
  bool up() const { return up_; }

  core::BcpAgent& agent() { return agent_; }
  const core::BcpAgent& agent() const { return agent_; }
  phy::Radio& sensor_radio() { return low_radio_; }
  const phy::Radio& sensor_radio() const { return low_radio_; }
  phy::Radio& wifi_radio() { return high_radio_; }
  const phy::Radio& wifi_radio() const { return high_radio_; }
  mac::Mac& sensor_mac() { return *low_mac_; }
  const mac::Mac& sensor_mac() const { return *low_mac_; }
  mac::Mac& wifi_mac() { return *high_mac_; }
  const mac::Mac& wifi_mac() const { return *high_mac_; }

  // core::BcpHost:
  net::NodeId self() const override { return self_; }
  util::Seconds now() const override { return sim_.now(); }
  TimerId set_timer(util::Seconds delay,
                    core::BcpHost::TimerCallback callback) override;
  void cancel_timer(TimerId id) override;
  void send_low(net::MessageRef msg) override;
  void send_high(net::MessageRef msg, net::NodeId peer,
                 core::BcpHost::SendDone done) override;
  void high_radio_on() override;
  void high_radio_off() override;
  bool high_radio_ready() const override;
  net::NodeId high_next_hop(net::NodeId dest) const override;
  bool high_link_exists(net::NodeId peer) const override;
  void deliver(const net::DataPacket& packet) override;
  void packet_dropped(const net::DataPacket& packet,
                      const char* reason) override;

 private:
  void on_low_rx(const net::Message& msg, net::NodeId from);
  void on_high_rx(const net::Message& msg, net::NodeId from);
  void try_power_off();

  sim::Simulator& sim_;
  const phy::Channel& high_channel_;
  const net::Router& low_routes_;
  const net::Router& high_routes_;
  net::NodeId self_;
  DeliverySink* delivery_;
  bool up_ = true;
  // Constructed in declaration order (radios before MACs before the
  // agent, which binds to *this as its BcpHost).
  phy::Radio low_radio_;
  phy::Radio high_radio_;
  std::unique_ptr<mac::Mac> low_mac_;
  std::unique_ptr<mac::Mac> high_mac_;
  core::BcpAgent agent_;
  /// Completion callbacks for in-flight high-radio sends, FIFO with the
  /// MAC's single queue.
  util::SlidingQueue<core::BcpHost::SendDone> high_done_;
};

/// The one crash teardown shared by fault-plan crashes and battery
/// deaths: crash the node assembly (exactly one of `fwd`/`dual`/`duty`
/// is non-null — whichever the scenario's evaluation model built for
/// `node`) and, when `links` is non-null, take the node down there so
/// channels stop delivering to it and routing re-converges. Idempotent,
/// like the crash() members it funnels into.
void crash_node(ForwardingNode* fwd, DualRadioNode* dual,
                DutyCycledWifiNode* duty, net::NodeId node,
                net::LinkState* links);

}  // namespace bcp::app
