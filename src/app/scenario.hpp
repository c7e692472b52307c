// The §4.1 simulation study harness.
//
// A scenario is one run of one evaluation model on the 36-node grid:
//   kSensor    — pure sensor network (data forwarded hop-by-hop over the
//                low-power radio only);
//   kWifi      — pure IEEE 802.11 network (all high-power radios always on);
//   kWifiDutyCycled — the §1 strawman: pure 802.11 with an idealized,
//                cost-free synchronized sleep schedule (duty_cycle of each
//                duty_period_s spent awake);
//   kDualRadio — BCP: wake-ups over the sensor radio, bulk data over the
//                802.11 radio.
//
// Charging rules follow the paper exactly: the sensor radio is charged for
// transmit + receive only ("ideal"; a second curve additionally charges
// header overhearing), while the 802.11 radio is charged for everything —
// transmission, reception, overhearing, idling and waking up.
//
// Metrics (§4.1): goodput — payload bits delivered at the sink over payload
// bits generated by the senders; normalized energy — charged network energy
// per delivered Kbit (J/Kbit); delay — generation-to-sink-delivery time
// including buffering.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bcp_config.hpp"
#include "energy/battery.hpp"
#include "energy/radio_model.hpp"
#include "mac/mac_spec.hpp"
#include "net/message.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/propagation.hpp"
#include "sim/fault_plan.hpp"
#include "util/units.hpp"

namespace bcp::app {

enum class EvalModel { kSensor, kWifi, kWifiDutyCycled, kDualRadio };

const char* to_string(EvalModel m);

/// How the static routes are materialized.
///
///   kAllPairs     — the historical dense n×n shortest-path tables;
///                   control traffic follows graph-shortest paths. O(n²)
///                   memory and O(n·e) build — small networks only.
///   kConvergecast — one sink-rooted tree per radio, O(n) memory and
///                   O(n + e) build; non-sink control destinations follow
///                   tree paths. The large-network scale path.
///   kAuto         — kAllPairs up to kAllPairsNodeLimit nodes (keeping
///                   the paper-grid results bit-for-bit identical to the
///                   historical tables), kConvergecast beyond.
enum class RoutingMode { kAuto, kAllPairs, kConvergecast };

constexpr int kAllPairsNodeLimit = 128;

struct ScenarioConfig {
  EvalModel model = EvalModel::kDualRadio;

  // Placement. Defaults to the paper's §4.1 topology (6×6 grid over
  // 200 m, sink at the corner node 0); any TopologySpec generator works.
  // Radio graphs the chosen evaluation model routes over must reach every
  // node from the sink — run_scenario rejects a disconnected placement
  // with an error naming the stranded nodes.
  net::TopologySpec topology;

  /// Route materialization; see RoutingMode.
  RoutingMode routing = RoutingMode::kAuto;

  // Workload: n senders, CBR at rate_bps each, 32 B packets.
  int n_senders = 10;
  double rate_bps = 200.0;  // 0.2 Kbps
  util::Bits packet_bits = util::bytes(32);

  // Radios. The §4.1 sensor radio is Mica-class (40 Kbps); single-hop runs
  // pair it with Lucent 11 Mbps (sensor-radio range), multi-hop runs with
  // Cabletron reaching the sink in one hop.
  energy::RadioEnergyModel sensor_radio = energy::mica();
  energy::RadioEnergyModel wifi_radio = energy::lucent_11mbps();
  /// >0 overrides the wifi radio's nominal range (the multi-hop case sets
  /// 300 m so a corner sink is one hop from everywhere on the grid).
  util::Metres wifi_range_override = 0;

  // kWifiDutyCycled only: the idealized synchronized sleep schedule.
  double duty_cycle = 0.1;           ///< fraction of each period awake
  util::Seconds duty_period = 1.0;   ///< wake-up interval

  // BCP parameters; burst_threshold is overwritten from burst_packets.
  core::BcpConfig bcp;
  int burst_packets = 500;  ///< α-s* in packets (§4.1: 10..2500)
  /// 802.11 radios overhear promiscuously (full frames) — needed both for
  /// faithful E_o^H charging and for shortcut learning.
  bool wifi_promiscuous = true;

  util::Seconds duration = 5000.0;
  std::uint64_t seed = 1;
  double frame_loss_prob = 0.0;  ///< extra Bernoulli loss on both channels

  /// Link-quality model applied to both channels (kAuto → UnitDisc, the
  /// historical idealized channel — bit-for-bit, so every fig01–fig12
  /// export is unchanged by default). frame_loss_prob composes with the
  /// model's per-link PER as an independent loss.
  phy::PropagationSpec propagation;

  /// SINR-based reception with capture effect, applied to both channels
  /// (default off — the historical all-overlaps-corrupt collision rule,
  /// byte-identical figure exports). Enabled, the strongest frame of a
  /// collision survives when its SINR clears capture_threshold_db; each
  /// channel's noise power comes from its radio's datasheet
  /// (energy::RadioEnergyModel::noise_floor_dbm), and per-link rx powers
  /// from the propagation model (see phy::Channel::Params::capture).
  bool capture_enabled = false;
  double capture_threshold_db = 10.0;

  /// MAC family per radio class (default kAuto = the historical CSMA/CA
  /// engine with the class MacParams — byte-identical figure exports).
  /// kTdma swaps in the sink-coordinated slotted MAC, its slot schedule
  /// derived from that radio's convergecast tree; all-zero TdmaParams
  /// resolve to the class defaults (tdma_sensor_params/tdma_wifi_params).
  /// TDMA on the 802.11 radio requires the always-on kWifi model (slots
  /// presume a listening radio); the sensor radio takes it in kSensor and
  /// kDualRadio.
  mac::MacSpec sensor_mac;
  mac::MacSpec wifi_mac;

  /// Intra-run parallelism: the spatially-sharded engine (see
  /// sim/sharded_simulator.hpp and the README "Parallel engine" section).
  /// 1 (default) = the historical single-queue engine — every BENCH
  /// export byte-identical. >1 = the node plane is cut into `shards`
  /// equal-population x-stripes, each with its own event queue and
  /// channel partitions, advanced in shard_window-second parity-phased
  /// windows with boundary frames exchanged at the barriers. Results are
  /// deterministic at a fixed shard count regardless of sim_threads, but
  /// cross-stripe collision timing is relaxed (late by < shard_window) —
  /// sharded metrics form their own contract, distinct from shards == 1.
  /// Fault plans and finite batteries are supported via membership epochs
  /// published at window barriers; only TDMA MACs are rejected.
  int shards = 1;
  /// Worker threads for the sharded engine; 0 = auto, 1 = run the shards
  /// inline (identical results to any other thread count).
  int sim_threads = 0;
  /// Sharded engine exchange window (seconds).
  util::Seconds shard_window = 0.02;

  /// Deterministic node-churn / link-flap schedule (empty = the paper's
  /// static always-alive network). Executed as simulator events; crashed
  /// nodes cancel all pending MAC/BCP timers, routing re-converges on the
  /// alive subgraph (see net::DynamicRouting), and recovery reboots them
  /// with clean protocol state. Not supported for kWifiDutyCycled.
  sim::FaultPlanSpec faults;

  /// Finite per-node energy budgets (default off — the historical
  /// unbounded accumulator, byte-identical exports). Enabled, every node
  /// draws its radios' integrated energy against a battery sized per
  /// radio class and dies at the exactly-computed depletion instant via
  /// the crash path — unrecoverably: a fault-plan recovery scheduled for
  /// a battery-dead node is a no-op (counted as fault_recoveries_refused).
  energy::BatterySpec battery;

  /// Route scoring for both radios' DynamicRouting (see net::RoutePolicy).
  /// kLifetimeAware requires battery.enabled and bends convergecast
  /// routes around nearly-depleted relays, refreshing every
  /// battery.reroute_period.
  net::RoutePolicy route_policy = net::RoutePolicy::kShortestPath;

  /// Throws std::invalid_argument, with a message naming the knob, for
  /// any configuration run_scenario cannot run. Needs no placement:
  /// run_scenario calls it before topology.build().
  void validate() const;

  /// SH case preset (§4.1.1): Lucent 11 Mbps, same hops as the sensor
  /// radio, 0.2 Kbps senders.
  static ScenarioConfig single_hop(EvalModel model, int senders,
                                   int burst_packets);
  /// MH case preset (§4.1.2): Cabletron one hop to the sink, 2 Kbps senders.
  static ScenarioConfig multi_hop(EvalModel model, int senders,
                                  int burst_packets);
};

/// Per-radio-class integrated energy, summed over all nodes.
struct RadioEnergyTotals {
  util::Joules tx = 0;
  util::Joules rx = 0;
  util::Joules overhear = 0;
  util::Joules idle = 0;
  util::Joules wakeup = 0;

  /// §4.1 "ideal" sensor charge.
  util::Joules ideal() const { return tx + rx; }
  /// Everything — how 802.11 radios are charged.
  util::Joules full() const { return tx + rx + overhear + idle + wakeup; }
};

struct RunMetrics {
  // Traffic accounting.
  std::int64_t generated = 0;
  std::int64_t delivered = 0;
  std::int64_t dropped_buffer = 0;    ///< BCP buffer full
  std::int64_t dropped_queue = 0;     ///< MAC queue tail drop
  std::int64_t dropped_mac = 0;       ///< retries exhausted
  std::int64_t dropped_no_route = 0;
  std::int64_t dropped_node_down = 0; ///< generated while the sender was down

  double goodput = 0;
  double mean_delay = 0;  ///< seconds, over delivered packets

  RadioEnergyTotals sensor_energy;
  RadioEnergyTotals wifi_energy;

  /// J per delivered Kbit under the model's charging rules (0 if nothing
  /// was delivered).
  double normalized_energy = 0;
  /// The two §4.1 sensor curves (populated for every model for reference).
  double normalized_energy_sensor_ideal = 0;
  double normalized_energy_sensor_header = 0;

  // Protocol/MAC visibility.
  std::int64_t mac_tx_attempts = 0;
  std::int64_t mac_tx_failed = 0;
  std::int64_t bcp_wakeups = 0;
  std::int64_t bcp_handshakes_failed = 0;
  std::int64_t bcp_sender_sessions = 0;
  std::int64_t bcp_receiver_timeouts = 0;
  std::int64_t wifi_wakeup_transitions = 0;
  double wifi_on_seconds = 0;

  /// Simulator events dispatched over the run — the denominator-free half
  /// of the events/sec throughput metric the scale bench reports (wall
  /// clock is measured by the caller; event counts are deterministic).
  std::uint64_t events_processed = 0;

  // Fault/churn visibility (all zero for fault-free runs).
  std::int64_t fault_node_crashes = 0;
  std::int64_t fault_node_recoveries = 0;
  /// Planned recoveries refused because the node's battery had depleted
  /// by then (battery death is final) — lets churn+battery cells audit
  /// how much of the fault plan actually executed.
  std::int64_t fault_recoveries_refused = 0;
  std::int64_t fault_link_downs = 0;
  std::int64_t fault_link_ups = 0;
  /// Routing rebuilds actually performed (both radios) — with the lazy
  /// DynamicRouting this tracks membership changes, not queries.
  std::int64_t route_rebuilds = 0;
  std::int64_t bcp_packets_lost_to_crash = 0;
  std::int64_t mac_crash_drops = 0;

  // Channel conservation counters, summed over both radio channels: every
  // rx_start is matched by exactly one rx_end or is still in flight at
  // the horizon (chan_rx_starts == chan_rx_ends + chan_rx_live_at_end —
  // the invariant the cross-model property suite asserts).
  std::int64_t chan_frames = 0;
  std::int64_t chan_rx_starts = 0;
  std::int64_t chan_rx_ends = 0;
  std::int64_t chan_rx_live_at_end = 0;

  // TDMA schedule health, summed over nodes (all zero for CSMA runs; NOT
  // part of standard_metrics — the BENCH format is golden-protected).
  std::int64_t tdma_beacons_sent = 0;
  std::int64_t tdma_beacons_heard = 0;
  std::int64_t tdma_slots_skipped = 0;

  // Graceful-degradation / lifetime visibility (sentinel values when
  // batteries are off; NOT part of standard_metrics — the BENCH format is
  // golden-protected, so benches append these per-cell).
  std::int64_t battery_deaths = 0;
  /// Seconds to the first battery depletion; -1 = nobody died.
  double time_to_first_death = -1;
  /// Seconds until some alive node lost every path to the sink
  /// (LinkState-masked reachability, checked at each death); -1 = never.
  double time_to_sink_partition = -1;
  /// Payload bits delivered at the sink before the first death /
  /// partition (the whole run's deliveries when the event never came).
  std::int64_t delivered_bits_until_first_death = 0;
  std::int64_t delivered_bits_until_partition = 0;
  /// Max over battery-backed nodes of drawn/capacity — the invariant
  /// bound is 1 plus at most one indivisible wake-up lump.
  double battery_max_drawn_fraction = 0;

  // Sharded-engine visibility (empty/zero on the single-queue engine).
  /// Events dispatched per shard, in shard order; sums to
  /// events_processed. The per-shard events/sec breakdown divides these
  /// by the caller-measured wall clock.
  std::vector<std::uint64_t> shard_events;
  /// Frames that crossed a stripe edge (each counted once per
  /// destination shard, both radio classes).
  std::int64_t boundary_frames = 0;
};

/// Runs one scenario to completion and reports its metrics: validates
/// the config, then runs it on the single-queue engine (shards == 1) or
/// the sharded one. Fault plans, finite batteries, and lifetime-aware
/// routing run on both, TDMA MACs on the single queue only. The sharded
/// engine synchronizes per-shard LinkState replicas by membership epochs
/// at window barriers (a remote shard sees a membership change at most
/// one exchange window late) and is deterministic at a fixed shard count
/// for any sim_threads.
RunMetrics run_scenario(const ScenarioConfig& config);

/// Runs `runs` independent replications (seeds config.seed, config.seed+1,
/// ...), as the paper averages 20 runs with 95% confidence intervals.
std::vector<RunMetrics> run_replications(ScenarioConfig config, int runs);

}  // namespace bcp::app
