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

/// Per-radio-class integrated energy, summed over all nodes. The table
/// lists each component (util::Joules, default 0) once; the members,
/// operator+=, operator== and for_each_energy are generated from it.
#define BCP_RADIO_ENERGY_FIELDS(X)                                            \
  X(tx)                                                                       \
  X(rx)                                                                       \
  X(overhear)                                                                 \
  X(idle)                                                                     \
  X(wakeup)

struct RadioEnergyTotals {
#define BCP_ENERGY_MEMBER(name) util::Joules name = 0;
  BCP_RADIO_ENERGY_FIELDS(BCP_ENERGY_MEMBER)
#undef BCP_ENERGY_MEMBER

  /// §4.1 "ideal" sensor charge.
  util::Joules ideal() const { return tx + rx; }
  /// Everything — how 802.11 radios are charged.
  util::Joules full() const { return tx + rx + overhear + idle + wakeup; }

  RadioEnergyTotals& operator+=(const RadioEnergyTotals& o) {
#define BCP_ENERGY_ADD(name) name += o.name;
    BCP_RADIO_ENERGY_FIELDS(BCP_ENERGY_ADD)
#undef BCP_ENERGY_ADD
    return *this;
  }
  bool operator==(const RadioEnergyTotals& o) const {
#define BCP_ENERGY_EQ(name) name == o.name &&
    return BCP_RADIO_ENERGY_FIELDS(BCP_ENERGY_EQ) true;
#undef BCP_ENERGY_EQ
  }
};

/// Calls f(name, component) for each energy component in table order;
/// `e` may be const.
template <class E, class F>
void for_each_energy(E& e, F&& f) {
#define BCP_ENERGY_VISIT(name) f(#name, e.name);
  BCP_RADIO_ENERGY_FIELDS(BCP_ENERGY_VISIT)
#undef BCP_ENERGY_VISIT
}

/// How detail::merge_metrics folds one shard's value of a field into the
/// run total.
enum class MergeRule {
  kSum,       ///< counters and energies add up
  kEarliest,  ///< earliest non-negative time; the -1 "never" sentinel loses
  kMax,       ///< the largest value wins
  /// Never merged: no partition writes it, and run_sharded or
  /// finalize_metrics assigns it after the fold (derived ratios, lifetime
  /// marks, the per-shard breakdown).
  kAfterFold,
};

// ---- The RunMetrics field table ----
//
// X(type, name, default, merge rule), one line per field, in member order.
// The struct members, detail::merge_metrics, for_each_metric (and so the
// golden-matrix digest) and first_metric_difference (the thread-count
// determinism gates) are all generated from it, so a new metric is one
// line here. standard_metrics (the golden-protected BENCH export) and
// perfbench's print_counts are curated views with their own key lists:
// neither picks a new field up automatically.
#define BCP_RUN_METRICS(X)                                                    \
  /* Traffic accounting. */                                                   \
  X(std::int64_t, generated, 0, kSum)                                         \
  X(std::int64_t, delivered, 0, kSum)                                         \
  X(std::int64_t, dropped_buffer, 0, kSum)    /* BCP buffer full */           \
  X(std::int64_t, dropped_queue, 0, kSum)     /* MAC queue tail drop */       \
  X(std::int64_t, dropped_mac, 0, kSum)       /* retries exhausted */         \
  X(std::int64_t, dropped_no_route, 0, kSum)                                  \
  /* Generated while the sender was down. */                                  \
  X(std::int64_t, dropped_node_down, 0, kSum)                                 \
  X(double, goodput, 0, kAfterFold)                                           \
  /* Seconds, over delivered packets. */                                      \
  X(double, mean_delay, 0, kAfterFold)                                        \
  X(RadioEnergyTotals, sensor_energy, {}, kSum)                               \
  X(RadioEnergyTotals, wifi_energy, {}, kSum)                                 \
  /* J per delivered Kbit under the model's charging rules (0 if nothing      \
     was delivered), then the two §4.1 sensor curves (populated for every     \
     model for reference). */                                                 \
  X(double, normalized_energy, 0, kAfterFold)                                 \
  X(double, normalized_energy_sensor_ideal, 0, kAfterFold)                    \
  X(double, normalized_energy_sensor_header, 0, kAfterFold)                   \
  /* Protocol/MAC visibility. */                                              \
  X(std::int64_t, mac_tx_attempts, 0, kSum)                                   \
  X(std::int64_t, mac_tx_failed, 0, kSum)                                     \
  X(std::int64_t, bcp_wakeups, 0, kSum)                                       \
  X(std::int64_t, bcp_handshakes_failed, 0, kSum)                             \
  X(std::int64_t, bcp_sender_sessions, 0, kSum)                               \
  X(std::int64_t, bcp_receiver_timeouts, 0, kSum)                             \
  X(std::int64_t, wifi_wakeup_transitions, 0, kSum)                           \
  X(double, wifi_on_seconds, 0, kSum)                                         \
  /* Simulator events dispatched over the run: the denominator-free half      \
     of the events/sec throughput metric the scale bench reports (wall        \
     clock is measured by the caller; event counts are deterministic). */     \
  X(std::uint64_t, events_processed, 0, kSum)                                 \
  /* Fault/churn visibility (all zero for fault-free runs). Each fault        \
     event is counted by exactly one shard: the one owning its primary        \
     node. fault_recoveries_refused counts planned recoveries refused         \
     because the node's battery had depleted by then (battery death is        \
     final). route_rebuilds counts routing rebuilds actually performed        \
     (both radios); with the lazy DynamicRouting this tracks membership       \
     changes, not queries. */                                                 \
  X(std::int64_t, fault_node_crashes, 0, kSum)                                \
  X(std::int64_t, fault_node_recoveries, 0, kSum)                             \
  X(std::int64_t, fault_recoveries_refused, 0, kSum)                          \
  X(std::int64_t, fault_link_downs, 0, kSum)                                  \
  X(std::int64_t, fault_link_ups, 0, kSum)                                    \
  X(std::int64_t, route_rebuilds, 0, kSum)                                    \
  X(std::int64_t, bcp_packets_lost_to_crash, 0, kSum)                         \
  X(std::int64_t, mac_crash_drops, 0, kSum)                                   \
  /* Channel conservation counters, summed over both radio channels:          \
     every rx_start is matched by exactly one rx_end or is still in flight    \
     at the horizon (chan_rx_starts == chan_rx_ends + chan_rx_live_at_end,    \
     per partition and over the sum). */                                      \
  X(std::int64_t, chan_frames, 0, kSum)                                       \
  X(std::int64_t, chan_rx_starts, 0, kSum)                                    \
  X(std::int64_t, chan_rx_ends, 0, kSum)                                      \
  X(std::int64_t, chan_rx_live_at_end, 0, kSum)                               \
  /* TDMA schedule health, summed over nodes (all zero for CSMA runs). */     \
  X(std::int64_t, tdma_beacons_sent, 0, kSum)                                 \
  X(std::int64_t, tdma_beacons_heard, 0, kSum)                                \
  X(std::int64_t, tdma_slots_skipped, 0, kSum)                                \
  /* Graceful-degradation / lifetime visibility (sentinel values when         \
     batteries are off). time_to_first_death: seconds to the first battery    \
     depletion, -1 = nobody died. time_to_sink_partition: seconds until       \
     some alive node lost every path to the sink (LinkState-masked            \
     reachability, checked at each death), -1 = never. The two                \
     delivered_bits_until_* count payload bits delivered at the sink          \
     before the first death / partition (the whole run's deliveries when      \
     the event never came). battery_max_drawn_fraction: max over              \
     battery-backed nodes of drawn/capacity; the invariant bound is 1 plus    \
     at most one indivisible wake-up lump. */                                 \
  X(std::int64_t, battery_deaths, 0, kSum)                                    \
  X(double, time_to_first_death, -1, kEarliest)                               \
  X(double, time_to_sink_partition, -1, kAfterFold)                           \
  X(std::int64_t, delivered_bits_until_first_death, 0, kAfterFold)            \
  X(std::int64_t, delivered_bits_until_partition, 0, kAfterFold)              \
  X(double, battery_max_drawn_fraction, 0, kMax)                              \
  /* Sharded-engine visibility (empty/zero on the single-queue engine).       \
     shard_events: events dispatched per shard, in shard order; sums to       \
     events_processed (the per-shard events/sec breakdown divides these by    \
     the caller-measured wall clock). boundary_frames: frames that crossed    \
     a stripe edge, each counted once per destination shard, both radio       \
     classes. */                                                              \
  X(std::vector<std::uint64_t>, shard_events, {}, kAfterFold)                 \
  X(std::int64_t, boundary_frames, 0, kAfterFold)

struct RunMetrics {
#define BCP_METRIC_MEMBER(type, name, init, rule) type name = init;
  BCP_RUN_METRICS(BCP_METRIC_MEMBER)
#undef BCP_METRIC_MEMBER
};

/// Calls f(name, rule, field) for every RunMetrics field in member order;
/// `m` may be const.
template <class M, class F>
void for_each_metric(M& m, F&& f) {
#define BCP_METRIC_VISIT(type, name, init, rule) \
  f(#name, MergeRule::rule, m.name);
  BCP_RUN_METRICS(BCP_METRIC_VISIT)
#undef BCP_METRIC_VISIT
}

/// The name of the first RunMetrics field, in member order, whose values
/// differ between `a` and `b` (exact ==, no tolerance), or nullptr when
/// every field matches. The determinism contract is exact, so this is the
/// whole comparison a thread-count or repeat-run check needs.
const char* first_metric_difference(const RunMetrics& a, const RunMetrics& b);

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
