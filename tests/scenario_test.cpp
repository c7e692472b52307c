// Integration tests: the full §4.1 grid simulation, all three evaluation
// models, cross-model energy ordering, determinism, robustness to loss.
//
// These use shortened durations/small sender counts so the whole suite
// stays fast; the bench harnesses run the paper-scale versions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "app/scenario.hpp"
#include "mac/mac_spec.hpp"
#include "net/message_ref.hpp"
#include "util/units.hpp"

namespace bcp::app {
namespace {

ScenarioConfig quick(EvalModel model, int senders, int burst,
                     double rate = 2000.0, double duration = 300.0) {
  ScenarioConfig cfg = ScenarioConfig::multi_hop(model, senders, burst);
  cfg.rate_bps = rate;
  cfg.duration = duration;
  cfg.seed = 42;
  return cfg;
}

TEST(Scenario, SensorModelDeliversAtLightLoad) {
  // 3 senders at 0.2 Kbps over ~5 hops ≈ 3 Kb/s of a 40 Kb/s channel —
  // genuinely light (2 Kbps×5 hops×3 senders would already be near
  // saturation for hidden-terminal CSMA).
  const auto m = run_scenario(quick(EvalModel::kSensor, 3, 100, 200.0));
  EXPECT_GT(m.generated, 500);
  EXPECT_GT(m.goodput, 0.9);
  EXPECT_GT(m.mean_delay, 0.0);
  EXPECT_LT(m.mean_delay, 1.0);  // no buffering in the sensor model
  // Only sensor radios exist — no wifi energy at all.
  EXPECT_DOUBLE_EQ(m.wifi_energy.full(), 0.0);
  EXPECT_GT(m.sensor_energy.ideal(), 0.0);
  EXPECT_GT(m.normalized_energy, 0.0);
}

TEST(Scenario, SensorHeaderChargeExceedsIdeal) {
  const auto m = run_scenario(quick(EvalModel::kSensor, 5, 100));
  EXPECT_GT(m.normalized_energy_sensor_header,
            m.normalized_energy_sensor_ideal);
}

TEST(Scenario, WifiModelDeliversWellButBurnsIdleEnergy) {
  const auto m = run_scenario(quick(EvalModel::kWifi, 3, 100));
  EXPECT_GT(m.goodput, 0.95);
  // All 36 radios idle nearly the whole run: idle dominates everything.
  EXPECT_GT(m.wifi_energy.idle, 10.0 * m.wifi_energy.tx);
  EXPECT_GT(m.normalized_energy, 0.0);
}

TEST(Scenario, DualRadioDeliversBulkAndSavesEnergy) {
  const auto dual = run_scenario(quick(EvalModel::kDualRadio, 3, 100));
  EXPECT_GT(dual.goodput, 0.6);
  EXPECT_GT(dual.bcp_wakeups, 0);
  EXPECT_GT(dual.bcp_sender_sessions, 0);
  EXPECT_GT(dual.wifi_wakeup_transitions, 0);
  // The 802.11 radios were mostly off.
  EXPECT_LT(dual.wifi_on_seconds, 0.5 * 36 * 300.0);

  const auto wifi = run_scenario(quick(EvalModel::kWifi, 3, 100));
  // Dual-radio must be far cheaper than the always-on 802.11 network.
  EXPECT_LT(dual.normalized_energy, 0.2 * wifi.normalized_energy);
}

TEST(Scenario, MhDualBeatsSensorIdealEnergyAtModerateBurst) {
  // The headline §4.1.2 result: with one-hop Cabletron bursts the dual
  // model reaches (or beats) even the ideal-energy sensor model.
  const auto dual = run_scenario(quick(EvalModel::kDualRadio, 6, 500,
                                       2000.0, 600.0));
  const auto sensor = run_scenario(quick(EvalModel::kSensor, 6, 500,
                                         2000.0, 600.0));
  ASSERT_GT(dual.delivered, 0);
  ASSERT_GT(sensor.delivered, 0);
  EXPECT_LT(dual.normalized_energy, sensor.normalized_energy_sensor_ideal);
}

TEST(Scenario, BufferingDelayGrowsWithBurstSize) {
  const auto small = run_scenario(quick(EvalModel::kDualRadio, 3, 100));
  const auto large = run_scenario(quick(EvalModel::kDualRadio, 3, 500));
  ASSERT_GT(small.delivered, 0);
  ASSERT_GT(large.delivered, 0);
  EXPECT_GT(large.mean_delay, small.mean_delay);
}

TEST(Scenario, SensorGoodputCollapsesUnderLoad) {
  // §4.1.2: "the goodput degrades very fast as the number of senders
  // increases due to high contention and packet losses."
  const auto light = run_scenario(quick(EvalModel::kSensor, 3, 100));
  const auto heavy = run_scenario(quick(EvalModel::kSensor, 20, 100));
  EXPECT_LT(heavy.goodput, 0.7 * light.goodput);
  EXPECT_GT(heavy.mac_tx_failed, 0);
}

TEST(Scenario, DualRadioKeepsGoodputUnderLoad) {
  const auto dual = run_scenario(quick(EvalModel::kDualRadio, 20, 500));
  const auto sensor = run_scenario(quick(EvalModel::kSensor, 20, 500));
  EXPECT_GT(dual.goodput, sensor.goodput);
}

TEST(Scenario, DeterministicForEqualSeeds) {
  const auto a = run_scenario(quick(EvalModel::kDualRadio, 5, 100));
  const auto b = run_scenario(quick(EvalModel::kDualRadio, 5, 100));
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.normalized_energy, b.normalized_energy);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
  EXPECT_EQ(a.bcp_wakeups, b.bcp_wakeups);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto cfg = quick(EvalModel::kDualRadio, 5, 100);
  const auto a = run_scenario(cfg);
  cfg.seed = 1234;
  const auto b = run_scenario(cfg);
  EXPECT_NE(a.delivered, b.delivered);
}

TEST(Scenario, ExtraFrameLossDegradesButDoesNotBreak) {
  auto cfg = quick(EvalModel::kDualRadio, 5, 100);
  cfg.frame_loss_prob = 0.2;
  const auto lossy = run_scenario(cfg);
  cfg.frame_loss_prob = 0.0;
  const auto clean = run_scenario(cfg);
  EXPECT_GT(lossy.delivered, 0);
  EXPECT_LE(lossy.goodput, clean.goodput + 0.05);
  EXPECT_GT(lossy.mac_tx_attempts, clean.mac_tx_attempts);
}

TEST(Scenario, SingleHopCaseRunsWithLucent11) {
  auto cfg = ScenarioConfig::single_hop(EvalModel::kDualRadio, 4, 100);
  cfg.duration = 1500.0;  // 0.2 Kbps needs time to fill 100-packet bursts
  cfg.seed = 7;
  const auto m = run_scenario(cfg);
  EXPECT_GT(m.delivered, 0);
  EXPECT_GT(m.bcp_sender_sessions, 0);
  EXPECT_GT(m.goodput, 0.3);
}

TEST(Scenario, EnergyConservationAccounting) {
  // Every charged joule must appear in exactly one category; categories sum
  // to the full() totals used by the normalized metrics.
  const auto m = run_scenario(quick(EvalModel::kDualRadio, 4, 100));
  const double wifi_sum = m.wifi_energy.tx + m.wifi_energy.rx +
                          m.wifi_energy.overhear + m.wifi_energy.idle +
                          m.wifi_energy.wakeup;
  EXPECT_DOUBLE_EQ(m.wifi_energy.full(), wifi_sum);
  EXPECT_GE(m.wifi_energy.tx, 0);
  EXPECT_GE(m.wifi_energy.idle, 0);
  // Dual normalized = (sensor ideal + wifi full) / delivered Kbit.
  const double kbits =
      static_cast<double>(m.delivered) * 32 * 8 / 1000.0;
  EXPECT_NEAR(m.normalized_energy,
              (m.sensor_energy.ideal() + m.wifi_energy.full()) / kbits,
              1e-9);
}

TEST(Scenario, ReplicationsVarySeedsAndCount) {
  auto cfg = quick(EvalModel::kSensor, 3, 100, 2000.0, 120.0);
  const auto runs = run_replications(cfg, 3);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_NE(runs[0].delivered, runs[1].delivered);
}

TEST(Scenario, RejectsDisconnectedTopologyNamingStrandedNodes) {
  // 10 nodes over a 5 km square are nowhere near 40 m-connected.
  auto cfg = quick(EvalModel::kSensor, 3, 100);
  cfg.topology.kind = net::TopologyKind::kUniformRandom;
  cfg.topology.nodes = 10;
  cfg.topology.area = 5000.0;
  try {
    run_scenario(cfg);
    FAIL() << "disconnected topology was not rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("disconnected"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot reach sink"), std::string::npos) << what;
    // The stranded-node list is spelled out.
    EXPECT_NE(what.find("["), std::string::npos) << what;
  }
}

TEST(Scenario, EveryPacketReachesSinkOnConnectedRandomTopology) {
  // The satellite property: under kSensor on a connected random
  // placement, light CBR traffic is delivered completely — nothing is
  // dropped anywhere in the stack, and only packets still in flight at
  // the horizon may be missing.
  auto cfg = quick(EvalModel::kSensor, 3, 100, 200.0, 400.0);
  cfg.topology.kind = net::TopologyKind::kUniformRandom;
  cfg.topology.nodes = 30;
  cfg.topology.area = 160.0;
  cfg.topology = net::first_connected(cfg.topology, cfg.sensor_radio.range);
  const auto m = run_scenario(cfg);
  ASSERT_GT(m.generated, 100);
  EXPECT_EQ(m.dropped_buffer, 0);
  EXPECT_EQ(m.dropped_queue, 0);
  EXPECT_EQ(m.dropped_mac, 0);
  EXPECT_EQ(m.dropped_no_route, 0);
  // Allow only the in-flight tail at the simulation horizon.
  EXPECT_GE(m.delivered, m.generated - 2 * cfg.n_senders);
}

TEST(Scenario, GeneratedTopologiesRunAllModels) {
  for (const auto kind :
       {net::TopologyKind::kUniformRandom, net::TopologyKind::kLineCorridor,
        net::TopologyKind::kRing}) {
    auto cfg = quick(EvalModel::kDualRadio, 3, 50, 2000.0, 120.0);
    cfg.topology.kind = kind;
    cfg.topology.nodes = 24;
    cfg.topology.area = 150.0;
    cfg.topology =
        net::first_connected(cfg.topology, cfg.sensor_radio.range);
    const auto m = run_scenario(cfg);
    EXPECT_GT(m.generated, 0) << net::to_string(kind);
    EXPECT_GT(m.delivered, 0) << net::to_string(kind);
  }
}

TEST(Scenario, CrashMidBulkBurstLeaksNoPoolNodesOrStaleHandles) {
  // Every non-sink node is a sender, so every crash victim holds buffered
  // bulk data and likely in-flight MAC frames when it dies. The crash
  // path must cancel all of its pending events (a stale handle firing
  // into reset state would trip a BCP_ENSURE and abort the run) and
  // release every pooled message ref: after the scenario tears down, the
  // thread's MessagePool live count must return to its baseline.
  const std::size_t baseline = net::MessagePool::local().outstanding();
  auto cfg = quick(EvalModel::kDualRadio, 35, 50, 2000.0, 300.0);
  cfg.faults.node_crashes = 6;
  cfg.faults.mean_downtime = 60.0;
  cfg.faults.link_flaps = 2;
  cfg.faults.seed = 5;
  const auto m = run_scenario(cfg);
  EXPECT_EQ(net::MessagePool::local().outstanding(), baseline);
  EXPECT_EQ(m.fault_node_crashes, 6);
  EXPECT_GT(m.delivered, 0);
  // The crashes hit live protocol state, not idle nodes: buffered bulk
  // data and/or queued MAC frames were actually lost.
  EXPECT_GT(m.bcp_packets_lost_to_crash + m.mac_crash_drops, 0);
  // Conservation survives the churn.
  EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end);
}

TEST(Scenario, CrashAndRecoverIsDeterministicAndKeepsDelivering) {
  auto cfg = quick(EvalModel::kDualRadio, 10, 50, 2000.0, 300.0);
  cfg.faults.node_crashes = 4;
  cfg.faults.mean_downtime = 30.0;
  cfg.faults.seed = 2;
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.fault_node_recoveries, 4);
  EXPECT_GT(a.delivered, 0);
  EXPECT_GT(a.route_rebuilds, 0);
}

TEST(Scenario, InvalidConfigsThrow) {
  auto cfg = quick(EvalModel::kSensor, 3, 100);
  cfg.n_senders = 0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  cfg = quick(EvalModel::kSensor, 3, 100);
  cfg.n_senders = 36;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  cfg = quick(EvalModel::kSensor, 3, 100);
  cfg.duration = 0;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(Scenario, SenderBoundIsCheckedBeforeTheTopologyIsBuilt) {
  // The bound uses the spec's exact node_count(): a bad sender count on a
  // million-node grid must be rejected instantly, on both engines, not
  // after paying for the placement build.
  auto cfg = quick(EvalModel::kSensor, 3, 100);
  cfg.topology.grid_side = 1000;  // 1M nodes — building this would hang
  cfg.n_senders = 1000 * 1000;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
  cfg.shards = 4;
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

TEST(Scenario, ValidationRunsBeforePlacementWithPinnedMessages) {
  // Every case pairs one invalid knob with an unbuildable placement
  // (area 0: node_count() ignores it, build() rejects it), so each must
  // fail on its own pinned message, before the topology is built — on
  // both engines.
  struct Case {
    const char* knob;
    void (*mutate)(ScenarioConfig&);
    const char* message;
  };
  const Case cases[] = {
      {"senders", [](ScenarioConfig& c) { c.n_senders = 0; },
       "sender count must be in [1, nodes-1]"},
      {"shards=0", [](ScenarioConfig& c) { c.shards = 0; },
       "shard count must be >= 1"},
      {"shards<0", [](ScenarioConfig& c) { c.shards = -2; },
       "shard count must be >= 1"},
      {"shards>nodes", [](ScenarioConfig& c) { c.shards = 37; },
       "shard count must not exceed the node count"},
      {"sim_threads", [](ScenarioConfig& c) { c.sim_threads = -1; },
       "sim_threads must be >= 0"},
      {"tdma params",
       [](ScenarioConfig& c) {
         c.sensor_mac.family = mac::MacFamily::kTdma;
         c.sensor_mac.tdma.slot_len = -1.0;
       },
       "TDMA slot length must be finite and positive"},
      {"tdma on bcp 802.11",
       [](ScenarioConfig& c) { c.wifi_mac.family = mac::MacFamily::kTdma; },
       "TDMA on the 802.11 radio requires the always-on kWifi model"},
      {"sharded tdma",
       [](ScenarioConfig& c) {
         c.shards = 2;
         c.sensor_mac.family = mac::MacFamily::kTdma;
       },
       "TDMA is not supported on the sharded engine"},
      {"sharded 802.11 tdma",
       [](ScenarioConfig& c) {
         c.model = EvalModel::kWifi;
         c.shards = 2;
         c.wifi_mac.family = mac::MacFamily::kTdma;
       },
       "TDMA is not supported on the sharded engine"},
      {"faults on duty cycle",
       [](ScenarioConfig& c) {
         c.model = EvalModel::kWifiDutyCycled;
         c.faults.node_crashes = 1;
       },
       "fault injection is not supported for the duty-cycled 802.11 "
       "strawman"},
      {"battery budget",
       [](ScenarioConfig& c) {
         c.battery.enabled = true;
         c.battery.sensor_initial_j = -1.0;
       },
       "battery budgets must be non-negative"},
      {"lifetime without battery",
       [](ScenarioConfig& c) {
         c.route_policy = net::RoutePolicy::kLifetimeAware;
       },
       "lifetime-aware routing requires an enabled battery"},
      {"duty cycle",
       [](ScenarioConfig& c) {
         c.model = EvalModel::kWifiDutyCycled;
         c.duty_cycle = 1.5;
       },
       "duty cycle must be in (0, 1]"},
      {"duty period",
       [](ScenarioConfig& c) {
         c.model = EvalModel::kWifiDutyCycled;
         c.duty_period = 0;
       },
       "duty period must be positive"},
  };
  for (const int shards : {1, 4}) {
    for (const Case& k : cases) {
      SCOPED_TRACE(std::string(k.knob) + " shards=" + std::to_string(shards));
      auto cfg = quick(EvalModel::kDualRadio, 3, 100);
      cfg.topology.area = 0;
      cfg.shards = shards;
      k.mutate(cfg);
      try {
        run_scenario(cfg);
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(k.message), std::string::npos)
            << e.what();
      }
    }
  }
  // The control: with every knob valid, the placement itself is what
  // fails.
  auto cfg = quick(EvalModel::kDualRadio, 3, 100);
  cfg.topology.area = 0;
  try {
    run_scenario(cfg);
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("area > 0"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bcp::app
