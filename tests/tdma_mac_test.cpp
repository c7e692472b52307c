// Unit tests: sink-coordinated TDMA MAC — schedule construction, beacon
// sync, collision-free slotting, guard-vs-drift overlap, the missed-beacon
// rule, crash/recover teardown, and the MacSpec validation surface.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "app/scenario.hpp"
#include "energy/radio_model.hpp"
#include "mac/mac_spec.hpp"
#include "mac/tdma_mac.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "test_hosts.hpp"

namespace bcp::mac {
namespace {

using net::NodeId;

net::Message data_msg(NodeId src, NodeId dst, std::uint32_t seq = 1,
                      util::Bits bits = util::bytes(32)) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.body = net::DataPacket{src, dst, seq, bits, 0.0};
  return m;
}

// ------------------------------------------------------------ the schedule

/// A 0 -- 1 -- 2 -- ... -- (n-1) chain; sink at node 0.
struct LineRouter final : net::Router {
  explicit LineRouter(int n) : n_(n) {}
  NodeId next_hop(NodeId from, NodeId to) const override {
    if (from == to) return from;
    return from > to ? from - 1 : from + 1;
  }
  int hops(NodeId from, NodeId to) const override {
    return std::abs(from - to);
  }
  int node_count() const override { return n_; }
  int n_;
};

TEST(TdmaSchedule, LineTreeWeightsAndWaveInterleave) {
  const LineRouter routes(4);
  const TdmaSchedule s = TdmaSchedule::from_tree(routes, 0, 4);
  EXPECT_EQ(s.coordinator, 0);
  // Subtree weights 3/2/1 for nodes 1/2/3 -> 6 slots total, waves ordered
  // deepest-first so every packet can cascade to the sink in one
  // superframe.
  EXPECT_EQ(s.slot_count, 6);
  EXPECT_TRUE(s.slots_of[0].empty());  // the sink only beacons
  EXPECT_EQ(s.slots_of[3], (std::vector<int>{0}));
  EXPECT_EQ(s.slots_of[2], (std::vector<int>{1, 3}));
  EXPECT_EQ(s.slots_of[1], (std::vector<int>{2, 4, 5}));
  // Interior nodes relay the beacon; the sink and the leaf do not.
  EXPECT_FALSE(s.relay[0]);
  EXPECT_TRUE(s.relay[1]);
  EXPECT_TRUE(s.relay[2]);
  EXPECT_FALSE(s.relay[3]);
}

TEST(TdmaSchedule, PureFunctionOfTheTree) {
  const LineRouter routes(6);
  const TdmaSchedule a = TdmaSchedule::from_tree(routes, 0, 6);
  const TdmaSchedule b = TdmaSchedule::from_tree(routes, 0, 6);
  EXPECT_EQ(a.slot_count, b.slot_count);
  EXPECT_EQ(a.slots_of, b.slots_of);
  EXPECT_EQ(a.relay, b.relay);
}

TEST(TdmaSchedule, EveryReachableNodeOwnsItsSubtreeSlots) {
  const LineRouter routes(5);
  const TdmaSchedule s = TdmaSchedule::from_tree(routes, 0, 5);
  // Chain of 4 senders: weights 4+3+2+1 = 10 slots; slot indices are a
  // permutation of 0..9 with no slot owned twice.
  EXPECT_EQ(s.slot_count, 10);
  std::vector<int> owners(10, -1);
  for (NodeId id = 0; id < 5; ++id)
    for (const int slot : s.slots_of[static_cast<std::size_t>(id)]) {
      ASSERT_GE(slot, 0);
      ASSERT_LT(slot, 10);
      EXPECT_EQ(owners[static_cast<std::size_t>(slot)], -1);
      owners[static_cast<std::size_t>(slot)] = id;
    }
  for (const int owner : owners) EXPECT_NE(owner, -1);
}

// ----------------------------------------------------------- the slot MAC

/// A single-hop star: sink (coordinator, node 0) plus `members` nodes, all
/// in mutual range — the worst case for contention, the natural case for
/// slotting. The hand-built schedule gives member i the single slot i-1.
struct Star {
  sim::Simulator sim;
  std::unique_ptr<phy::Channel> channel;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::deque<Mac::Stats> mac_stats;  ///< one block per MAC
  std::vector<std::unique_ptr<TdmaMac>> macs;
  TdmaSchedule schedule;
  TdmaParams params;
  std::vector<net::Message> sink_rx;
  testing_support::FnMacHost sink_host;

  void build(int members, TdmaParams base, std::uint64_t seed0 = 100) {
    std::vector<net::Position> pos{{0, 0}};
    for (int i = 1; i <= members; ++i)
      pos.push_back({static_cast<double>(i), 0});
    channel = std::make_unique<phy::Channel>(sim, std::move(pos), 45.0,
                                             phy::Channel::Params{0.0}, 7);
    schedule.coordinator = 0;
    schedule.slot_count = members;
    schedule.slots_of.assign(static_cast<std::size_t>(members) + 1, {});
    schedule.relay.assign(static_cast<std::size_t>(members) + 1, false);
    for (int i = 1; i <= members; ++i)
      schedule.slots_of[static_cast<std::size_t>(i)] = {i - 1};
    params = base.resolved_for(members, energy::micaz().rate);
    for (NodeId id = 0; id <= members; ++id) {
      radios.push_back(std::make_unique<phy::Radio>(
          sim, *channel, id, energy::micaz(), phy::OverhearMode::kNone,
          true));
      macs.push_back(std::make_unique<TdmaMac>(
          sim, *radios.back(), params, schedule,
          seed0 + static_cast<std::uint64_t>(id), mac_stats.emplace_back()));
    }
    sink_host.rx = [this](const net::Message& m, NodeId) {
      sink_rx.push_back(m);
    };
    macs[0]->set_host(&sink_host);
  }
};

TEST(TdmaMac, StarBacklogDeliversCollisionFree) {
  Star star;
  star.build(4, tdma_sensor_params());
  for (NodeId m = 1; m <= 4; ++m)
    for (std::uint32_t i = 1; i <= 5; ++i)
      EXPECT_TRUE(star.macs[static_cast<std::size_t>(m)]->enqueue(
          data_msg(m, 0, i), 0));
  star.sim.run_until(5 * star.params.beacon_period);
  EXPECT_EQ(star.sink_rx.size(), 20u);
  for (NodeId m = 1; m <= 4; ++m) {
    const auto& stats = star.macs[static_cast<std::size_t>(m)]->stats();
    EXPECT_EQ(stats.tx_attempts, 5);
    EXPECT_EQ(stats.tx_success, 5);
    EXPECT_EQ(stats.tx_failed, 0);
    EXPECT_GT(stats.beacons_heard, 0);
  }
  // The schedule IS the collision control: a clean channel stays clean.
  EXPECT_EQ(star.channel->stats().deliveries_corrupt, 0);
}

TEST(TdmaMac, NoBeaconMeansNoTransmissions) {
  Star star;
  star.build(2, tdma_sensor_params());
  star.radios[0]->power_off();  // the coordinator never beacons
  star.macs[1]->enqueue(data_msg(1, 0), 0);
  star.sim.run_until(6 * star.params.beacon_period);
  EXPECT_EQ(star.channel->stats().frames, 0);
  EXPECT_EQ(star.macs[1]->stats().tx_attempts, 0);
  EXPECT_FALSE(star.macs[1]->synced());
  EXPECT_EQ(star.sink_rx.size(), 0u);
}

TEST(TdmaMac, MissedBeaconsSkipSlotsSilently) {
  Star star;
  star.build(1, tdma_sensor_params());
  const double P = star.params.beacon_period;
  for (std::uint32_t i = 1; i <= 200; ++i)
    star.macs[1]->enqueue(data_msg(1, 0, i), 0);
  // Beacons 0..2 go out, then the coordinator goes dark between
  // superframes. The member's sync (superframe 2) covers slots through
  // superframe 3; every later slot must pass silently.
  star.sim.schedule_at(2.5 * P, [&] { star.radios[0]->power_off(); });
  std::size_t delivered_at_sync_expiry = 0;
  std::int64_t frames_at_sync_expiry = 0;
  star.sim.schedule_at(4 * P, [&] {
    delivered_at_sync_expiry = star.sink_rx.size();
    frames_at_sync_expiry = star.channel->stats().frames;
  });
  star.sim.run_until(10 * P);
  EXPECT_FALSE(star.macs[1]->synced());
  EXPECT_GE(star.macs[1]->stats().slots_skipped_unsynced, 4);
  // Not a single frame after sync expired — skipped, not risked.
  EXPECT_GT(delivered_at_sync_expiry, 0u);
  EXPECT_EQ(star.sink_rx.size(), delivered_at_sync_expiry);
  EXPECT_EQ(star.channel->stats().frames, frames_at_sync_expiry);
}

TEST(TdmaMac, GuardAbsorbsDriftButOnlyUpToIt) {
  // Differential: same star, same backlog, the only change is the
  // guard/drift ratio. Drift-free slots never overlap; clocks drifting
  // far beyond the guard must produce collisions at the sink.
  const auto run_star = [](double sync_drift, util::Seconds guard) {
    Star star;
    TdmaParams p = tdma_sensor_params();
    p.sync_drift = sync_drift;
    p.guard = guard;
    star.build(4, p);
    for (NodeId m = 1; m <= 4; ++m)
      for (std::uint32_t i = 1; i <= 50; ++i)
        star.macs[static_cast<std::size_t>(m)]->enqueue(data_msg(m, 0, i),
                                                        0);
    star.sim.run_until(10 * star.params.beacon_period);
    return star.channel->stats().deliveries_corrupt;
  };
  EXPECT_EQ(run_star(0.0, util::milliseconds(1)), 0);
  EXPECT_GT(run_star(0.4, util::microseconds(50)), 0);
}

TEST(TdmaMac, CrashMidSlotLeavesNoStaleTimersAndRecovers) {
  Star star;
  star.build(2, tdma_sensor_params());
  const double P = star.params.beacon_period;
  for (std::uint32_t i = 1; i <= 50; ++i)
    star.macs[1]->enqueue(data_msg(1, 0, i), 0);
  // Member 1's first data window opens ~2.35 ms in; 5 ms is mid-slot,
  // mid-transmission. Crash = MAC teardown + radio dark, like the node
  // assemblies do it.
  std::size_t delivered_before_crash = 0;
  star.sim.schedule_at(0.005, [&] {
    star.macs[1]->reset_on_crash();
    star.radios[1]->force_off();
    delivered_before_crash = star.sink_rx.size();
  });
  // If a stale slot timer survived the crash it would fire into a dead
  // radio (or double-arm on recovery) within the next superframes.
  std::int64_t frames_while_down = -1;
  star.sim.schedule_at(4 * P, [&] {
    frames_while_down =
        star.channel->stats().frames;  // beacons only from here back
    star.radios[1]->power_on();
    star.macs[1]->on_recover();
  });
  star.sim.schedule_at(4 * P + 0.001, [&] {
    for (std::uint32_t i = 1; i <= 3; ++i)
      star.macs[1]->enqueue(data_msg(1, 0, 100 + i), 0);
  });
  star.sim.run_until(8 * P);

  const auto& stats = star.macs[1]->stats();
  EXPECT_EQ(stats.crash_resets, 1);
  // Everything not yet on the air at the crash was dropped silently...
  EXPECT_EQ(stats.crash_drops + stats.tx_success,
            50 + 3);  // ...and only the post-recovery refill transmitted.
  EXPECT_EQ(star.sink_rx.size(), delivered_before_crash + 3);
  // While down, the channel carried beacons but nothing from the member.
  EXPECT_EQ(stats.slots_skipped_unsynced, 0);
  EXPECT_GE(frames_while_down, 0);
}

TEST(TdmaMac, OversizeFrameDroppedInsteadOfWedgingTheSlot) {
  Star star;
  star.build(1, tdma_sensor_params());
  // data budget = 13 ms @ 250 kbps ~ 3250 bit; 600 bytes can never fit.
  bool oversize_ok = true;
  testing_support::FnMacHost host;
  host.tx_done = [&](const net::Message&, NodeId, bool ok) {
    if (!ok) oversize_ok = false;
  };
  star.macs[1]->set_host(&host);
  EXPECT_TRUE(star.macs[1]->enqueue(
      data_msg(1, 0, 1, util::bytes(600)), 0));
  EXPECT_TRUE(star.macs[1]->enqueue(data_msg(1, 0, 2), 0));
  star.sim.run_until(3 * star.params.beacon_period);
  EXPECT_EQ(star.macs[1]->stats().oversize_drops, 1);
  EXPECT_FALSE(oversize_ok);  // reported as a failed send
  ASSERT_EQ(star.sink_rx.size(), 1u);  // the normal frame still flowed
  EXPECT_EQ(std::get<net::DataPacket>(star.sink_rx[0].body).seq, 2u);
}

TEST(TdmaMac, QueueFullDropsTail) {
  Star star;
  TdmaParams tiny = tdma_sensor_params();
  tiny.max_queue = 2;
  star.build(1, tiny);
  EXPECT_TRUE(star.macs[1]->enqueue(data_msg(1, 0, 1), 0));
  EXPECT_TRUE(star.macs[1]->enqueue(data_msg(1, 0, 2), 0));
  EXPECT_FALSE(star.macs[1]->enqueue(data_msg(1, 0, 3), 0));
  EXPECT_EQ(star.macs[1]->stats().queue_drops, 1);
}

// -------------------------------------------------- MacSpec / TdmaParams

TEST(TdmaParams, ValidationRejectsBadKnobs) {
  const auto broken = [](auto mutate) {
    TdmaParams p = tdma_sensor_params();
    mutate(p);
    return p;
  };
  EXPECT_THROW(broken([](TdmaParams& p) { p.guard = std::nan(""); })
                   .validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](TdmaParams& p) { p.guard = -1e-3; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](TdmaParams& p) { p.slot_len = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](TdmaParams& p) { p.slot_len = -0.01; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(
      broken([](TdmaParams& p) { p.guard = p.slot_len / 2; }).validate(),
      std::invalid_argument);
  EXPECT_THROW(broken([](TdmaParams& p) { p.sync_drift = 1.0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](TdmaParams& p) { p.beacon_bits = 0; }).validate(),
               std::invalid_argument);
  EXPECT_THROW(broken([](TdmaParams& p) { p.max_queue = 0; }).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(TdmaParams{}.validate());  // all-default = class defaults
  EXPECT_NO_THROW(tdma_sensor_params().validate());
  EXPECT_NO_THROW(tdma_wifi_params().validate());
}

TEST(TdmaParams, ResolvedForFillsOrChecksTheBeaconPeriod) {
  const TdmaParams base = tdma_sensor_params();
  const double rate = 40000.0;
  const TdmaParams tight = base.resolved_for(10, rate);
  const double beacon_air = base.preamble + 88.0 / rate;
  EXPECT_DOUBLE_EQ(tight.beacon_period,
                   beacon_air + base.guard + 10 * base.slot_len);
  // An explicit period must contain beacon + slots.
  TdmaParams roomy = base;
  roomy.beacon_period = 10.0;
  EXPECT_DOUBLE_EQ(roomy.resolved_for(10, rate).beacon_period, 10.0);
  TdmaParams cramped = base;
  cramped.beacon_period = 0.1;  // < 10 x 15 ms
  EXPECT_THROW(cramped.resolved_for(10, rate), std::invalid_argument);
}

TEST(MacSpecTest, ValidateOnlyReadsTdmaKnobsForTdma) {
  MacSpec spec;
  spec.tdma.guard = std::nan("");
  EXPECT_NO_THROW(spec.validate());  // the CSMA/CA default never reads them
  spec.family = MacFamily::kTdma;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_EQ(std::string(to_string(MacFamily::kTdma)), "tdma");
  EXPECT_EQ(std::string(to_string(MacFamily::kCsmaCa)), "csma-ca");
}

// --------------------------------------------------- scenario integration

TEST(TdmaScenario, SensorConvergecastDeliversUnderTdma) {
  app::ScenarioConfig cfg =
      app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 10, 1);
  cfg.sensor_mac.family = MacFamily::kTdma;
  cfg.duration = 100.0;
  const app::RunMetrics m = app::run_scenario(cfg);
  EXPECT_GT(m.delivered, 0);
  EXPECT_GT(m.goodput, 0.0);
  EXPECT_EQ(m.dropped_mac, 0);  // no retries, no link failures
  EXPECT_GT(m.tdma_beacons_sent, 0);
  EXPECT_GT(m.tdma_beacons_heard, 0);
}

TEST(TdmaScenario, WifiModelRunsTdmaOnTheHighRadio) {
  app::ScenarioConfig cfg =
      app::ScenarioConfig::single_hop(app::EvalModel::kWifi, 5, 1);
  cfg.wifi_mac.family = MacFamily::kTdma;
  cfg.duration = 30.0;
  const app::RunMetrics m = app::run_scenario(cfg);
  EXPECT_GT(m.delivered, 0);
  EXPECT_GT(m.tdma_beacons_sent, 0);
}

TEST(TdmaScenario, WifiTdmaRequiresTheAlwaysOnModel) {
  app::ScenarioConfig cfg =
      app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 5, 100);
  cfg.wifi_mac.family = MacFamily::kTdma;
  EXPECT_THROW(app::run_scenario(cfg), std::invalid_argument);
}

TEST(TdmaScenario, BadTdmaKnobsAreRejectedUpFront) {
  app::ScenarioConfig cfg =
      app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 5, 1);
  cfg.sensor_mac.family = MacFamily::kTdma;
  cfg.sensor_mac.tdma = tdma_sensor_params();
  cfg.sensor_mac.tdma.guard = -1.0;
  EXPECT_THROW(app::run_scenario(cfg), std::invalid_argument);
}

TEST(TdmaScenario, ChurnUnderTdmaKeepsChannelConservation) {
  // FaultPlan crash/recover over a TDMA sensor network: crashes mid-slot
  // and mid-superframe must tear down cleanly (no stale slot timers — the
  // run would die on an assertion or dangling transmit) and the channel
  // conservation law must hold at the horizon.
  app::ScenarioConfig cfg =
      app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 10, 1);
  cfg.sensor_mac.family = MacFamily::kTdma;
  cfg.duration = 120.0;
  cfg.faults.node_crashes = 4;
  cfg.faults.mean_downtime = 20.0;
  cfg.faults.seed = 3;
  const app::RunMetrics m = app::run_scenario(cfg);
  EXPECT_GT(m.fault_node_crashes, 0);
  EXPECT_GE(m.fault_node_crashes, m.fault_node_recoveries);
  EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end);
  EXPECT_GT(m.delivered, 0);
}

}  // namespace
}  // namespace bcp::mac
