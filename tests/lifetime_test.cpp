// Tests for the finite-battery subsystem: BatterySpec validation, exact
// depletion timing, the crash-path/battery-death equivalence (both call
// the node's crash()), lifetime-aware routing, and finite-battery
// scenarios end to end — including the headline acceptance check
// that bulk transmission over the high-power radio outlives always-on
// 802.11 at equal offered load.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <vector>

#include "app/nodes.hpp"
#include "app/scenario.hpp"
#include "energy/battery.hpp"
#include "energy/energy_meter.hpp"
#include "energy/radio_model.hpp"
#include "mac/mac_spec.hpp"
#include "net/link_state.hpp"
#include "net/routing.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bcp {
namespace {

// ---------------------------------------------------------- BatterySpec --

TEST(BatterySpec, ValidationRejectsNonsense) {
  energy::BatterySpec spec;
  EXPECT_NO_THROW(spec.validate());  // default-off is always valid
  spec.enabled = true;
  EXPECT_NO_THROW(spec.validate());
  spec.sensor_initial_j = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.sensor_initial_j = 0.0;
  spec.wifi_initial_j = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // all-zero budget
  spec.wifi_initial_j = 10.0;
  EXPECT_NO_THROW(spec.validate());  // one radio class funded is enough
  spec.lifetime_weight = -0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.lifetime_weight = 0.0;
  spec.reroute_period = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.reroute_period = 30.0;
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------- death timing & crash equivalence --

/// A minimal 2-node sensor world: node 1 in range of sink 0, no traffic
/// unless a test injects some. Identical across instances (same seed), so
/// two worlds stay in lockstep until one of them kills node 1.
struct SensorWorld {
  explicit SensorWorld(std::uint64_t seed = 7)
      : channel(sim, {{0, 0}, {30, 0}}, 50.0, phy::Channel::Params{0.0}, 5),
        routes(net::ConnectivityGraph({{0, 0}, {30, 0}}, 50.0)) {
    delivery.delivered = [this](const net::DataPacket&) { ++delivered; };
    for (net::NodeId id = 0; id < 2; ++id)
      nodes.push_back(std::make_unique<app::ForwardingNode>(
          sim, channel, routes, id, 0, energy::mica(),
          phy::OverhearMode::kNone, mac_choice, seed, &delivery,
          mac_stats[static_cast<std::size_t>(id)]));
  }

  sim::Simulator sim;
  phy::Channel channel;
  net::RoutingTable routes;
  app::DeliverySink delivery;
  const app::MacChoice mac_choice{mac::sensor_mac_params(),
                                  mac::MacFamily::kCsmaCa, {}, nullptr};
  std::array<mac::Mac::Stats, 2> mac_stats;  ///< one block per node
  std::vector<std::unique_ptr<app::ForwardingNode>> nodes;
  int delivered = 0;
};

TEST(Battery, DiesAtTheExactlyComputedDepletionInstant) {
  // An idle Mica radio draws p_idle continuously, so a battery of
  // p_idle * T joules must deplete at exactly T — as one scheduled event,
  // not a polling approximation.
  SensorWorld world;
  const double kT = 50.0;
  const double capacity = energy::mica().p_idle * kT;
  int deaths = 0;
  energy::Battery battery(world.sim, capacity, [&] {
    ++deaths;
    world.nodes[1]->crash();
  });
  world.nodes[1]->set_battery(battery);
  battery.rearm();

  world.sim.run_until(kT - 1e-6);
  EXPECT_EQ(deaths, 0);
  EXPECT_TRUE(world.nodes[1]->up());
  world.sim.run_until(100.0);
  EXPECT_EQ(deaths, 1);
  EXPECT_FALSE(world.nodes[1]->up());
  EXPECT_TRUE(battery.depleted());
  EXPECT_DOUBLE_EQ(battery.death_time(), capacity / energy::mica().p_idle);
  // Drawn is frozen at death and never exceeds the budget.
  EXPECT_LE(battery.drawn(), capacity * (1.0 + 1e-9));
  EXPECT_NEAR(battery.drawn(), capacity, capacity * 1e-9);
}

TEST(Battery, DeathAndFaultCrashLeaveIdenticalNodeState) {
  // The satellite contract: a battery death IS a fault-plan crash — both
  // call the node's crash(), so a node dying of depletion at T and
  // a node crashed by schedule at the same T must be indistinguishable
  // afterwards (radio state, per-category energies, MAC counters, drop
  // behaviour).
  const double kT = 50.0;
  const double kEnd = 100.0;
  const double capacity = energy::mica().p_idle * kT;

  SensorWorld by_battery;
  energy::Battery battery(by_battery.sim, capacity, [&] {
    by_battery.nodes[1]->crash();
  });
  by_battery.nodes[1]->set_battery(battery);
  battery.rearm();

  SensorWorld by_fault;
  by_fault.sim.schedule_at(capacity / energy::mica().p_idle, [&] {
    by_fault.nodes[1]->crash();
  });

  // Traffic after death must be refused identically.
  for (SensorWorld* world : {&by_battery, &by_fault})
    world->sim.schedule_at(kT + 10.0, [world] {
      world->nodes[1]->send(
          net::DataPacket{1, 0, 1, util::bytes(32), world->sim.now()});
    });

  by_battery.sim.run_until(kEnd);
  by_fault.sim.run_until(kEnd);

  for (SensorWorld* world : {&by_battery, &by_fault}) {
    EXPECT_FALSE(world->nodes[1]->up());
    EXPECT_EQ(world->nodes[1]->radio().state(), phy::RadioState::kOff);
    EXPECT_EQ(world->delivered, 0);
    const app::DeliverySink::Drops& drops = world->delivery.drops;
    EXPECT_EQ(drops.node_down, 1);
    EXPECT_EQ(drops.queue_full + drops.mac_failed + drops.no_route, 0);
  }
  auto& meter_a = by_battery.nodes[1]->radio().meter();
  auto& meter_b = by_fault.nodes[1]->radio().meter();
  meter_a.finalize(kEnd);
  meter_b.finalize(kEnd);
  for (std::size_t c = 0; c < energy::kEnergyCategoryCount; ++c) {
    const auto cat = static_cast<energy::EnergyCategory>(c);
    EXPECT_DOUBLE_EQ(meter_a.energy(cat), meter_b.energy(cat))
        << "category " << c;
    EXPECT_DOUBLE_EQ(meter_a.duration(cat), meter_b.duration(cat))
        << "category " << c;
  }
  const auto& stats_a = by_battery.nodes[1]->mac().stats();
  const auto& stats_b = by_fault.nodes[1]->mac().stats();
  EXPECT_EQ(stats_a.crash_resets, 1);
  EXPECT_EQ(stats_a.crash_resets, stats_b.crash_resets);
  EXPECT_EQ(stats_a.crash_drops, stats_b.crash_drops);
  EXPECT_EQ(stats_a.tx_attempts, stats_b.tx_attempts);
  EXPECT_EQ(stats_a.enqueued, stats_b.enqueued);
}

TEST(Battery, RejectsNonPositiveCapacity) {
  sim::Simulator sim;
  EXPECT_THROW(energy::Battery(sim, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(energy::Battery(sim, -1.0, [] {}), std::invalid_argument);
}

// ------------------------------------------------ lifetime-aware routes --

TEST(LifetimeRouting, WeightedTreeAvoidsDepletedRelays) {
  // Diamond: sink 0 at the corner, relays 1 and 2 one hop away, source 3
  // reachable only through a relay. Shortest-path ties break to the lower
  // id (relay 1); a battery cost on relay 1 must bend the route through
  // relay 2 — and an equal cost on both must restore the historical tie.
  const net::ConnectivityGraph graph({{0, 0}, {40, 0}, {0, 40}, {40, 40}},
                                     45.0);
  const net::ConvergecastRouting plain(graph, 0);
  EXPECT_EQ(plain.next_hop(3, 0), 1);
  EXPECT_EQ(plain.hops(3, 0), 2);

  const net::NodeCostFn avoid_one = [](net::NodeId v) {
    return v == 1 ? 3.6 : 0.0;  // weight * drawn-fraction, near-depleted
  };
  const net::ConvergecastRouting weighted(graph, 0, nullptr, avoid_one);
  EXPECT_EQ(weighted.next_hop(3, 0), 2);
  EXPECT_EQ(weighted.next_hop(1, 0), 0);  // a costly relay still routes out
  EXPECT_EQ(weighted.hops(3, 0), 2);      // depth counts hops, not weight

  const net::NodeCostFn uniform = [](net::NodeId) { return 0.25; };
  const net::ConvergecastRouting balanced(graph, 0, nullptr, uniform);
  EXPECT_EQ(balanced.next_hop(3, 0), 1)
      << "uniform battery drain must reproduce the shortest-path tie-break";
}

TEST(LifetimeRouting, UnreachableAliveMasksDeadNodes) {
  // 4-node line: killing node 1 strands 2 and 3 (alive but partitioned);
  // the dead node itself must NOT be reported — it is down, not stranded.
  const net::ConnectivityGraph graph({{0, 0}, {40, 0}, {80, 0}, {120, 0}},
                                     41.0);
  net::LinkState links(4);
  EXPECT_TRUE(net::unreachable_alive(graph, 0, links).empty());
  links.set_node_up(1, false);
  const auto stranded = net::unreachable_alive(graph, 0, links);
  ASSERT_EQ(stranded.size(), 2u);
  EXPECT_EQ(stranded[0], 2);
  EXPECT_EQ(stranded[1], 3);
}

// --------------------------------------- finite-battery scenarios, e2e ----

/// The multi-hop grid with 5 senders (dual-radio bursts of 50 packets).
app::ScenarioConfig mh_config(app::EvalModel model, double duration,
                              std::uint64_t seed) {
  app::ScenarioConfig cfg = app::ScenarioConfig::multi_hop(
      model, 5, model == app::EvalModel::kDualRadio ? 50 : 1);
  cfg.duration = duration;
  cfg.seed = seed;
  return cfg;
}

/// mh_config with every node on a battery: `sensor_j` for the sensor
/// radio, the BatterySpec default for the 802.11 one.
app::ScenarioConfig lifetime_config(app::EvalModel model, double duration,
                                    std::uint64_t seed,
                                    double sensor_j = 150.0) {
  app::ScenarioConfig cfg = mh_config(model, duration, seed);
  cfg.battery.enabled = true;
  cfg.battery.sensor_initial_j = sensor_j;
  return cfg;
}

TEST(LifetimeScenario, VariantsRunGreenWithDefaultBudgets) {
  // Default budgets (150 J sensor / 600 J wifi) outlast a short run: the
  // battery machinery is live but nobody dies, and the "never happened"
  // sentinels survive into the metrics.
  for (const app::EvalModel model :
       {app::EvalModel::kDualRadio, app::EvalModel::kSensor}) {
    const char* name = app::to_string(model);
    const auto m = app::run_scenario(lifetime_config(model, 120.0, 3));
    EXPECT_GT(m.generated, 0) << name;
    EXPECT_GT(m.delivered, 0) << name;
    EXPECT_EQ(m.battery_deaths, 0) << name;
    EXPECT_DOUBLE_EQ(m.time_to_first_death, -1) << name;
    EXPECT_DOUBLE_EQ(m.time_to_sink_partition, -1) << name;
    EXPECT_GT(m.battery_max_drawn_fraction, 0) << name;
    EXPECT_LE(m.battery_max_drawn_fraction, 1.0) << name;
    // Nobody died, so "bits until death/partition" covers the whole run.
    EXPECT_EQ(m.delivered_bits_until_first_death,
              m.delivered * 256 /* 32-byte packets */)
        << name;
    EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end)
        << name;
  }
}

TEST(LifetimeScenario, DeadNodesContributeNothingAfterDeath) {
  // A budget that kills the whole sensor grid mid-run: doubling the
  // duration afterwards must change NOTHING the dead network could have
  // produced — deliveries, channel activity, MAC attempts, energies all
  // freeze at death; only the workload generator (whose packets die as
  // node-down drops) keeps counting.
  const auto short_run = app::run_scenario(
      lifetime_config(app::EvalModel::kSensor, 150.0, 5, 3.0));
  const auto long_run = app::run_scenario(
      lifetime_config(app::EvalModel::kSensor, 300.0, 5, 3.0));
  ASSERT_GT(short_run.battery_deaths, 0);
  EXPECT_GT(short_run.time_to_first_death, 0);
  EXPECT_LT(short_run.time_to_first_death, 150.0);
  EXPECT_EQ(long_run.battery_deaths, short_run.battery_deaths);
  EXPECT_DOUBLE_EQ(long_run.time_to_first_death,
                   short_run.time_to_first_death);
  EXPECT_EQ(long_run.delivered, short_run.delivered);
  EXPECT_EQ(long_run.chan_rx_starts, short_run.chan_rx_starts);
  EXPECT_EQ(long_run.mac_tx_attempts, short_run.mac_tx_attempts);
  EXPECT_GT(long_run.generated, short_run.generated);
  EXPECT_GT(long_run.dropped_node_down, 0);
  // Partition ordering and byte monotonicity.
  if (short_run.time_to_sink_partition >= 0) {
    EXPECT_GE(short_run.time_to_sink_partition,
              short_run.time_to_first_death);
    EXPECT_GE(short_run.delivered_bits_until_partition,
              short_run.delivered_bits_until_first_death);
  }
  EXPECT_LE(short_run.delivered_bits_until_first_death,
            short_run.delivered * 256);
}

TEST(LifetimeScenario, TimeToFirstDeathMonotoneInInitialBudget) {
  // More joules can only postpone the first death: same seed, same
  // trajectory until the smaller battery's depletion instant.
  double previous = 0.0;
  for (const double joules : {2.0, 4.0, 8.0, 1000.0}) {
    const auto m = app::run_scenario(
        lifetime_config(app::EvalModel::kSensor, 150.0, 5, joules));
    EXPECT_LE(m.battery_max_drawn_fraction, 1.0 + 1e-6);
    const double ttfd =
        m.time_to_first_death < 0 ? 1e18 : m.time_to_first_death;
    EXPECT_GE(ttfd, previous) << "sensor_j = " << joules;
    previous = ttfd;
  }
}

TEST(LifetimeScenario, BulkTransmissionOutlivesAlwaysOnWifi) {
  // The acceptance cell: a churn-free lossy-mh network at equal offered
  // load and equal 802.11 budget. Always-on 802.11 burns p_idle = 0.83 W
  // continuously and dies around 120 s; the dual-radio node keeps its
  // 802.11 radio off between bursts, so its first death lands strictly
  // later (or never, inside this horizon).
  const auto run = [](app::EvalModel model) {
    app::ScenarioConfig cfg = lifetime_config(model, 300.0, 3, 100.0);
    cfg.battery.wifi_initial_j = 100.0;
    cfg.propagation.kind = phy::PropagationKind::kLogDistance;
    return app::run_scenario(cfg);
  };
  const auto wifi = run(app::EvalModel::kWifi);
  const auto dual = run(app::EvalModel::kDualRadio);
  ASSERT_GT(wifi.battery_deaths, 0);
  ASSERT_GT(wifi.time_to_first_death, 0);
  ASSERT_LT(wifi.time_to_first_death, 300.0);
  if (dual.time_to_first_death >= 0)
    EXPECT_GT(dual.time_to_first_death, wifi.time_to_first_death);
  else
    EXPECT_EQ(dual.battery_deaths, 0);  // outlived the whole horizon
}

TEST(LifetimeScenario, LifetimeRoutingRunsGreenAndReroutes) {
  auto cfg = lifetime_config(app::EvalModel::kDualRadio, 120.0, 3);
  cfg.route_policy = net::RoutePolicy::kLifetimeAware;
  const auto m = app::run_scenario(cfg);
  EXPECT_GT(m.delivered, 0);
  // The periodic refresh alone forces rebuilds even with nobody dead.
  EXPECT_GT(m.route_rebuilds, 0);
  const auto again = app::run_scenario(cfg);
  EXPECT_EQ(again.delivered, m.delivered);
  EXPECT_EQ(again.events_processed, m.events_processed);
}

TEST(LifetimeScenario, LifetimeRoutingRequiresAnEnabledBattery) {
  auto cfg = mh_config(app::EvalModel::kDualRadio, 60.0, 3);
  cfg.route_policy = net::RoutePolicy::kLifetimeAware;
  ASSERT_FALSE(cfg.battery.enabled);
  EXPECT_THROW(app::run_scenario(cfg), std::invalid_argument);
}

TEST(LifetimeScenario, FaultRecoveryOfABatteryDeadNodeIsANoOp) {
  // Churn + batteries: the fault plan wants to recover its crash victims,
  // but a node whose battery also ran dry must stay dark — battery death
  // is unrecoverable. With budgets that kill everything well before the
  // end, recoveries must come up short of crashes.
  auto cfg = lifetime_config(app::EvalModel::kSensor, 300.0, 3,
                             2.0);  // ~66 s at Mica idle
  cfg.faults.node_crashes = 4;
  cfg.faults.mean_downtime = 60.0;
  const auto m = app::run_scenario(cfg);
  EXPECT_GT(m.battery_deaths, 0);
  EXPECT_LT(m.fault_node_recoveries, m.fault_node_crashes)
      << "at least one fault-plan recovery should have hit a battery-dead "
         "node and been refused";
  // The refusals are counted, not silent: every planned recovery either
  // executed or shows up in fault_recoveries_refused.
  EXPECT_GT(m.fault_recoveries_refused, 0);
  EXPECT_LE(m.fault_node_recoveries + m.fault_recoveries_refused,
            m.fault_node_crashes);
}

}  // namespace
}  // namespace bcp
