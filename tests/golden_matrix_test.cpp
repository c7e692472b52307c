// Golden matrix: one tiny cell per engine path of run_scenario, each
// pinned as a 64-bit FNV-1a digest over every RunMetrics field.
//
// The cells cover the single queue (shards = 1) across every evaluation
// model, both route materializations, the lossy/capture channel, churn,
// both TDMA placements and lifetime routing, plus the sharded engine for
// the models and membership machinery the ShardedGolden pins leave out.
// A refactor of the scenario assembly must leave every digest unchanged;
// a behaviour change must re-pin them on purpose (the failure message
// prints the new digest and the serialized metrics it came from).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "mac/mac_spec.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/propagation.hpp"

namespace bcp {
namespace {

// Field-coverage tripwire: a new RunMetrics field must join serialize()
// below before this size is updated.
static_assert(sizeof(void*) != 8 || sizeof(app::RunMetrics) == 448,
              "RunMetrics changed: add the new field to serialize() in "
              "tests/golden_matrix_test.cpp, then update this size");

void put(std::string& out, const char* name, std::int64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%" PRId64 "\n", name, v);
  out += buf;
}

void put(std::string& out, const char* name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%a\n", name, v);
  out += buf;
}

void put(std::string& out, const char* name, const app::RadioEnergyTotals& e) {
  const std::string base(name);
  put(out, (base + ".tx").c_str(), e.tx);
  put(out, (base + ".rx").c_str(), e.rx);
  put(out, (base + ".overhear").c_str(), e.overhear);
  put(out, (base + ".idle").c_str(), e.idle);
  put(out, (base + ".wakeup").c_str(), e.wakeup);
}

std::string serialize(const app::RunMetrics& m) {
  std::string s;
  put(s, "generated", m.generated);
  put(s, "delivered", m.delivered);
  put(s, "dropped_buffer", m.dropped_buffer);
  put(s, "dropped_queue", m.dropped_queue);
  put(s, "dropped_mac", m.dropped_mac);
  put(s, "dropped_no_route", m.dropped_no_route);
  put(s, "dropped_node_down", m.dropped_node_down);
  put(s, "goodput", m.goodput);
  put(s, "mean_delay", m.mean_delay);
  put(s, "sensor_energy", m.sensor_energy);
  put(s, "wifi_energy", m.wifi_energy);
  put(s, "normalized_energy", m.normalized_energy);
  put(s, "normalized_energy_sensor_ideal", m.normalized_energy_sensor_ideal);
  put(s, "normalized_energy_sensor_header", m.normalized_energy_sensor_header);
  put(s, "mac_tx_attempts", m.mac_tx_attempts);
  put(s, "mac_tx_failed", m.mac_tx_failed);
  put(s, "bcp_wakeups", m.bcp_wakeups);
  put(s, "bcp_handshakes_failed", m.bcp_handshakes_failed);
  put(s, "bcp_sender_sessions", m.bcp_sender_sessions);
  put(s, "bcp_receiver_timeouts", m.bcp_receiver_timeouts);
  put(s, "wifi_wakeup_transitions", m.wifi_wakeup_transitions);
  put(s, "wifi_on_seconds", m.wifi_on_seconds);
  put(s, "events_processed", static_cast<std::int64_t>(m.events_processed));
  put(s, "fault_node_crashes", m.fault_node_crashes);
  put(s, "fault_node_recoveries", m.fault_node_recoveries);
  put(s, "fault_recoveries_refused", m.fault_recoveries_refused);
  put(s, "fault_link_downs", m.fault_link_downs);
  put(s, "fault_link_ups", m.fault_link_ups);
  put(s, "route_rebuilds", m.route_rebuilds);
  put(s, "bcp_packets_lost_to_crash", m.bcp_packets_lost_to_crash);
  put(s, "mac_crash_drops", m.mac_crash_drops);
  put(s, "chan_frames", m.chan_frames);
  put(s, "chan_rx_starts", m.chan_rx_starts);
  put(s, "chan_rx_ends", m.chan_rx_ends);
  put(s, "chan_rx_live_at_end", m.chan_rx_live_at_end);
  put(s, "tdma_beacons_sent", m.tdma_beacons_sent);
  put(s, "tdma_beacons_heard", m.tdma_beacons_heard);
  put(s, "tdma_slots_skipped", m.tdma_slots_skipped);
  put(s, "battery_deaths", m.battery_deaths);
  put(s, "time_to_first_death", m.time_to_first_death);
  put(s, "time_to_sink_partition", m.time_to_sink_partition);
  put(s, "delivered_bits_until_first_death",
      m.delivered_bits_until_first_death);
  put(s, "delivered_bits_until_partition", m.delivered_bits_until_partition);
  put(s, "battery_max_drawn_fraction", m.battery_max_drawn_fraction);
  put(s, "shard_events.size", static_cast<std::int64_t>(m.shard_events.size()));
  for (const std::uint64_t e : m.shard_events)
    put(s, "shard_events[]", static_cast<std::int64_t>(e));
  put(s, "boundary_frames", m.boundary_frames);
  return s;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---- Cell configurations ----

app::ScenarioConfig sh(app::EvalModel model) {
  app::ScenarioConfig cfg =
      app::ScenarioConfig::single_hop(model, 5, /*burst_packets=*/10);
  cfg.rate_bps = 1000.0;
  cfg.duration = 40.0;
  return cfg;
}

app::ScenarioConfig mh(app::EvalModel model) {
  app::ScenarioConfig cfg =
      app::ScenarioConfig::multi_hop(model, 5, /*burst_packets=*/10);
  cfg.duration = 40.0;
  return cfg;
}

app::ScenarioConfig lossy(app::ScenarioConfig cfg) {
  cfg.propagation.kind = phy::PropagationKind::kLogDistance;
  return cfg;
}

app::ScenarioConfig churn(app::ScenarioConfig cfg) {
  cfg.faults.node_crashes = 3;
  cfg.faults.mean_downtime = 5.0;
  cfg.faults.link_flaps = 4;
  cfg.faults.mean_link_downtime = 5.0;
  cfg.faults.seed = 11;
  return cfg;
}

app::ScenarioConfig lifetime(app::ScenarioConfig cfg) {
  cfg.battery.enabled = true;
  cfg.battery.sensor_initial_j = 0.5;
  cfg.battery.wifi_initial_j = 1.5;
  cfg.battery.reroute_period = 5.0;
  cfg.route_policy = net::RoutePolicy::kLifetimeAware;
  return cfg;
}

/// A 10×10 grid at 40 m spacing cut into `shards` stripes.
app::ScenarioConfig sharded(app::ScenarioConfig cfg, int shards) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::kGrid;
  spec.grid_side = 10;
  spec.area = 40.0 * 9;
  cfg.topology = spec;
  cfg.n_senders = 8;
  cfg.duration = 20.0;
  cfg.shards = shards;
  cfg.sim_threads = 2;
  return cfg;
}

struct Cell {
  const char* name;
  const char* digest;
  std::function<app::ScenarioConfig()> config;
};

std::vector<Cell> cells() {
  using app::EvalModel;
  return {
      {"sh_sensor", "c7783f9707f8fffd", [] { return sh(EvalModel::kSensor); }},
      {"sh_wifi", "cbb95aa65cf60154", [] { return sh(EvalModel::kWifi); }},
      {"sh_wifi_duty", "aafb03daf95b80e4",
       [] { return sh(EvalModel::kWifiDutyCycled); }},
      {"sh_dual", "a6703a96d0e766fa", [] { return sh(EvalModel::kDualRadio); }},
      {"mh_sensor", "042993cf92ac14b8", [] { return mh(EvalModel::kSensor); }},
      {"mh_wifi", "5aeebd10ff91ba92", [] { return mh(EvalModel::kWifi); }},
      {"mh_wifi_duty", "a57f5f619e8ba623",
       [] { return mh(EvalModel::kWifiDutyCycled); }},
      {"mh_dual", "437710f869d4ffb5", [] { return mh(EvalModel::kDualRadio); }},
      {"sh_dual_all_pairs", "a6703a96d0e766fa",
       [] {
         auto cfg = sh(EvalModel::kDualRadio);
         cfg.routing = app::RoutingMode::kAllPairs;
         return cfg;
       }},
      {"mh_dual_convergecast", "0d4c7e72fad5fc2a",
       [] {
         auto cfg = mh(EvalModel::kDualRadio);
         cfg.routing = app::RoutingMode::kConvergecast;
         return cfg;
       }},
      {"mh_dual_lossy", "ce3009070dc5095c",
       [] { return lossy(mh(EvalModel::kDualRadio)); }},
      {"mh_dual_capture", "c1b07a9fb18f1af4",
       [] {
         auto cfg = lossy(mh(EvalModel::kDualRadio));
         cfg.capture_enabled = true;
         return cfg;
       }},
      {"mh_dual_churn", "f366b74dc370937d",
       [] { return churn(mh(EvalModel::kDualRadio)); }},
      {"sh_sensor_tdma", "461c923ebed03ad6",
       [] {
         auto cfg = sh(EvalModel::kSensor);
         cfg.sensor_mac.family = mac::MacFamily::kTdma;
         return cfg;
       }},
      {"sh_wifi_tdma", "86785ceb4545d4c1",
       [] {
         auto cfg = sh(EvalModel::kWifi);
         cfg.wifi_mac.family = mac::MacFamily::kTdma;
         return cfg;
       }},
      {"mh_dual_lifetime", "27fadd0bf43245a8",
       [] { return lifetime(mh(EvalModel::kDualRadio)); }},
      {"sharded2_sensor", "1c4612e7617daa69",
       [] { return sharded(mh(EvalModel::kSensor), 2); }},
      {"sharded3_wifi", "c8dabf439261045e",
       [] { return sharded(sh(EvalModel::kWifi), 3); }},
      {"sharded4_wifi_duty", "621167a182c4d608",
       [] { return sharded(mh(EvalModel::kWifiDutyCycled), 4); }},
      {"sharded4_dual_churn_lifetime", "9576f87417f8405b",
       [] { return sharded(lifetime(churn(mh(EvalModel::kDualRadio))), 4); }},
  };
}

class GoldenMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenMatrix, DigestIsPinned) {
  const Cell& cell = GetParam();
  const std::string metrics = serialize(app::run_scenario(cell.config()));
  EXPECT_EQ(hex(fnv1a(metrics)), cell.digest) << metrics;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenMatrix, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<Cell>& info) { return info.param.name; });

}  // namespace
}  // namespace bcp
