// Golden matrix: one tiny cell per engine path of run_scenario, each
// pinned as a 64-bit FNV-1a digest over every RunMetrics field.
// serialize() walks the BCP_RUN_METRICS field table through
// app::for_each_metric, so a new metric is one table line in scenario.hpp
// and joins every digest on its own (which re-pins all of them, in the
// same change). standard_metrics and perfbench's print_counts are curated
// views with their own key lists and do not pick a new field up.
//
// The cells cover the single queue (shards = 1) across every evaluation
// model, both route materializations (dense tables up to
// app::kAllPairsNodeLimit nodes, sink-rooted trees beyond, with cells on
// either side of the limit), the lossy/capture channel, churn,
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
#include <ostream>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "mac/mac_spec.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/propagation.hpp"

namespace bcp {
namespace {

void put(std::string& out, const std::string& name, std::int64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%" PRId64 "\n", name.c_str(), v);
  out += buf;
}

void put(std::string& out, const std::string& name, std::uint64_t v) {
  put(out, name, static_cast<std::int64_t>(v));
}

void put(std::string& out, const std::string& name, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%a\n", name.c_str(), v);
  out += buf;
}

void put(std::string& out, const std::string& name,
         const app::RadioEnergyTotals& e) {
  app::for_each_energy(e, [&](const char* part, double j) {
    put(out, name + "." + part, j);
  });
}

void put(std::string& out, const std::string& name,
         const std::vector<std::uint64_t>& v) {
  put(out, name + ".size", static_cast<std::int64_t>(v.size()));
  for (const std::uint64_t e : v) put(out, name + "[]", e);
}

/// One line per field, in RunMetrics table order.
std::string serialize(const app::RunMetrics& m) {
  std::string s;
  app::for_each_metric(m, [&s](const char* name, app::MergeRule,
                               const auto& v) { put(s, name, v); });
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

/// A 12×12 grid at 40 m spacing with a central sink: 144 nodes, past
/// net's all-pairs limit, so the single queue routes over the sink-rooted
/// trees, wake-up acks to non-sink peers included.
app::ScenarioConfig grid144(app::ScenarioConfig cfg) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::kGrid;
  spec.grid_side = 12;
  spec.area = 40.0 * 11;
  spec.sink = 6 * 12 + 6;
  cfg.topology = spec;
  cfg.n_senders = 12;
  cfg.duration = 20.0;
  return cfg;
}

/// A sink-connected uniform placement of `nodes` nodes. The 128- and
/// 129-node cells sit on either side of app::kAllPairsNodeLimit, so moving
/// the route-selection threshold by one node changes one of them.
app::ScenarioConfig random_nodes(app::ScenarioConfig cfg, int nodes) {
  net::TopologySpec spec;
  spec.kind = net::TopologyKind::kUniformRandom;
  spec.nodes = nodes;
  spec.area = 300.0;
  cfg.topology = net::first_connected(spec, cfg.sensor_radio.range);
  cfg.n_senders = 12;
  cfg.duration = 20.0;
  return cfg;
}

/// Lossy dual-radio multi-hop with SINR capture on 4 stripes, inline
/// (sim_threads = 1). Cross-stripe frames that arrive late take
/// phy::Channel::begin_remote's capture branch, whose interference sum
/// runs in arrival-list order, so this cell pins that order too.
app::ScenarioConfig sharded_capture() {
  auto cfg = sharded(lossy(mh(app::EvalModel::kDualRadio)), 4);
  cfg.capture_enabled = true;
  cfg.sim_threads = 1;
  return cfg;
}
constexpr const char* kShardedCaptureDigest = "fcabbfcd0da641b4";

struct Cell {
  const char* name;
  const char* digest;
  std::function<app::ScenarioConfig()> config;
};

// gtest would otherwise print a Cell as its raw bytes, pointers included,
// and ctest's discovered test names would change with every process.
void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

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
      {"mh_dual_grid144", "31d6cd2501a4cb48",
       [] { return grid144(mh(EvalModel::kDualRadio)); }},
      {"mh_dual_random128", "436aa9e1d6516abe",
       [] { return random_nodes(mh(EvalModel::kDualRadio), 128); }},
      {"mh_dual_random129", "d481adb12d6a1535",
       [] { return random_nodes(mh(EvalModel::kDualRadio), 129); }},
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
      {"sharded4_dual_capture", kShardedCaptureDigest, sharded_capture},
  };
}

class GoldenMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(GoldenMatrix, DigestIsPinned) {
  const Cell& cell = GetParam();
  const std::string metrics = serialize(app::run_scenario(cell.config()));
  EXPECT_EQ(hex(fnv1a(metrics)), cell.digest) << metrics;
}

// The sharded capture cell again on 4 worker threads: the digest must not
// depend on how the stripes are spread over threads.
TEST(GoldenMatrixThreads, ShardedCaptureMatchesAtFourThreads) {
  app::ScenarioConfig cfg = sharded_capture();
  cfg.sim_threads = 4;
  const std::string metrics = serialize(app::run_scenario(cfg));
  EXPECT_EQ(hex(fnv1a(metrics)), kShardedCaptureDigest) << metrics;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenMatrix, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<Cell>& info) { return info.param.name; });

}  // namespace
}  // namespace bcp
