// Network-lifetime bench — the paper's energy-conservation claim turned
// into lifetime: give every node a finite battery (ScenarioConfig::battery)
// and read how long each evaluation model keeps the network alive, and
// how much data it delivers before the first node dies.
//
//   lifetime-mh/dual       dual-radio BCP (bulk transmission)
//   lifetime-mh/wifi       always-on 802.11
//   lifetime-mh/wifi-duty  sleep-cycled 802.11 strawman
//   lifetime-mh/sensor     pure sensor network
//   dual-sharded4          the dual cell on the sharded engine
//   dual+churn-sharded4    sharded + a node-crash/link-flap fault plan on
//                          top of the batteries (membership epochs carry
//                          both churn and deaths across shards)
//
// All four cells run the same topology, senders, and offered load — the
// only difference is which radios burn the battery and when. The Pareto
// table reads lifetime (time-to-first-death, capped at the run duration
// when nobody dies) against goodput and delivered-bytes-until-first-death:
// the headline result is that bulk transmission over the high-power radio
// dominates always-on 802.11 on BOTH axes, not just energy/bit. A second
// sweep repeats the dual cell with lifetime-aware routing to show the
// graceful-degradation knob. Writes BENCH_lifetime.json; battery and
// routing-policy meta keys are emitted only for non-default runs (the
// conditional-meta contract). --budget-s is the CI smoke tripwire;
// --compare-threads hard-gates sharded thread-count determinism on the
// churn+battery cell; --headline-nodes runs one 100k-node sharded
// lifetime cell and reports deaths + events/sec.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/options.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bcp;
  using namespace bcp::benchharness;
  util::Options opt("bench_lifetime",
                    "network lifetime and goodput under finite batteries");
  opt.add_int("runs", 2, "replications per cell")
      .add_double("duration", 600.0, "simulated seconds per run")
      .add_double("sensor-j", 150.0, "initial sensor-radio battery (J)")
      .add_double("wifi-j", 600.0, "initial 802.11-radio battery (J)")
      .add_int("senders", 10, "sender count per cell")
      .add_int("seed", 1, "base RNG seed")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)")
      .add_double("budget-s", 0,
                  "fail (exit 2) if the bench wall-clock exceeds this")
      .add_int("compare-threads", 0,
               "run the churn+battery sharded cell with 1 and 2 worker "
               "threads and fail (exit 2) unless the metrics are "
               "byte-identical (the membership-epoch determinism gate)")
      .add_int("headline-nodes", 0,
               "also run one sharded dual-radio lifetime cell with this "
               "many nodes (the 100k headline; 0 disables)")
      .add_int("headline-shards", 8, "shard count for the headline cell")
      .add_double("headline-duration", 25.0,
                  "simulated seconds for the headline cell")
      .add_double("headline-sensor-j", 0.5,
                  "headline sensor battery (J) — small enough that nodes "
                  "start dying inside the headline duration");
  if (!opt.parse(argc, argv)) return 1;
  const int runs = static_cast<int>(opt.get_int("runs"));
  const double duration = opt.get_double("duration");
  const double sensor_j = opt.get_double("sensor-j");
  const double wifi_j = opt.get_double("wifi-j");
  const int n_senders = static_cast<int>(opt.get_int("senders"));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));
  const auto t_bench = std::chrono::steady_clock::now();

  // One registry variant per cell; the fifth cell re-runs dual with the
  // lifetime-aware routing policy (battery-fraction link cost), and the
  // last two repeat dual on the sharded engine — alone, and under node
  // churn on top of the finite batteries (membership epochs at window
  // barriers carry both the crashes and the battery deaths).
  struct Cell {
    const char* variant;
    const char* label;
    bool lifetime_routing;
    int shards = 0;   ///< > 1 runs the cell on the sharded engine
    int crashes = 0;  ///< > 0 adds a fault plan on top of the batteries
  };
  const std::vector<Cell> cells = {
      {"lifetime-mh/dual", "dual", false},
      {"lifetime-mh/wifi", "wifi", false},
      {"lifetime-mh/wifi-duty", "wifi-duty", false},
      {"lifetime-mh/sensor", "sensor", false},
      {"lifetime-mh/dual", "dual+lifetime-routing", true},
      {"lifetime-mh/dual", "dual-sharded4", false, 4, 0},
      {"lifetime-mh/dual", "dual+churn-sharded4", false, 4, 4},
  };

  app::SweepGrid grid;
  std::vector<int> cell_ids;
  for (std::size_t i = 0; i < cells.size(); ++i)
    cell_ids.push_back(static_cast<int>(i));
  grid.axis_ints("cell", cell_ids);

  const auto scenario_point = [&](std::size_t index, const Cell& cell) {
    std::vector<std::pair<std::string, double>> axes = {
        {"senders", static_cast<double>(n_senders)},
        {"duration", duration},
        {"sensor_j", sensor_j},
        {"wifi_j", wifi_j}};
    if (cell.lifetime_routing) axes.emplace_back("lifetime_routing", 1.0);
    return app::SweepPoint(index, std::move(axes));
  };

  const app::SweepFn fn = [&](const app::SweepJob& job) {
    const Cell& cell = cells[static_cast<std::size_t>(
        job.point.get_int("cell"))];
    app::ScenarioConfig cfg = app::ScenarioRegistry::builtin().make(
        cell.variant, scenario_point(job.point.index(), cell));
    cfg.seed = job.seed;
    if (cell.shards > 1) {
      cfg.shards = cell.shards;
      cfg.sim_threads = 1;  // the sweep already saturates the cores
    }
    if (cell.crashes > 0) {
      cfg.faults.node_crashes = cell.crashes;
      cfg.faults.link_flaps = 2;
    }
    const app::RunMetrics m = app::run_scenario(cfg);
    stats::ResultSink::Metrics metrics = app::standard_metrics(m);
    // Lifetime metrics ride alongside the golden-protected standard set.
    // time_to_* stay raw (-1 = never happened) so the JSON distinguishes
    // "survived the run" from "died at t=0".
    metrics.emplace_back("time_to_first_death_s", m.time_to_first_death);
    metrics.emplace_back("battery_deaths",
                         static_cast<double>(m.battery_deaths));
    metrics.emplace_back("time_to_sink_partition_s",
                         m.time_to_sink_partition);
    metrics.emplace_back("delivered_bits_until_first_death",
                         static_cast<double>(
                             m.delivered_bits_until_first_death));
    metrics.emplace_back("delivered_bits_until_partition",
                         static_cast<double>(
                             m.delivered_bits_until_partition));
    metrics.emplace_back("battery_max_drawn_fraction",
                         m.battery_max_drawn_fraction);
    // Churn-on-batteries accounting: how much of the fault plan actually
    // executed (a recovery aimed at a battery-dead node is refused —
    // battery death is final).
    metrics.emplace_back("fault_node_crashes",
                         static_cast<double>(m.fault_node_crashes));
    metrics.emplace_back("fault_node_recoveries",
                         static_cast<double>(m.fault_node_recoveries));
    metrics.emplace_back("fault_recoveries_refused",
                         static_cast<double>(m.fault_recoveries_refused));
    return metrics;
  };

  app::SweepOptions sweep;
  sweep.replications = runs;
  sweep.base_seed = seed;
  sweep.threads = static_cast<int>(opt.get_int("jobs"));
  const app::SweepRunner runner(sweep);
  stats::ResultSink sink = runner.run(grid, fn);
  for (std::size_t ci = 0; ci < cells.size(); ++ci)
    sink.set_label(grid.index_of({ci}), cells[ci].label);

  stats::print_titled("Lifetime sweep — finite batteries, equal offered load",
                      sink.to_table());

  // The Pareto read: lifetime vs goodput per model. A model dominates
  // when it is up-and-right of another. ttfd < 0 means no node died —
  // report the run duration as a lower bound (">= duration").
  std::printf("\nLifetime vs goodput (Pareto):\n");
  std::printf("  %-22s %12s %9s %14s %8s\n", "cell", "lifetime-s",
              "goodput", "bits@1st-death", "deaths");
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const std::size_t p = grid.index_of({ci});
    const double ttfd = sink.metric(p, "time_to_first_death_s").mean();
    const double goodput = sink.metric(p, "goodput").mean();
    const double bits =
        sink.metric(p, "delivered_bits_until_first_death").mean();
    const double deaths = sink.metric(p, "battery_deaths").mean();
    char lifetime[32];
    if (ttfd < 0)
      std::snprintf(lifetime, sizeof lifetime, ">=%.0f", duration);
    else
      std::snprintf(lifetime, sizeof lifetime, "%.1f", ttfd);
    std::printf("  %-22s %12s %9.3f %14.0f %8.1f\n", cells[ci].label,
                lifetime, goodput, bits, deaths);
  }

  // Run-identity metadata from a config the cells actually ran; the
  // lifetime-routing cell's policy keys describe only itself, as its
  // label says.
  sink.set_meta("meta_variant", "lifetime-mh/dual");
  set_scenario_meta(sink,
                    app::ScenarioRegistry::builtin().make(
                        "lifetime-mh/dual", scenario_point(0, cells.back())),
                    seed);
  // Conditional-meta contract: the refused-recovery total appears only
  // when the churn cells actually refused one.
  double refused = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci)
    refused += sink.metric(grid.index_of({ci}), "fault_recoveries_refused")
                   .mean() * runs;
  if (refused > 0) sink.set_meta("fault_recoveries_refused", refused);

  // ---- Determinism gate: churn + batteries across worker threads ---------
  // Crashes, recoveries, link flaps, battery deaths and the lifetime
  // reroute tick all flow through membership epochs at window barriers;
  // the result must be a pure function of (config, shard count). Exit 2
  // if two thread counts disagree on any RunMetrics field, naming the
  // first one that differs.
  bool determinism_ok = true;
  if (opt.get_int("compare-threads") > 0) {
    app::ScenarioConfig cfg = app::ScenarioRegistry::builtin().make(
        "lifetime-mh/dual", scenario_point(0, cells.back()));
    cfg.seed = seed;
    cfg.faults.node_crashes = 4;
    cfg.faults.link_flaps = 2;
    cfg.shards = 4;
    cfg.sim_threads = 1;
    const app::RunMetrics a = app::run_scenario(cfg);
    cfg.sim_threads = 2;
    const app::RunMetrics b = app::run_scenario(cfg);
    const char* differs = app::first_metric_difference(a, b);
    determinism_ok = differs == nullptr;
    std::printf(
        "[compare] churn+battery sharded4: %lld deaths, ttfd %.1f s, "
        "%d crashes, %d refused recoveries — thread-count determinism "
        "%s%s\n",
        static_cast<long long>(a.battery_deaths), a.time_to_first_death,
        static_cast<int>(a.fault_node_crashes),
        static_cast<int>(a.fault_recoveries_refused),
        determinism_ok ? "OK" : "BROKEN at ", determinism_ok ? "" : differs);
    sink.set_meta("compare_threads_determinism", determinism_ok ? 1.0 : 0.0);
  }

  // ---- Headline cell: lifetime at 100k+ nodes on the sharded engine ------
  const int headline_nodes = static_cast<int>(opt.get_int("headline-nodes"));
  if (headline_nodes > 0) {
    const int headline_shards =
        static_cast<int>(opt.get_int("headline-shards"));
    const int headline_senders =
        std::max(10, std::min(headline_nodes / 1000, headline_nodes - 1));
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, headline_senders, /*burst_packets=*/10);
    const int side = static_cast<int>(
        std::lround(std::sqrt(static_cast<double>(headline_nodes))));
    cfg.topology.grid_side = side;
    cfg.topology.area = cfg.sensor_radio.range * (side - 1);
    cfg.rate_bps = 2000.0;
    cfg.duration = opt.get_double("headline-duration");
    cfg.seed = seed;
    cfg.battery.enabled = true;
    cfg.battery.sensor_initial_j = opt.get_double("headline-sensor-j");
    cfg.battery.wifi_initial_j = wifi_j;
    cfg.shards = headline_shards;
    cfg.sim_threads = 0;  // auto
    const auto t0 = std::chrono::steady_clock::now();
    const app::RunMetrics m = app::run_scenario(cfg);
    const double wall_ms = ms_since(t0);
    const double events_per_sec =
        wall_ms > 0 ? static_cast<double>(m.events_processed) / (wall_ms / 1e3)
                    : 0;
    std::printf(
        "[headline] %d nodes, %d shards, %.1f s simulated with finite "
        "batteries: %.0f ms wall, %llu events (%.0f events/sec), "
        "%lld deaths, first death %.2f s, %lld bits before it\n",
        side * side, headline_shards, cfg.duration, wall_ms,
        static_cast<unsigned long long>(m.events_processed), events_per_sec,
        static_cast<long long>(m.battery_deaths), m.time_to_first_death,
        static_cast<long long>(m.delivered_bits_until_first_death));
    sink.set_meta("headline_nodes", static_cast<double>(side * side));
    sink.set_meta("headline_shards", static_cast<double>(headline_shards));
    sink.set_meta("headline_events_per_sec", events_per_sec);
    sink.set_meta("headline_wall_ms", wall_ms);
    sink.set_meta("headline_battery_deaths",
                  static_cast<double>(m.battery_deaths));
    sink.set_meta("headline_time_to_first_death_s", m.time_to_first_death);
  }
  export_json("lifetime", sink);

  const double elapsed_s = ms_since(t_bench) / 1e3;
  std::printf("[wall] %.1f s total\n", elapsed_s);
  const double budget = opt.get_double("budget-s");
  if (budget > 0 && elapsed_s > budget) {
    std::fprintf(stderr,
                 "BUDGET EXCEEDED: %.1f s > %.1f s — investigate the "
                 "battery re-arm path (one event per radio state change) "
                 "or the lifetime-routing rebuild cadence\n",
                 elapsed_s, budget);
    return 2;
  }
  if (!determinism_ok) {
    std::fprintf(stderr,
                 "DETERMINISM BROKEN: the churn+battery sharded cell "
                 "disagrees across worker thread counts — look for shared "
                 "state mutated outside the window-barrier epoch hook\n");
    return 2;
  }
  return 0;
}
