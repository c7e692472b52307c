#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/assert.hpp"

namespace bcp::benchharness {

bool parse_sim_options(int argc, const char* const* argv, const char* name,
                       const char* summary, SimOptions* out) {
  util::Options opt(name, summary);
  opt.add_int("runs", out->runs, "replications per data point")
      .add_double("duration", out->duration, "simulated seconds per run")
      .add_int("seed", 1, "base RNG seed")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)")
      .add_flag("full", "paper scale: 20 runs, sender counts 5,10,...,35");
  if (!opt.parse(argc, argv)) return false;
  out->runs = static_cast<int>(opt.get_int("runs"));
  out->duration = opt.get_double("duration");
  out->seed = static_cast<std::uint64_t>(opt.get_int("seed"));
  out->jobs = static_cast<int>(opt.get_int("jobs"));
  if (opt.flag("full")) {
    out->runs = 20;
    out->senders = {5, 10, 15, 20, 25, 30, 35};
  }
  BCP_REQUIRE(out->runs >= 1);
  BCP_REQUIRE(out->duration > 0);
  BCP_REQUIRE(out->jobs >= 0);
  return true;
}

app::SweepOptions sweep_options(const SimOptions& opt) {
  app::SweepOptions so;
  so.replications = opt.runs;
  so.base_seed = opt.seed;
  so.threads = opt.jobs;
  return so;
}

const char* metric_name(Metric metric) {
  switch (metric) {
    case Metric::kGoodput:
      return "goodput";
    case Metric::kNormalizedEnergy:
      return "normalized_energy";
    case Metric::kNormalizedEnergySensorIdeal:
      return "normalized_energy_sensor_ideal";
    case Metric::kNormalizedEnergySensorHeader:
      return "normalized_energy_sensor_header";
    case Metric::kDelay:
      return "mean_delay_s";
  }
  return "?";
}

std::vector<Column> dual_columns(const std::vector<int>& bursts,
                                 Metric metric) {
  std::vector<Column> cols;
  for (const int b : bursts)
    cols.push_back(Column{"DualRadio-" + std::to_string(b),
                          app::EvalModel::kDualRadio, b, metric});
  return cols;
}

void export_json(const std::string& bench_name,
                 const stats::ResultSink& sink) {
  const std::string path = "BENCH_" + bench_name + ".json";
  if (sink.write_json(bench_name, path))
    std::printf("[json] %s\n", path.c_str());
}

void set_scenario_meta(stats::ResultSink& sink,
                       const app::ScenarioConfig& config,
                       std::uint64_t base_seed) {
  sink.set_meta("topology", net::to_string(config.topology.kind));
  sink.set_meta("node_count",
                static_cast<double>(config.topology.node_count()));
  sink.set_meta("seed", static_cast<double>(base_seed));
  // Channel-model and fault-plan identity — emitted only when the run
  // departs from the default (UnitDisc, no faults), so the historical
  // fig01–fig12/table1 exports stay byte-identical.
  if (config.propagation.kind != phy::PropagationKind::kUnitDisc) {
    sink.set_meta("propagation", phy::to_string(config.propagation.kind));
    if (config.propagation.kind == phy::PropagationKind::kLogDistance) {
      sink.set_meta("path_loss_exponent",
                    config.propagation.path_loss_exponent);
      sink.set_meta("shadowing_sigma_db",
                    config.propagation.shadowing_sigma_db);
      sink.set_meta("fade_margin_db", config.propagation.fade_margin_db);
      sink.set_meta("per_transition_db",
                    config.propagation.per_transition_db);
    } else {
      // kDistancePer: the curve IS the model — serialize every knot so
      // the run can be regenerated from the meta alone.
      const auto& curve = config.propagation.per_curve.empty()
                              ? phy::kDefaultPerCurve()
                              : config.propagation.per_curve;
      std::string knots;
      for (const auto& point : curve) {
        if (!knots.empty()) knots += " ";
        knots += std::to_string(point.distance_fraction) + ":" +
                 std::to_string(point.per);
      }
      sink.set_meta("per_curve", knots);
    }
  }
  // Capture (SINR) identity — again only when the run departs from the
  // default-off switch, so every historical export stays byte-identical.
  if (config.capture_enabled) {
    sink.set_meta("capture_threshold_db", config.capture_threshold_db);
    sink.set_meta("sensor_noise_floor_dbm",
                  config.sensor_radio.noise_floor_dbm);
    sink.set_meta("wifi_noise_floor_dbm", config.wifi_radio.noise_floor_dbm);
  }
  // MAC-family identity — only when a radio class departs from the CSMA/CA
  // default, keeping every CSMA export byte-identical.
  const auto mac_meta = [&sink](const char* radio, const mac::MacSpec& spec) {
    if (!spec.is_tdma()) return;
    sink.set_meta(std::string(radio) + "_mac", mac::to_string(spec.family));
    // Zeros mean "class defaults" (resolved per-run against the schedule);
    // emit them as-is so the spec is reproducible from the meta.
    sink.set_meta(std::string(radio) + "_tdma_slot_s", spec.tdma.slot_len);
    sink.set_meta(std::string(radio) + "_tdma_guard_s", spec.tdma.guard);
    sink.set_meta(std::string(radio) + "_tdma_beacon_period_s",
                  spec.tdma.beacon_period);
    sink.set_meta(std::string(radio) + "_tdma_sync_drift",
                  spec.tdma.sync_drift);
  };
  mac_meta("sensor", config.sensor_mac);
  mac_meta("wifi", config.wifi_mac);
  // Sharded-engine identity — only when the run leaves the single-queue
  // default, so every historical export stays byte-identical.
  if (config.shards > 1) {
    sink.set_meta("shards", static_cast<double>(config.shards));
    // The engine refuses a run with more stripes than nodes; benches that
    // sweep node counts clamp per cell instead. Record the stripe count
    // that actually partitioned the plane whenever it differs from the
    // requested one, so the export is honest about what ran.
    const int effective =
        std::min(config.shards, config.topology.node_count());
    if (effective != config.shards)
      sink.set_meta("effective_shards", static_cast<double>(effective));
    sink.set_meta("sim_threads", static_cast<double>(config.sim_threads));
    sink.set_meta("shard_window_s", config.shard_window);
  }
  if (!config.faults.empty()) {
    sink.set_meta("fault_seed", static_cast<double>(config.faults.seed));
    sink.set_meta("fault_crashes",
                  static_cast<double>(config.faults.node_crashes));
    sink.set_meta("fault_mean_downtime_s", config.faults.mean_downtime);
    sink.set_meta("fault_link_flaps",
                  static_cast<double>(config.faults.link_flaps));
    if (config.faults.link_flaps > 0)
      sink.set_meta("fault_mean_link_downtime_s",
                    config.faults.mean_link_downtime);
  }
  // Finite-battery identity — only when the run departs from the
  // infinite-energy default, so every historical export stays
  // byte-identical.
  if (config.battery.enabled) {
    sink.set_meta("battery_sensor_j", config.battery.sensor_initial_j);
    sink.set_meta("battery_wifi_j", config.battery.wifi_initial_j);
    if (config.route_policy != net::RoutePolicy::kShortestPath) {
      sink.set_meta("route_policy", net::to_string(config.route_policy));
      sink.set_meta("lifetime_weight", config.battery.lifetime_weight);
      sink.set_meta("reroute_period_s", config.battery.reroute_period);
    }
  }
}

stats::ResultSink run_grid_bench(const std::string& bench_name,
                                 const std::string& title,
                                 const app::SweepGrid& grid,
                                 const app::SweepFn& fn,
                                 const app::SweepOptions& options) {
  const app::SweepRunner runner(options);
  stats::ResultSink sink = runner.run(grid, fn);
  stats::print_titled(title, sink.to_table());
  export_json(bench_name, sink);
  return sink;
}

namespace {

/// Registry name of one figure column's scenario.
std::string variant_name(bool multi_hop, app::EvalModel model) {
  const std::string prefix = multi_hop ? "mh/" : "sh/";
  switch (model) {
    case app::EvalModel::kSensor:
      return prefix + "sensor";
    case app::EvalModel::kWifi:
      return prefix + "wifi";
    case app::EvalModel::kWifiDutyCycled:
      // The wifi-duty builders require a "duty" axis the figure grids
      // don't carry; sweep it directly (see bench_motivation_sleep_cycling)
      // instead of through a sender-sweep column.
      BCP_REQUIRE_MSG(false,
                      "kWifiDutyCycled is not supported as a figure column");
      break;
    case app::EvalModel::kDualRadio:
      return prefix + "dual";
  }
  return prefix + "?";
}

/// A distinct simulated configuration; columns reading different metrics
/// off the same (model, burst) share one cell.
struct Cell {
  std::string variant;
  int burst;  // 0 for the single-radio models
};

/// SweepFn for a figure grid with axes ("cell", "senders"): decodes the
/// cell, synthesizes the registry point, runs the scenario.
app::SweepFn cell_sweep_fn(std::vector<Cell> cells, double rate_bps,
                           double duration) {
  return [cells = std::move(cells), rate_bps,
          duration](const app::SweepJob& job) {
    const auto ci = static_cast<std::size_t>(job.point.get_int("cell"));
    BCP_REQUIRE(ci < cells.size());
    const Cell& cell = cells[ci];
    const app::SweepPoint scenario_point(
        job.point.index(),
        {{"senders", job.point.get("senders")},
         {"burst", static_cast<double>(cell.burst > 0 ? cell.burst : 1)},
         {"rate_bps", rate_bps},
         {"duration", duration}});
    app::ScenarioConfig cfg =
        app::ScenarioRegistry::builtin().make(cell.variant, scenario_point);
    cfg.seed = job.seed;
    return app::standard_metrics(app::run_scenario(cfg));
  };
}

}  // namespace

void print_sender_sweep(const std::string& bench_name,
                        const std::string& title, bool multi_hop,
                        const SimOptions& opt,
                        const std::vector<Column>& columns,
                        double rate_bps) {
  // Distinct cells in column order; remember each column's cell index.
  std::vector<Cell> cells;
  std::vector<std::size_t> column_cell(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    const Cell cell{
        variant_name(multi_hop, columns[c].model),
        columns[c].model == app::EvalModel::kDualRadio ? columns[c].burst
                                                       : 0};
    std::size_t ci = 0;
    while (ci < cells.size() && (cells[ci].variant != cell.variant ||
                                 cells[ci].burst != cell.burst))
      ++ci;
    if (ci == cells.size()) cells.push_back(cell);
    column_cell[c] = ci;
  }

  app::SweepGrid grid;
  std::vector<int> cell_ids(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    cell_ids[i] = static_cast<int>(i);
  grid.axis_ints("cell", cell_ids).axis_ints("senders", opt.senders);

  const app::SweepRunner runner(sweep_options(opt));
  stats::ResultSink sink =
      runner.run(grid, cell_sweep_fn(cells, rate_bps, opt.duration));

  for (std::size_t ci = 0; ci < cells.size(); ++ci)
    for (std::size_t si = 0; si < opt.senders.size(); ++si) {
      std::string label = cells[ci].variant;
      if (cells[ci].burst > 0)
        label += "-" + std::to_string(cells[ci].burst);
      sink.set_label(grid.index_of({ci, si}), label);
    }

  // Pivot to the paper's shape: rows = sender counts, one column per spec.
  stats::TextTable table;
  std::vector<std::string> header{"senders"};
  for (const auto& c : columns) header.push_back(c.label);
  table.add_row(std::move(header));
  for (std::size_t si = 0; si < opt.senders.size(); ++si) {
    std::vector<std::string> row{std::to_string(opt.senders[si])};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const stats::Summary& s =
          sink.metric(grid.index_of({column_cell[c], si}),
                      metric_name(columns[c].metric));
      row.push_back(stats::TextTable::num_ci(s.mean(), s.ci_half_width()));
    }
    table.add_row(std::move(row));
  }
  stats::print_titled(title, table);
  // Rebuild one cell's config (no simulation) to read the placement the
  // whole figure ran on.
  const app::SweepPoint meta_point(
      0, {{"senders", static_cast<double>(opt.senders.front())},
          {"burst", static_cast<double>(
               cells.front().burst > 0 ? cells.front().burst : 1)},
          {"rate_bps", rate_bps},
          {"duration", opt.duration}});
  set_scenario_meta(sink,
                    app::ScenarioRegistry::builtin().make(
                        cells.front().variant, meta_point),
                    opt.seed);
  export_json(bench_name, sink);
}

void print_energy_delay(const std::string& bench_name,
                        const std::string& title, bool multi_hop,
                        const SimOptions& opt, double rate_bps) {
  app::SweepGrid grid;
  grid.axis_ints("senders", opt.senders).axis_ints("bursts", opt.bursts);

  const std::string variant = multi_hop ? "mh/dual" : "sh/dual";
  const double duration = opt.duration;
  const app::SweepFn fn = [variant, rate_bps,
                           duration](const app::SweepJob& job) {
    const app::SweepPoint scenario_point(
        job.point.index(), {{"senders", job.point.get("senders")},
                            {"burst", job.point.get("bursts")},
                            {"rate_bps", rate_bps},
                            {"duration", duration}});
    app::ScenarioConfig cfg =
        app::ScenarioRegistry::builtin().make(variant, scenario_point);
    cfg.seed = job.seed;
    return app::standard_metrics(app::run_scenario(cfg));
  };

  const app::SweepRunner runner(sweep_options(opt));
  stats::ResultSink sink = runner.run(grid, fn);

  stats::TextTable table;
  table.add_row({"senders", "burst", "delay_s", "energy_J_per_Kbit"});
  for (std::size_t si = 0; si < opt.senders.size(); ++si)
    for (std::size_t bi = 0; bi < opt.bursts.size(); ++bi) {
      const std::size_t idx = grid.index_of({si, bi});
      const stats::Summary& delay = sink.metric(idx, "mean_delay_s");
      const stats::Summary& energy = sink.metric(idx, "normalized_energy");
      table.add_row(
          {std::to_string(opt.senders[si]), std::to_string(opt.bursts[bi]),
           stats::TextTable::num_ci(delay.mean(), delay.ci_half_width()),
           stats::TextTable::num_ci(energy.mean(),
                                    energy.ci_half_width())});
    }
  stats::print_titled(title, table);
  const app::SweepPoint meta_point(
      0, {{"senders", static_cast<double>(opt.senders.front())},
          {"burst", static_cast<double>(opt.bursts.front())},
          {"rate_bps", rate_bps},
          {"duration", duration}});
  set_scenario_meta(
      sink, app::ScenarioRegistry::builtin().make(variant, meta_point),
      opt.seed);
  export_json(bench_name, sink);
}

}  // namespace bcp::benchharness
