#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
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

app::SweepOptions sweep_options(const util::Options& opt) {
  app::SweepOptions so;
  so.replications = static_cast<int>(opt.get_int("runs"));
  so.base_seed = static_cast<std::uint64_t>(opt.get_int("seed"));
  so.threads = static_cast<int>(opt.get_int("jobs"));
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

app::ScenarioConfig paper_preset(bool multi_hop, app::EvalModel model,
                                 int senders, int burst) {
  if (model != app::EvalModel::kDualRadio) burst = 1;
  return multi_hop ? app::ScenarioConfig::multi_hop(model, senders, burst)
                   : app::ScenarioConfig::single_hop(model, senders, burst);
}

stats::ResultSink run_cells(const std::vector<Cell>& cells,
                            const std::vector<int>& senders,
                            const app::SweepOptions& options,
                            const ExtraMetrics& extra) {
  std::vector<int> cell_ids(cells.size());
  std::iota(cell_ids.begin(), cell_ids.end(), 0);
  app::SweepGrid grid;
  grid.axis_ints("cell", cell_ids);
  if (!senders.empty()) grid.axis_ints("senders", senders);
  const app::SweepFn fn = [&](const app::SweepJob& job) {
    app::ScenarioConfig cfg =
        cells[static_cast<std::size_t>(job.point.get_int("cell"))].config;
    if (!senders.empty()) cfg.n_senders = job.point.get_int("senders");
    cfg.seed = job.seed;
    const app::RunMetrics m = app::run_scenario(cfg);
    stats::ResultSink::Metrics metrics = app::standard_metrics(m);
    if (extra) extra(m, metrics);
    return metrics;
  };
  stats::ResultSink sink = app::SweepRunner(options).run(grid, fn);
  const std::size_t per_cell = std::max<std::size_t>(senders.size(), 1);
  for (std::size_t p = 0; p < grid.size(); ++p)
    sink.set_label(p, cells[p / per_cell].label);
  return sink;
}

namespace {

/// One §4.1 figure cell, labelled as the figures have always labelled it
/// ("sh/sensor", "mh/dual-500"); rate_bps <= 0 keeps the preset's offered
/// load.
Cell figure_cell(bool multi_hop, app::EvalModel model, int burst,
                 int senders, double rate_bps, double duration) {
  // The duty-cycled strawman needs a duty cycle the figure columns don't
  // carry; bench_motivation_sleep_cycling sweeps it directly.
  BCP_REQUIRE_MSG(model != app::EvalModel::kWifiDutyCycled,
                  "kWifiDutyCycled is not supported as a figure column");
  const bool dual = model == app::EvalModel::kDualRadio;
  Cell cell;
  cell.label = std::string(multi_hop ? "mh/" : "sh/") +
               (dual ? "dual-" + std::to_string(burst)
                     : model == app::EvalModel::kSensor ? "sensor" : "wifi");
  cell.config = paper_preset(multi_hop, model, senders, burst);
  if (rate_bps > 0) cell.config.rate_bps = rate_bps;
  cell.config.duration = duration;
  return cell;
}

}  // namespace

void print_sender_sweep(const std::string& bench_name,
                        const std::string& title, bool multi_hop,
                        const SimOptions& opt,
                        const std::vector<Column>& columns,
                        double rate_bps) {
  // Distinct cells in column order; columns reading different metrics off
  // the same (model, burst) share one cell.
  std::vector<Cell> cells;
  std::vector<std::size_t> column_cell(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    Cell cell = figure_cell(multi_hop, columns[c].model, columns[c].burst,
                            opt.senders.front(), rate_bps, opt.duration);
    std::size_t ci = 0;
    while (ci < cells.size() && cells[ci].label != cell.label) ++ci;
    if (ci == cells.size()) cells.push_back(std::move(cell));
    column_cell[c] = ci;
  }
  stats::ResultSink sink =
      run_cells(cells, opt.senders, sweep_options(opt));

  // Pivot to the paper's shape: rows = sender counts, one column per spec.
  stats::TextTable table;
  std::vector<std::string> header{"senders"};
  for (const auto& c : columns) header.push_back(c.label);
  table.add_row(std::move(header));
  for (std::size_t si = 0; si < opt.senders.size(); ++si) {
    std::vector<std::string> row{std::to_string(opt.senders[si])};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const stats::Summary& s =
          sink.metric(column_cell[c] * opt.senders.size() + si,
                      metric_name(columns[c].metric));
      row.push_back(stats::TextTable::num_ci(s.mean(), s.ci_half_width()));
    }
    table.add_row(std::move(row));
  }
  stats::print_titled(title, table);
  set_scenario_meta(sink, cells.front().config, opt.seed);
  export_json(bench_name, sink);
}

void print_energy_delay(const std::string& bench_name,
                        const std::string& title, bool multi_hop,
                        const SimOptions& opt, double rate_bps) {
  app::SweepGrid grid;
  grid.axis_ints("senders", opt.senders).axis_ints("bursts", opt.bursts);

  const app::ScenarioConfig base =
      figure_cell(multi_hop, app::EvalModel::kDualRadio, opt.bursts.front(),
                  opt.senders.front(), rate_bps, opt.duration)
          .config;
  const app::SweepFn fn = [&base](const app::SweepJob& job) {
    app::ScenarioConfig cfg = base;
    cfg.n_senders = job.point.get_int("senders");
    cfg.burst_packets = job.point.get_int("bursts");
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
  set_scenario_meta(sink, base, opt.seed);
  export_json(bench_name, sink);
}

}  // namespace bcp::benchharness
