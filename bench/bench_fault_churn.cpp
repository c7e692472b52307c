// Fault/churn bench — how the paper's break-even story holds up once the
// idealized channel and the static always-alive network are taken away:
//
//   * baseline        — mh/dual on the clean unit-disc channel;
//   * churn-mh/*      — node crash/recover schedules (2 and 6 victims)
//                       for the dual-radio and pure-sensor models;
//   * lossy-mh/*      — log-distance + shadowing per-link PER;
//   * churn-sh/dual   — single-hop churn: senders/relays die mid-burst
//                       (the sink — the only bulk receiver here — is
//                       always spared by FaultPlan).
//
// One table row per cell: the standard §4.1 metrics plus the fault
// counters (crashes observed, routing rebuilds, data lost to crashes).
// Writes BENCH_fault_churn.json whose meta block records the propagation
// model, its PER parameters and the fault-plan seed, so a regression in
// any number is attributable to an exact, reproducible schedule.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace bcp;
  using namespace bcp::benchharness;
  util::Options opt("bench_fault_churn",
                    "goodput/energy under node churn and lossy channels");
  opt.add_int("runs", 2, "replications per cell")
      .add_double("duration", 600.0, "simulated seconds per run")
      .add_int("senders", 10, "CBR senders")
      .add_int("burst", 100, "dual-radio burst threshold in 32 B packets")
      .add_int("fault-seed", 1, "fault-plan schedule seed")
      .add_int("seed", 1, "base RNG seed")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)");
  if (!opt.parse(argc, argv)) return 1;
  const int runs = static_cast<int>(opt.get_int("runs"));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));

  // The paper grid at the preset offered load.
  const auto scenario = [&](bool multi_hop, app::EvalModel model) {
    app::ScenarioConfig cfg = paper_preset(
        multi_hop, model, static_cast<int>(opt.get_int("senders")),
        static_cast<int>(opt.get_int("burst")));
    cfg.duration = opt.get_double("duration");
    return cfg;
  };
  // `crashes` victims, each down for 60 s on average.
  const auto churn = [&](const char* label, bool multi_hop,
                         app::EvalModel model, int crashes) {
    Cell cell{std::string(label) + "-x" + std::to_string(crashes),
              scenario(multi_hop, model)};
    cell.config.faults.node_crashes = crashes;
    cell.config.faults.mean_downtime = 60.0;
    cell.config.faults.seed =
        static_cast<std::uint64_t>(opt.get_int("fault-seed"));
    return cell;
  };
  // Log-distance + shadowing links at the PropagationSpec defaults.
  const auto lossy = [&](const char* label, app::EvalModel model) {
    Cell cell{label, scenario(true, model)};
    cell.config.propagation.kind = phy::PropagationKind::kLogDistance;
    return cell;
  };
  using app::EvalModel;
  std::vector<Cell> cells = {
      {"mh/dual", scenario(true, EvalModel::kDualRadio)},
      churn("churn-mh/dual", true, EvalModel::kDualRadio, 2),
      churn("churn-mh/dual", true, EvalModel::kDualRadio, 6),
      churn("churn-mh/sensor", true, EvalModel::kSensor, 2),
      churn("churn-mh/sensor", true, EvalModel::kSensor, 6),
      churn("churn-sh/dual", false, EvalModel::kDualRadio, 4),
      churn("churn-mh/dual", true, EvalModel::kDualRadio, 6),
      lossy("lossy-mh/dual", EvalModel::kDualRadio),
      lossy("lossy-mh/sensor", EvalModel::kSensor),
  };
  // The sharded cell repeats the heaviest churn schedule on the parallel
  // engine (membership epochs at window barriers) — same fault plan, same
  // metrics columns, so the two engines' churn numbers sit side by side.
  Cell& sharded = cells[6];
  sharded.label += "-sharded4";
  sharded.config.shards = 4;
  sharded.config.sim_threads = 1;  // the sweep already saturates the cores

  stats::ResultSink sink = run_cells(
      cells, {}, sweep_options(opt),
      [](const app::RunMetrics& m, stats::ResultSink::Metrics& out) {
        out.emplace_back("dropped_node_down",
                         static_cast<double>(m.dropped_node_down));
        out.emplace_back("fault_node_crashes",
                         static_cast<double>(m.fault_node_crashes));
        out.emplace_back("fault_node_recoveries",
                         static_cast<double>(m.fault_node_recoveries));
        out.emplace_back("fault_recoveries_refused",
                         static_cast<double>(m.fault_recoveries_refused));
        out.emplace_back("route_rebuilds",
                         static_cast<double>(m.route_rebuilds));
        out.emplace_back("bcp_packets_lost_to_crash",
                         static_cast<double>(m.bcp_packets_lost_to_crash));
        out.emplace_back("mac_crash_drops",
                         static_cast<double>(m.mac_crash_drops));
      });

  stats::print_titled(
      "Fault/churn sweep — bulk transfer vs crashes and lossy links",
      sink.to_table());

  // Run-identity metadata, read from the configs the cells actually ran:
  // the lossy cells' channel model + PER parameters via set_scenario_meta,
  // and the churn cells' fault-plan identity.
  set_scenario_meta(sink, cells[7].config, seed);  // lossy-mh/dual
  const sim::FaultPlanSpec& faults = cells[1].config.faults;
  sink.set_meta("fault_seed", static_cast<double>(faults.seed));
  sink.set_meta("fault_mean_downtime_s", faults.mean_downtime);
  // Conditional-meta contract: the refused-recovery count appears only
  // when some run actually refused one (needs batteries, so it is zero
  // here unless a battery-enabled cell is added).
  double refused = 0;
  for (std::size_t i = 0; i < cells.size(); ++i)
    refused += sink.metric(i, "fault_recoveries_refused").mean() * runs;
  if (refused > 0) sink.set_meta("fault_recoveries_refused", refused);
  export_json("fault_churn", sink);
  return 0;
}
