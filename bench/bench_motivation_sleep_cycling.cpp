// §1 motivation, quantified — "One solution is to sleep cycle the
// [high-power] radio... However, such sleep cycling cannot reduce the
// idling energy sufficiently for use in sensor networks."
//
// Runs the MH grid workload (10 senders, 0.2 Kbps) on:
//   * a pure 802.11 network sleep-cycled at duty 100%/10%/2% (idealized,
//     cost-free synchronization — a best case for sleep cycling), and
//   * the dual-radio network with BCP (burst 500),
// and prints delivery, delay, per-node power and the J/Kbit metric.
//
// Expected: even at 2% duty the sleep-cycled 802.11 radio burns orders of
// magnitude more than BCP (waking 36 radios every period costs idle +
// wake-up energy regardless of traffic), while BCP pays only per burst.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace bcp;
  using namespace bcp::benchharness;
  util::Options opt("bench_motivation_sleep_cycling",
                    "sleep-cycled 802.11 vs BCP (the §1 motivation)");
  opt.add_int("senders", 10, "sender count")
      .add_double("duration", 2000.0, "simulated seconds")
      .add_int("seed", 1, "seed")
      .add_int("runs", 1, "replications per configuration")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)");
  if (!opt.parse(argc, argv)) return 1;
  const int senders = static_cast<int>(opt.get_int("senders"));
  const double duration = opt.get_double("duration");

  // Both multi-hop presets at 0.2 Kbps.
  const auto mh = [&](app::EvalModel model) {
    app::ScenarioConfig cfg = paper_preset(true, model, senders, 500);
    cfg.rate_bps = 200.0;
    cfg.duration = duration;
    return cfg;
  };
  std::vector<Cell> cells;
  for (const auto& [label, duty] :
       {std::pair{"802.11 sleep-cycled 100%", 1.0},
        std::pair{"802.11 sleep-cycled 10%", 0.10},
        std::pair{"802.11 sleep-cycled 2%", 0.02}}) {
    Cell cell{label, mh(app::EvalModel::kWifiDutyCycled)};
    cell.config.duty_cycle = duty;
    cells.push_back(std::move(cell));
  }
  cells.push_back(
      {"Dual-radio BCP (burst 500)", mh(app::EvalModel::kDualRadio)});

  const app::SweepOptions sweep = sweep_options(opt);
  stats::ResultSink sink = run_cells(cells, {}, sweep);

  stats::TextTable t;
  t.add_row({"configuration", "goodput", "delay_s", "J_per_Kbit",
             "mW_per_node"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double energy = sink.metric(i, "sensor_energy_ideal_J").mean() +
                          sink.metric(i, "wifi_energy_full_J").mean();
    t.add_row({cells[i].label,
               stats::TextTable::num(sink.metric(i, "goodput").mean(), 3),
               stats::TextTable::num(sink.metric(i, "mean_delay_s").mean(),
                                     3),
               stats::TextTable::num(
                   sink.metric(i, "normalized_energy").mean(), 3),
               stats::TextTable::num(energy / 36.0 / duration * 1e3, 3)});
  }
  stats::print_titled(
      "Motivation (§1) — sleep-cycled 802.11 vs dual-radio BCP, MH grid, "
      "0.2 Kbps",
      t);
  set_scenario_meta(sink, cells.front().config, sweep.base_seed);
  export_json("motivation_sleep_cycling", sink);
  std::printf(
      "Expected: per-node power of sleep-cycled 802.11 scales with duty\n"
      "(idle+wake-up dominate regardless of traffic); BCP pays per burst\n"
      "and lands orders of magnitude lower — the reason for the second\n"
      "radio.\n");
  return 0;
}
