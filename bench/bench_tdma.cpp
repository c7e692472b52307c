// TDMA MAC-family bench — what the sink-coordinated slot schedule buys
// (and costs) against CSMA/CA, measured as paired cells that differ ONLY
// in the MacSpec family on the data radio:
//
//   sh/sensor vs tdma-sh/sensor   Mica convergecast, 0.2 Kbps senders
//   mh/sensor vs tdma-mh/sensor   same tree, 2 Kbps senders (overload:
//                                 the slot schedule caps per-node rate)
//   mh/wifi   vs tdma-mh/wifi     always-on 802.11, one hop to the sink
//
// Each pair runs at two sender densities, so the table reads goodput and
// energy-per-delivered-Kbit vs density and load. CSMA pays link acks plus
// collision retries on every hop; TDMA pays the beacon tax and caps
// throughput at one frame per slot — the dense sensor cells are where
// collision-free slotting wins on J/Kbit. One table row per (cell,
// senders) plus TDMA schedule-health counters, then per-pair goodput and
// energy deltas. Writes BENCH_tdma.json; its meta block records the
// resolved family and slot/guard/beacon/drift knobs (emitted only for
// TDMA runs — the conditional-meta contract).
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/options.hpp"

namespace {

using namespace bcp;

/// A radio class's TDMA defaults with the bench's overrides applied (a
/// slot or guard <= 0 and a drift < 0 keep the default). The defaults go
/// through the same ms and ppm round trip as the overrides, so 100 ppm
/// reads back as 9.9999999999999991e-05, the value the exports record.
mac::TdmaParams tdma_knobs(mac::TdmaParams knobs, double slot_ms,
                           double guard_ms, double drift_ppm) {
  knobs.slot_len =
      util::milliseconds(slot_ms > 0 ? slot_ms : knobs.slot_len / 1e-3);
  knobs.guard =
      util::milliseconds(guard_ms > 0 ? guard_ms : knobs.guard / 1e-3);
  knobs.beacon_period = 0;  // the tightest superframe
  knobs.sync_drift =
      (drift_ppm >= 0 ? drift_ppm : knobs.sync_drift * 1e6) * 1e-6;
  return knobs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bcp::benchharness;
  util::Options opt("bench_tdma",
                    "goodput and energy, CSMA/CA vs sink-coordinated TDMA");
  opt.add_int("runs", 2, "replications per cell")
      .add_double("duration", 600.0, "simulated seconds per run")
      .add_double("slot-ms", 0.0, "TDMA slot length override (0 = default)")
      .add_double("guard-ms", 0.0, "TDMA guard override (0 = default)")
      .add_double("drift-ppm", -1.0, "TDMA sync drift override (<0 = default)")
      .add_int("seed", 1, "base RNG seed")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)");
  if (!opt.parse(argc, argv)) return 1;
  const double slot_ms = opt.get_double("slot-ms");
  const double guard_ms = opt.get_double("guard-ms");
  const double drift_ppm = opt.get_double("drift-ppm");
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));
  const std::vector<int> senders = {10, 25};

  // Paired (CSMA, TDMA) cells: cell 2k is the baseline of cell 2k+1, which
  // the delta report below relies on. TDMA replaces CSMA/CA on the data
  // radio of the model.
  std::vector<Cell> cells;
  for (const auto& [label, multi_hop, model] :
       {std::tuple{"sh/sensor", false, app::EvalModel::kSensor},
        std::tuple{"mh/sensor", true, app::EvalModel::kSensor},
        std::tuple{"mh/wifi", true, app::EvalModel::kWifi}}) {
    const bool wifi = model == app::EvalModel::kWifi;
    Cell csma{label, paper_preset(multi_hop, model, senders[0], 1)};
    csma.config.duration = opt.get_double("duration");
    Cell tdma{"tdma-" + csma.label, csma.config};
    mac::MacSpec& spec = wifi ? tdma.config.wifi_mac : tdma.config.sensor_mac;
    spec.family = mac::MacFamily::kTdma;
    spec.tdma = tdma_knobs(
        wifi ? mac::tdma_wifi_params() : mac::tdma_sensor_params(), slot_ms,
        guard_ms, drift_ppm);
    cells.push_back(std::move(csma));
    cells.push_back(std::move(tdma));
  }

  stats::ResultSink sink = run_cells(
      cells, senders, sweep_options(opt),
      [](const app::RunMetrics& m, stats::ResultSink::Metrics& out) {
        out.emplace_back("tdma_beacons_sent",
                         static_cast<double>(m.tdma_beacons_sent));
        out.emplace_back("tdma_beacons_heard",
                         static_cast<double>(m.tdma_beacons_heard));
        out.emplace_back("tdma_slots_skipped",
                         static_cast<double>(m.tdma_slots_skipped));
      });
  const auto point = [&](std::size_t ci, std::size_t si) {
    return ci * senders.size() + si;
  };
  for (std::size_t ci = 0; ci < cells.size(); ++ci)
    for (std::size_t si = 0; si < senders.size(); ++si)
      sink.set_label(point(ci, si),
                     cells[ci].label + "@" + std::to_string(senders[si]));

  stats::print_titled("TDMA sweep — CSMA/CA vs sink-coordinated slotting",
                      sink.to_table());

  std::printf("\nCSMA -> TDMA per cell:\n");
  std::printf("  %-14s %7s  %-24s %s\n", "cell", "senders",
              "goodput", "energy J/Kbit");
  for (std::size_t p = 0; p + 1 < cells.size(); p += 2)
    for (std::size_t si = 0; si < senders.size(); ++si) {
      const std::size_t csma = point(p, si);
      const std::size_t tdma = point(p + 1, si);
      const double g0 = sink.metric(csma, "goodput").mean();
      const double g1 = sink.metric(tdma, "goodput").mean();
      const double e0 = sink.metric(csma, "normalized_energy").mean();
      const double e1 = sink.metric(tdma, "normalized_energy").mean();
      std::printf("  %-14s %7d  %.3f -> %.3f (%+.1f%%)  %.3f -> %.3f (%+.1f%%)\n",
                  cells[p].label.c_str(), senders[si], g0, g1,
                  g0 > 0 ? 100.0 * (g1 - g0) / g0 : 0.0, e0, e1,
                  e0 > 0 ? 100.0 * (e1 - e0) / e0 : 0.0);
    }

  // Run-identity metadata from a config the TDMA cells actually ran: the
  // family and slot/guard/beacon/drift knobs (conditional keys). The meta
  // block is file-level, so `meta_variant` names the cell these identity
  // keys describe — the CSMA half of every pair ran the CSMA/CA default, as
  // the cell labels say.
  const Cell& meta_cell = cells[3];  // tdma-mh/sensor
  sink.set_meta("meta_variant", meta_cell.label);
  set_scenario_meta(sink, meta_cell.config, seed);
  export_json("tdma", sink);
  return 0;
}
