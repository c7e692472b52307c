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
#include <vector>

#include "common.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace bcp;
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
  const int runs = static_cast<int>(opt.get_int("runs"));
  const double duration = opt.get_double("duration");
  const double slot_ms = opt.get_double("slot-ms");
  const double guard_ms = opt.get_double("guard-ms");
  const double drift_ppm = opt.get_double("drift-ppm");
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));

  // Registry variant per cell, doubling as its label. Paired (CSMA, TDMA)
  // order: cell 2k is the baseline of cell 2k+1, which the delta report
  // below relies on.
  const std::vector<const char*> cells = {
      "sh/sensor", "tdma-sh/sensor",
      "mh/sensor", "tdma-mh/sensor",
      "mh/wifi",   "tdma-mh/wifi",
  };
  const std::vector<int> senders = {10, 25};

  app::SweepGrid grid;
  std::vector<int> cell_ids;
  for (std::size_t i = 0; i < cells.size(); ++i)
    cell_ids.push_back(static_cast<int>(i));
  grid.axis_ints("cell", cell_ids).axis_ints("senders", senders);

  // The TDMA knob overrides ride into the tdma-* builders as sweep axes;
  // the CSMA cells ignore them.
  const auto scenario_point = [&](std::size_t index, double n_senders) {
    std::vector<std::pair<std::string, double>> axes = {
        {"senders", n_senders}, {"duration", duration}};
    if (slot_ms > 0) axes.emplace_back("slot_ms", slot_ms);
    if (guard_ms > 0) axes.emplace_back("guard_ms", guard_ms);
    if (drift_ppm >= 0) axes.emplace_back("drift_ppm", drift_ppm);
    return app::SweepPoint(index, std::move(axes));
  };

  const app::SweepFn fn = [&](const app::SweepJob& job) {
    const char* variant =
        cells[static_cast<std::size_t>(job.point.get_int("cell"))];
    app::ScenarioConfig cfg = app::ScenarioRegistry::builtin().make(
        variant, scenario_point(job.point.index(), job.point.get("senders")));
    cfg.seed = job.seed;
    const app::RunMetrics m = app::run_scenario(cfg);
    stats::ResultSink::Metrics metrics = app::standard_metrics(m);
    metrics.emplace_back("tdma_beacons_sent",
                         static_cast<double>(m.tdma_beacons_sent));
    metrics.emplace_back("tdma_beacons_heard",
                         static_cast<double>(m.tdma_beacons_heard));
    metrics.emplace_back("tdma_slots_skipped",
                         static_cast<double>(m.tdma_slots_skipped));
    return metrics;
  };

  app::SweepOptions sweep;
  sweep.replications = runs;
  sweep.base_seed = seed;
  sweep.threads = static_cast<int>(opt.get_int("jobs"));
  const app::SweepRunner runner(sweep);
  stats::ResultSink sink = runner.run(grid, fn);
  for (std::size_t ci = 0; ci < cells.size(); ++ci)
    for (std::size_t si = 0; si < senders.size(); ++si)
      sink.set_label(grid.index_of({ci, si}),
                     std::string(cells[ci]) + "@" +
                         std::to_string(senders[si]));

  stats::print_titled("TDMA sweep — CSMA/CA vs sink-coordinated slotting",
                      sink.to_table());

  std::printf("\nCSMA -> TDMA per cell:\n");
  std::printf("  %-14s %7s  %-24s %s\n", "cell", "senders",
              "goodput", "energy J/Kbit");
  for (std::size_t p = 0; p + 1 < cells.size(); p += 2)
    for (std::size_t si = 0; si < senders.size(); ++si) {
      const std::size_t csma = grid.index_of({p, si});
      const std::size_t tdma = grid.index_of({p + 1, si});
      const double g0 = sink.metric(csma, "goodput").mean();
      const double g1 = sink.metric(tdma, "goodput").mean();
      const double e0 = sink.metric(csma, "normalized_energy").mean();
      const double e1 = sink.metric(tdma, "normalized_energy").mean();
      std::printf("  %-14s %7d  %.3f -> %.3f (%+.1f%%)  %.3f -> %.3f (%+.1f%%)\n",
                  cells[p], senders[si], g0, g1,
                  g0 > 0 ? 100.0 * (g1 - g0) / g0 : 0.0, e0, e1,
                  e0 > 0 ? 100.0 * (e1 - e0) / e0 : 0.0);
    }

  // Run-identity metadata from a config the TDMA cells actually ran: the
  // family and slot/guard/beacon/drift knobs (conditional keys). The meta
  // block is file-level, so `meta_variant` names the cell these identity
  // keys describe — the CSMA half of every pair ran the CSMA/CA default, as
  // the cell labels say.
  sink.set_meta("meta_variant", "tdma-mh/sensor");
  set_scenario_meta(sink,
                    app::ScenarioRegistry::builtin().make(
                        "tdma-mh/sensor",
                        scenario_point(0, senders.front())),
                    seed);
  export_json("tdma", sink);
  return 0;
}
