// Capture-effect bench — what the all-overlaps-corrupt rule costs bulk
// transfer in dense bursts, measured as paired cells that differ ONLY in
// the Channel's SINR/capture switch:
//
//   sh/dual   vs capture-sh/dual         unit-disc, hidden-terminal grid
//   mh/dual   vs capture-mh/dual         unit-disc, one-hop 802.11
//   lossy-sh  vs capture-lossy-sh/dual   log-distance links (unequal
//   lossy-mh  vs capture-lossy-mh/dual   powers — where capture can win)
//
// Unit-disc collisions are equal-power ties the capture threshold cannot
// break, so those pairs bound the switch's null effect; the log-distance
// pairs are the paper-relevant cells, where a near sender's burst rides
// over a far sender's interference instead of dying with it. One table
// row per cell (standard §4.1 metrics + channel delivery counters), then
// a goodput off→on delta per pair. Writes BENCH_capture.json; its meta
// block records the capture threshold and both radios' noise floors
// (emitted only for capture runs — the conditional-meta contract).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace bcp;
  using namespace bcp::benchharness;
  util::Options opt("bench_capture",
                    "bulk goodput with vs without SINR capture");
  opt.add_int("runs", 2, "replications per cell")
      .add_double("duration", 600.0, "simulated seconds per run")
      .add_int("senders", 25, "CBR senders (dense)")
      .add_int("burst", 100, "dual-radio burst threshold in 32 B packets")
      .add_double("capture-db", 10.0, "SINR capture threshold (dB)")
      .add_int("seed", 1, "base RNG seed")
      .add_int("jobs", 0, "sweep worker threads (0 = all hardware cores)");
  if (!opt.parse(argc, argv)) return 1;
  const double capture_db = opt.get_double("capture-db");
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));

  // Paired (baseline, capture) cells: cell 2k is the baseline of cell
  // 2k+1, which the delta report below relies on. The lossy pairs run
  // log-distance links at the PropagationSpec defaults.
  std::vector<Cell> cells;
  for (const bool lossy : {false, true})
    for (const bool multi_hop : {false, true}) {
      Cell base{std::string(lossy ? "lossy-" : "") +
                    (multi_hop ? "mh/dual" : "sh/dual"),
                paper_preset(multi_hop, app::EvalModel::kDualRadio,
                             static_cast<int>(opt.get_int("senders")),
                             static_cast<int>(opt.get_int("burst")))};
      base.config.duration = opt.get_double("duration");
      if (lossy)
        base.config.propagation.kind = phy::PropagationKind::kLogDistance;
      Cell capture{"capture-" + base.label, base.config};
      capture.config.capture_enabled = true;
      capture.config.capture_threshold_db = capture_db;
      cells.push_back(std::move(base));
      cells.push_back(std::move(capture));
    }

  const app::SweepOptions sweep = sweep_options(opt);
  stats::ResultSink sink =
      run_cells(cells, {}, sweep,
                [](const app::RunMetrics& m, stats::ResultSink::Metrics& out) {
                  out.emplace_back("chan_frames",
                                   static_cast<double>(m.chan_frames));
                  out.emplace_back("chan_rx_starts",
                                   static_cast<double>(m.chan_rx_starts));
                  out.emplace_back("chan_rx_ends",
                                   static_cast<double>(m.chan_rx_ends));
                });

  stats::print_titled(
      "Capture sweep — bulk goodput, SINR capture off vs on", sink.to_table());

  std::printf("\nGoodput, capture off -> on (threshold %.1f dB):\n",
              capture_db);
  for (std::size_t p = 0; p + 1 < cells.size(); p += 2) {
    const double off = sink.metric(p, "goodput").mean();
    const double on = sink.metric(p + 1, "goodput").mean();
    std::printf("  %-22s %.4f -> %.4f (%+.2f%%)\n", cells[p].label.c_str(),
                off, on,
                off > 0 ? 100.0 * (on - off) / off : 0.0);
  }

  // Run-identity metadata from a config the capture cells actually ran:
  // propagation + PER parameters (lossy cells) and the capture
  // threshold / per-radio noise floors (conditional keys). The meta block
  // is file-level (one per BENCH export), so `meta_variant` names the
  // cell these identity keys describe — the baseline half of every pair
  // ran unit-disc and/or capture-off, as the cell labels say.
  sink.set_meta("meta_variant", cells.back().label);
  set_scenario_meta(sink, cells.back().config, seed);
  export_json("capture", sink);
  return 0;
}
