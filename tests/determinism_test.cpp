// Byte-identical determinism of the figure pipeline, pinned to a golden.
//
// The BENCH JSON written by the figure harnesses is the repo's determinism
// contract: same code + same seed = same bytes, across thread counts and
// across refactors of the event/frame hot path. This test runs a small
// fig05 slice (sh/dual, burst 10, 2 sender counts x 2 replications,
// 120 simulated seconds) through the same sweep pipeline the bench uses
// and compares the serialized ResultSink byte-for-byte against a golden
// captured before the zero-allocation hot-path rework. If an optimization
// changes scheduling order, RNG consumption, payload sizes or the
// aggregation path, the diff shows up here in seconds instead of in a
// figure regression.
#include <gtest/gtest.h>

#include <string>

#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "stats/result_sink.hpp"

namespace bcp {
namespace {

/// Captured from the pre-rework tree (PR 2 head); regenerate ONLY for an
/// intentional physics/statistics change, never for a perf refactor.
constexpr const char* kFig05SliceGolden = R"json({
  "bench": "fig05_slice",
  "points": [
    {"label": "sh/dual-10", "params": {"cell": 0, "senders": 5},
     "metrics": {"goodput": {"mean": 0.8009476513736389, "ci95": 2.0666280923960083, "stddev": 0.23002152342575735, "min": 0.6382978723404256, "max": 0.9635974304068522, "n": 2},
                 "normalized_energy": {"mean": 0.10525805751748507, "ci95": 0.5171185912663208, "stddev": 0.05755675469259405, "min": 0.06455928597126116, "max": 0.14595682906370896, "n": 2},
                 "normalized_energy_sensor_ideal": {"mean": 0.004245583175543046, "ci95": 0.017240054682620947, "stddev": 0.0019188666101224879, "min": 0.0028887395833329926, "max": 0.0056024267677531004, "n": 2},
                 "normalized_energy_sensor_header": {"mean": 0.005815460275124616, "ci95": 0.023718922757366357, "stddev": 0.0026399828622971316, "min": 0.003948710490978043, "max": 0.00768221005927119, "n": 2},
                 "mean_delay_s": {"mean": 6.4659838105818315, "ci95": 1.8559851511342818, "stddev": 0.20657637118661892, "min": 6.319912257682864, "max": 6.612055363480799, "n": 2},
                 "generated": {"mean": 468.5, "ci95": 19.058999999999997, "stddev": 2.1213203435596424, "min": 467, "max": 470, "n": 2},
                 "delivered": {"mean": 375, "ci95": 952.9499999999999, "stddev": 106.06601717798213, "min": 300, "max": 450, "n": 2},
                 "dropped_buffer": {"mean": 0, "ci95": 0, "stddev": 0, "min": 0, "max": 0, "n": 2},
                 "dropped_queue": {"mean": 0, "ci95": 0, "stddev": 0, "min": 0, "max": 0, "n": 2},
                 "dropped_mac": {"mean": 0, "ci95": 0, "stddev": 0, "min": 0, "max": 0, "n": 2},
                 "mac_tx_attempts": {"mean": 730, "ci95": 1766.134, "stddev": 196.5756851698602, "min": 591, "max": 869, "n": 2},
                 "mac_tx_failed": {"mean": 8.5, "ci95": 108.00099999999998, "stddev": 12.020815280171307, "min": 0, "max": 17, "n": 2},
                 "bcp_wakeups": {"mean": 217, "ci95": 355.7679999999999, "stddev": 39.59797974644666, "min": 189, "max": 245, "n": 2},
                 "wifi_wakeup_transitions": {"mean": 387.5, "ci95": 501.887, "stddev": 55.86143571373726, "min": 348, "max": 427, "n": 2},
                 "wifi_on_seconds": {"mean": 11.661797867830174, "ci95": 30.82165393979001, "stddev": 3.4305368342846823, "min": 9.236042009197245, "max": 14.087553726463105, "n": 2},
                 "sensor_energy_ideal_J": {"mean": 0.3815245878816994, "ci95": 0.6193131568253719, "stddev": 0.06893129747666744, "min": 0.33278279999996074, "max": 0.4302663757634381, "n": 2},
                 "wifi_energy_full_J": {"mean": 8.941832520109369, "ci95": 23.345821131451853, "stddev": 2.598455601199088, "min": 7.104446943889325, "max": 10.77921809632941, "n": 2}}},
    {"label": "sh/dual-10", "params": {"cell": 0, "senders": 15},
     "metrics": {"goodput": {"mean": 0.7679824841555418, "ci95": 1.8733777403992877, "stddev": 0.2085122153250855, "min": 0.6205420827389444, "max": 0.9154228855721394, "n": 2},
                 "normalized_energy": {"mean": 0.11662147251154831, "ci95": 0.19629733549262526, "stddev": 0.021848445939821517, "min": 0.10117228822911283, "max": 0.1320706567939838, "n": 2},
                 "normalized_energy_sensor_ideal": {"mean": 0.0040228508576344016, "ci95": 0.010038142595563364, "stddev": 0.0011172735242940951, "min": 0.003232819172165854, "max": 0.004812882543102949, "n": 2},
                 "normalized_energy_sensor_header": {"mean": 0.0054625091140859125, "ci95": 0.01432440951793641, "stddev": 0.0015943470969031893, "min": 0.004335135470300582, "max": 0.006589882757871243, "n": 2},
                 "mean_delay_s": {"mean": 6.7903660679029745, "ci95": 1.8420949521719943, "stddev": 0.20503035294669072, "min": 6.645387714985298, "max": 6.93534442082065, "n": 2},
                 "generated": {"mean": 1404.5, "ci95": 31.765, "stddev": 3.5355339059327378, "min": 1402, "max": 1407, "n": 2},
                 "delivered": {"mean": 1079, "ci95": 2655.5539999999996, "stddev": 295.57063453597686, "min": 870, "max": 1288, "n": 2},
                 "dropped_buffer": {"mean": 0, "ci95": 0, "stddev": 0, "min": 0, "max": 0, "n": 2},
                 "dropped_queue": {"mean": 0, "ci95": 0, "stddev": 0, "min": 0, "max": 0, "n": 2},
                 "dropped_mac": {"mean": 0, "ci95": 0, "stddev": 0, "min": 0, "max": 0, "n": 2},
                 "mac_tx_attempts": {"mean": 2121.5, "ci95": 1569.1909999999998, "stddev": 174.65537495307723, "min": 1998, "max": 2245, "n": 2},
                 "mac_tx_failed": {"mean": 37, "ci95": 241.414, "stddev": 26.870057685088806, "min": 18, "max": 56, "n": 2},
                 "bcp_wakeups": {"mean": 567.5, "ci95": 108.00099999999998, "stddev": 12.020815280171307, "min": 559, "max": 576, "n": 2},
                 "wifi_wakeup_transitions": {"mean": 886.5, "ci95": 540.005, "stddev": 60.10407640085654, "min": 844, "max": 929, "n": 2},
                 "wifi_on_seconds": {"mean": 39.95003397282103, "ci95": 34.82058961829657, "stddev": 3.875629630727437, "min": 37.20954997956614, "max": 42.690517966075916, "n": 2},
                 "sensor_energy_ideal_J": {"mean": 1.0689380999998959, "ci95": 0.03795409259991138, "stddev": 0.004224397332154809, "min": 1.0659509999999028, "max": 1.071925199999889, "n": 2},
                 "wifi_energy_full_J": {"mean": 30.3181183671826, "ci95": 25.097741053851585, "stddev": 2.793449219525022, "min": 28.342851481156185, "max": 32.29338525320901, "n": 2}}}
  ]
}
)json";

stats::ResultSink run_slice(
    int threads,
    phy::PropagationKind propagation = phy::PropagationKind::kUnitDisc,
    bool capture = false,
    mac::MacFamily sensor_family = mac::MacFamily::kCsmaCa,
    bool battery = false) {
  app::SweepGrid grid;
  grid.axis_ints("cell", {0}).axis_ints("senders", {5, 15});
  const app::SweepFn fn = [propagation, capture, sensor_family,
                           battery](const app::SweepJob& job) {
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, job.point.get_int("senders"), 10);
    cfg.duration = 120.0;
    cfg.seed = job.seed;
    cfg.propagation.kind = propagation;
    cfg.capture_enabled = capture;
    // A deliberately non-default threshold: with the switch off it must
    // be inert (the capture-off differential golden pins exactly that),
    // and with the switch on it is the live knob.
    cfg.capture_threshold_db = 3.0;
    cfg.sensor_mac.family = sensor_family;
    // Deliberately non-default battery budgets: with the switch off they
    // must be inert (the battery-off differential golden pins exactly
    // that); with the switch on the 0.05 J sensor budget kills nodes a
    // couple of simulated seconds in.
    cfg.battery.sensor_initial_j = 0.05;
    cfg.battery.wifi_initial_j = 2.0;
    cfg.battery.enabled = battery;
    return app::standard_metrics(app::run_scenario(cfg));
  };
  app::SweepOptions options;
  options.replications = 2;
  options.base_seed = 1;
  options.threads = threads;
  const app::SweepRunner runner(options);
  stats::ResultSink sink = runner.run(grid, fn);
  sink.set_label(grid.index_of({0, 0}), "sh/dual-10");
  sink.set_label(grid.index_of({0, 1}), "sh/dual-10");
  return sink;
}

// The slice runs the defaults, the UnitDisc channel and the CSMA/CA MAC,
// so this golden also pins both the PropagationModel and the mac::Mac
// seam to their pre-seam behaviour.
TEST(Determinism, Fig05SliceMatchesPreReworkGoldenByteForByte) {
  const std::string json = run_slice(1).to_json("fig05_slice");
  EXPECT_EQ(json, std::string(kFig05SliceGolden))
      << "BENCH JSON drifted from the pre-rework golden — the hot path "
         "changed observable simulation behaviour";
}

TEST(Determinism, Fig05SliceIdenticalAcrossThreadCounts) {
  const std::string serial = run_slice(1).to_json("fig05_slice");
  const std::string parallel = run_slice(4).to_json("fig05_slice");
  EXPECT_EQ(serial, parallel);
}

// The non-trivial propagation models must NOT match the golden — the seam
// is live, not a stub that quietly ignores the spec.
TEST(Determinism, LogDistanceModelActuallyChangesTheChannel) {
  const std::string logd =
      run_slice(1, phy::PropagationKind::kLogDistance).to_json("fig05_slice");
  EXPECT_NE(logd, std::string(kFig05SliceGolden));
}

// Differential golden for the SINR/capture switch: with capture DISABLED
// (the default) — even alongside a non-default threshold knob, which
// run_slice always sets — the figure pipeline must reproduce the
// pre-capture golden byte for byte. This is the CI guarantee that the
// per-arrival power bookkeeping stays entirely behind the switch: same
// RNG stream, same draw count, same collision rule.
TEST(Determinism, CaptureDisabledMatchesPreCaptureGoldenByteForByte) {
  const std::string json =
      run_slice(1, phy::PropagationKind::kUnitDisc, /*capture=*/false)
          .to_json("fig05_slice");
  EXPECT_EQ(json, std::string(kFig05SliceGolden))
      << "the capture-off channel drifted from the pre-capture golden";
}

// …and enabled it must be live. The unit-disc slice would be a tie
// (equal-power collisions, zero Bernoulli loss — no RNG divergence), so
// the differential runs on the log-distance channel, whose per-link
// powers give capture something to decide.
TEST(Determinism, CaptureActuallyChangesTheLossyChannel) {
  const std::string base =
      run_slice(1, phy::PropagationKind::kLogDistance, /*capture=*/false)
          .to_json("fig05_slice");
  const std::string captured =
      run_slice(1, phy::PropagationKind::kLogDistance, /*capture=*/true)
          .to_json("fig05_slice");
  EXPECT_NE(captured, base);
}

// Differential golden for the finite-battery switch: with batteries
// DISABLED (the default) — even alongside non-default budget knobs, which
// run_slice always sets — the figure pipeline must reproduce the historical
// golden byte for byte. This is the CI guarantee that the battery wiring
// (EnergyMeter observers, depletion events, LinkState-backed routing)
// stays entirely behind the switch.
TEST(Determinism, BatteryDisabledMatchesHistoricalGoldenByteForByte) {
  const std::string json =
      run_slice(1, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kCsmaCa, /*battery=*/false)
          .to_json("fig05_slice");
  EXPECT_EQ(json, std::string(kFig05SliceGolden))
      << "the battery-off path drifted from the historical golden";
}

// …and enabled it must be live: a 0.05 J sensor budget at Mica idle power
// (0.03 W) kills every sensor radio within the first few seconds of the
// 120 s slice, so deliveries and energies have to diverge.
TEST(Determinism, FiniteBatteriesActuallyChangeTheRun) {
  const std::string dying =
      run_slice(1, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kCsmaCa, /*battery=*/true)
          .to_json("fig05_slice");
  EXPECT_NE(dying, std::string(kFig05SliceGolden));
}

// Battery depletion events and LinkState rebuilds are per-run state, so a
// battery slice must serialize identically whether the sweep ran serial
// or on 4 workers.
TEST(Determinism, BatterySliceIdenticalAcrossThreadCounts) {
  const std::string serial =
      run_slice(1, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kCsmaCa, /*battery=*/true)
          .to_json("fig05_slice");
  const std::string parallel =
      run_slice(4, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kCsmaCa, /*battery=*/true)
          .to_json("fig05_slice");
  EXPECT_EQ(serial, parallel);
}

// The TDMA family must NOT match the golden — the seam is live, not a stub
// that quietly ignores the MacSpec.
TEST(Determinism, TdmaFamilyActuallyChangesTheRun) {
  const std::string tdma =
      run_slice(1, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kTdma)
          .to_json("fig05_slice");
  EXPECT_NE(tdma, std::string(kFig05SliceGolden));
}

// The TDMA slot schedule is a pure function of the convergecast tree and
// every per-node drift draw comes from a substream — so a TDMA slice must
// serialize identically whether the sweep ran serial or on 4 workers.
TEST(Determinism, TdmaSliceIdenticalAcrossThreadCounts) {
  const std::string serial =
      run_slice(1, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kTdma)
          .to_json("fig05_slice");
  const std::string parallel =
      run_slice(4, phy::PropagationKind::kUnitDisc, /*capture=*/false,
                mac::MacFamily::kTdma)
          .to_json("fig05_slice");
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace bcp
