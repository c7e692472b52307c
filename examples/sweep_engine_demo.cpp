// Sweep-engine walkthrough: declare a parameter grid, fan it out across
// every core, and export aggregate statistics.
//
//   $ ./sweep_engine_demo [--runs N] [--duration S] [--jobs N]
//
// Sweeps the multi-hop dual-radio scenario over (senders x burst) — a
// miniature of Figure 9 — in three steps:
//   1. app::ScenarioConfig — start from the §4.1 multi-hop preset and set
//      the typed fields each grid point varies;
//   2. app::SweepGrid + app::SweepRunner — the cartesian grid, one
//      Simulator per worker, deterministic seeds;
//   3. stats::ResultSink — per-point mean±95% CI and BENCH_*.json.
#include <cstdio>

#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "stats/result_sink.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace bcp;

  util::Options opt("sweep_engine_demo",
                    "parallel scenario sweep in ~30 lines");
  opt.add_int("runs", 2, "replications per grid point")
      .add_double("duration", 1000.0, "simulated seconds per run")
      .add_int("jobs", 0, "worker threads (0 = all hardware cores)");
  if (!opt.parse(argc, argv)) return 1;

  // 1. The scenario: every job copies the preset and sets its point's
  //    sender count and burst threshold.
  app::ScenarioConfig base =
      app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 5, 100);
  base.duration = opt.get_double("duration");
  const app::SweepFn fn = [&base](const app::SweepJob& job) {
    app::ScenarioConfig cfg = base;
    cfg.n_senders = job.point.get_int("senders");
    cfg.burst_packets = job.point.get_int("burst");
    cfg.seed = job.seed;
    return app::standard_metrics(app::run_scenario(cfg));
  };

  // 2. The grid (3 sender counts x 3 burst sizes = 9 points) and the
  //    runner: replications x points jobs, seeds base, base+1, ...
  app::SweepGrid grid;
  grid.axis_ints("senders", {5, 15, 25}).axis_ints("burst", {100, 500, 1000});
  app::SweepOptions sweep;
  sweep.replications = static_cast<int>(opt.get_int("runs"));
  sweep.threads = static_cast<int>(opt.get_int("jobs"));
  const app::SweepRunner runner(sweep);
  stats::ResultSink sink = runner.run(grid, fn);

  // 3. Export: aggregate table + machine-readable JSON.
  sink.to_table().print();
  sink.write_json("sweep_engine_demo", "BENCH_sweep_engine_demo.json");
  std::printf("\n%zu points x %d runs -> BENCH_sweep_engine_demo.json\n",
              sink.point_count(), sweep.replications);
  return 0;
}
