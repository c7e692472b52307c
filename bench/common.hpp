// Shared plumbing for the figure-reproduction harnesses, built on the
// parallel sweep engine (app/sweep.hpp): CLI conventions, the declarative
// column specs for the two §4.1 figure shapes (metric-vs-senders and
// energy-vs-delay), and the table + BENCH_*.json export every driver
// shares.
//
// Conventions shared by every simulation bench binary:
//   --runs N       replications per point (default 2; paper used 20)
//   --duration S   simulated seconds (default 5000, as in the paper)
//   --full         paper-scale: 20 runs, sender counts 5,10,...,35
//   --seed S       base seed
//   --jobs N       sweep worker threads (default 0 = all hardware cores)
//
// Every driver writes its aggregate results to BENCH_<name>.json in the
// working directory (see stats/result_sink.hpp for the format).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "stats/result_sink.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/options.hpp"

namespace bcp::benchharness {

struct SimOptions {
  std::vector<int> senders{5, 15, 25, 35};
  std::vector<int> bursts{10, 100, 500, 1000, 2500};
  int runs = 2;
  double duration = 5000.0;
  std::uint64_t seed = 1;
  int jobs = 0;  ///< sweep threads; 0 = hardware concurrency
};

/// Parses the standard bench flags; returns false if the process should
/// exit (help/parse error).
bool parse_sim_options(int argc, const char* const* argv, const char* name,
                       const char* summary, SimOptions* out);

app::SweepOptions sweep_options(const SimOptions& opt);
/// The same, from a bench's own --runs, --seed and --jobs flags.
app::SweepOptions sweep_options(const util::Options& opt);

enum class Metric {
  kGoodput,
  kNormalizedEnergy,
  kNormalizedEnergySensorIdeal,
  kNormalizedEnergySensorHeader,
  kDelay,
};

/// The metric's name in standard_metrics / BENCH_*.json.
const char* metric_name(Metric metric);

/// One column of a metric-vs-senders figure.
struct Column {
  std::string label;
  app::EvalModel model;
  int burst;  ///< only meaningful for the dual-radio model
  Metric metric;
};

/// The DualRadio-10 ... DualRadio-2500 column block.
std::vector<Column> dual_columns(const std::vector<int>& bursts,
                                 Metric metric);

/// Runs the columns' distinct (model, burst) cells x opt.senders as ONE
/// sweep grid, prints the figure table (rows = sender counts, cells =
/// mean±95% CI) and writes BENCH_<bench_name>.json.
void print_sender_sweep(const std::string& bench_name,
                        const std::string& title, bool multi_hop,
                        const SimOptions& opt,
                        const std::vector<Column>& columns, double rate_bps);

/// Figs. 7/10: sweeps the (senders x burst) grid of the dual-radio model
/// and prints mean delay vs normalized energy (one row per cell, grouped
/// by sender count); writes BENCH_<bench_name>.json.
void print_energy_delay(const std::string& bench_name,
                        const std::string& title, bool multi_hop,
                        const SimOptions& opt, double rate_bps);

/// Generic driver for the analytic/prototype figures: runs `grid` through
/// a SweepRunner, prints the aggregate table under `title`, and writes
/// BENCH_<bench_name>.json. Returns the sink for follow-up checks.
stats::ResultSink run_grid_bench(const std::string& bench_name,
                                 const std::string& title,
                                 const app::SweepGrid& grid,
                                 const app::SweepFn& fn,
                                 const app::SweepOptions& options);

/// ScenarioConfig::multi_hop or ::single_hop for `model`. Only the
/// dual-radio model buffers `burst` packets; the single-radio models send
/// bursts of one.
app::ScenarioConfig paper_preset(bool multi_hop, app::EvalModel model,
                                 int senders, int burst);

/// One simulated configuration of a bench: the label its points carry in
/// the table and BENCH_*.json, and the config every job of it copies.
struct Cell {
  std::string label;
  app::ScenarioConfig config;
};

/// A bench's own RunMetrics fields, appended after standard_metrics.
using ExtraMetrics =
    std::function<void(const app::RunMetrics&, stats::ResultSink::Metrics&)>;

/// Runs `cells` as grid axis "cell", crossed with axis "senders" when
/// `senders` is non-empty (it then overrides each cell's n_senders): every
/// job runs a copy of its cell's config at the job's seed and reports
/// standard_metrics plus `extra`. Each point is labelled with its cell's
/// label; point (cell c, senders s) has index c * senders.size() + s.
stats::ResultSink run_cells(const std::vector<Cell>& cells,
                            const std::vector<int>& senders,
                            const app::SweepOptions& options,
                            const ExtraMetrics& extra = {});

/// Writes sink JSON to BENCH_<bench_name>.json (cwd) and prints the path.
void export_json(const std::string& bench_name,
                 const stats::ResultSink& sink);

/// Stamps the run-level scenario metadata every simulation bench exports:
/// topology (generator token), node_count, and the sweep's base seed.
void set_scenario_meta(stats::ResultSink& sink,
                       const app::ScenarioConfig& config,
                       std::uint64_t base_seed);

}  // namespace bcp::benchharness
