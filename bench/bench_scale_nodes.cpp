// Scale sweep — the large-network path: topology build, connectivity
// build (CSR over a flat cell array) and convergecast-routing build timed
// from 36 to 2500 nodes across the placement generators, plus a short
// dual-radio simulation point per grid size, so the scale trajectory is
// measurable run over run and an accidental O(n²) regression shows up as
// a blown wall-clock budget (--budget-s, used by the CI smoke step). The
// sweep runs its points one at a time, so the events/sec floor on the
// largest grid point (--min-events-per-sec) measures that point alone.
//
// --max-rss-mib adds the 1M-node memory cell: one sharded dual-radio run
// on a 1000x1000 grid with a central sink, which must deliver packets and
// stay under the given peak RSS.
//
// Placements keep the paper grid's density (40 m spacing = sensor range)
// for the grid and line generators; random and clustered placements get
// the area that keeps the disc graph connected with high probability
// (mean degree ~ ln n + 4), with the placement seed auto-advanced to a
// sink-connected draw.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/options.hpp"
#include "util/sysinfo.hpp"

namespace {

using namespace bcp;

constexpr double kSensorRange = 40.0;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The placement each (generator, node-count) cell runs on.
net::TopologySpec make_spec(net::TopologyKind kind, int nodes,
                            std::uint64_t seed) {
  net::TopologySpec spec;
  spec.kind = kind;
  spec.nodes = nodes;
  spec.seed = seed;
  switch (kind) {
    case net::TopologyKind::kGrid: {
      const int side =
          static_cast<int>(std::lround(std::sqrt(static_cast<double>(nodes))));
      spec.grid_side = side;
      spec.area = kSensorRange * (side - 1);
      break;
    }
    case net::TopologyKind::kUniformRandom:
    case net::TopologyKind::kGaussianClusters: {
      // Area keeping mean disc degree at ~ln n + 4, the classic random
      // geometric graph connectivity threshold plus slack.
      const double degree = std::log(static_cast<double>(nodes)) + 4.0;
      spec.area = std::sqrt(nodes * 3.14159265358979323846 * kSensorRange *
                            kSensorRange / degree);
      spec.clusters = std::max(4, nodes / 64);
      spec.cluster_spread = spec.area / (2.0 * std::sqrt(spec.clusters));
      break;
    }
    case net::TopologyKind::kLineCorridor:
      // 30 m spacing + 20 m width keeps every chain link under the 40 m
      // sensor range, so the corridor is connected by construction.
      spec.area = 30.0 * (nodes - 1);
      spec.corridor_width = 20.0;
      break;
    case net::TopologyKind::kRing:
      spec.area = 2.0 * kSensorRange * nodes / 6.28318530717958647692;
      break;
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bcp::benchharness;
  util::Options opt("bench_scale_nodes",
                    "topology/routing build + dual-radio simulation, 36 to "
                    "2500 nodes across placement generators");
  opt.add_int("max-nodes", 2500, "largest node count to sweep")
      .add_double("duration", 20.0, "simulated seconds per scenario point")
      .add_int("senders", 10, "CBR senders per scenario point")
      .add_int("burst", 50, "dual-radio burst threshold in 32 B packets")
      .add_int("seed", 1, "base seed")
      .add_double("budget-s", 0,
                  "fail (exit 2) if the whole sweep exceeds this wall "
                  "clock; 0 disables")
      .add_double("min-events-per-sec", 0,
                  "fail (exit 2) if the largest grid point's simulation "
                  "dispatches fewer events/sec; 0 disables (CI tripwire, "
                  "set a generous floor)")
      .add_double("max-rss-mib", 0,
                  "run the 1M-node, 16-shard memory cell and fail (exit 2) "
                  "if it delivers nothing or peak RSS exceeds this many "
                  "MiB; 0 skips the cell");
  if (!opt.parse(argc, argv)) return 1;
  const auto t_bench = std::chrono::steady_clock::now();
  const int max_nodes = static_cast<int>(opt.get_int("max-nodes"));
  const double duration = opt.get_double("duration");
  const int senders = static_cast<int>(opt.get_int("senders"));
  const int burst = static_cast<int>(opt.get_int("burst"));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed"));

  const std::vector<net::TopologyKind> generators = {
      net::TopologyKind::kGrid, net::TopologyKind::kUniformRandom,
      net::TopologyKind::kGaussianClusters, net::TopologyKind::kLineCorridor};
  std::vector<int> sizes;
  for (const int n : {36, 100, 225, 400, 900, 1600, 2500})
    if (n <= max_nodes) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(36);

  app::SweepGrid grid;
  std::vector<int> gen_ids;
  for (std::size_t i = 0; i < generators.size(); ++i)
    gen_ids.push_back(static_cast<int>(i));
  grid.axis_ints("gen", gen_ids).axis_ints("nodes", sizes);

  const app::SweepFn fn = [&](const app::SweepJob& job) {
    const net::TopologyKind kind =
        generators[static_cast<std::size_t>(job.point.get_int("gen"))];
    const int nodes = job.point.get_int("nodes");

    auto t0 = std::chrono::steady_clock::now();
    net::TopologySpec spec = make_spec(kind, nodes, seed);
    // Grid/line are connected by construction and random placements are
    // drawn at a connected density; clustered placements fragment into
    // islands at scale (realistically so), so their cells time the builds
    // and report depth over the sink's component.
    if (kind == net::TopologyKind::kUniformRandom)
      spec = net::first_connected(spec, kSensorRange, /*max_tries=*/256);
    const net::Topology topo = spec.build();
    const double topo_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const net::ConnectivityGraph graph(topo.positions, kSensorRange);
    const double graph_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const net::ConvergecastRouting routes(graph, topo.sink);
    const double routing_ms = ms_since(t0);

    double edges = 0;
    for (net::NodeId id = 0; id < graph.node_count(); ++id)
      edges += static_cast<double>(graph.neighbors(id).size());
    // Cluster placements may strand even the sink's own island; report -1
    // rather than letting mean_depth() throw and abort the sweep.
    const std::size_t stranded = routes.stranded().size();
    const double mean_depth =
        stranded + 1 < static_cast<std::size_t>(nodes) ? routes.mean_depth()
                                                       : -1.0;

    // One short single-hop dual-radio point per grid size — the grid is
    // connected by construction at every n, so the simulation leg always
    // runs (and exercises the convergecast path above the all-pairs
    // limit).
    double sim_ms = 0;
    double delivered = 0;
    double goodput = 0;
    double events = 0;
    double events_per_sec = 0;
    double lossy_sim_ms = 0;
    double lossy_delivered = 0;
    double lossy_goodput = 0;
    if (kind == net::TopologyKind::kGrid) {
      app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
          app::EvalModel::kDualRadio, std::min(senders, nodes - 1), burst);
      cfg.topology = spec;
      cfg.rate_bps = 2000.0;
      cfg.duration = duration;
      cfg.seed = job.seed;
      t0 = std::chrono::steady_clock::now();
      const app::RunMetrics m = app::run_scenario(cfg);
      sim_ms = ms_since(t0);
      delivered = static_cast<double>(m.delivered);
      goodput = m.goodput;
      // Hot-path throughput: dispatched simulator events per wall second
      // (event counts are deterministic; the wall clock is this machine's).
      events = static_cast<double>(m.events_processed);
      if (sim_ms > 0) events_per_sec = events / (sim_ms / 1e3);

      // The lossy slice: the same point under log-distance + shadowing
      // per-link PER, so the scale trajectory of the realistic channel
      // (and any per-link-table cost at 2500 nodes) is measured run over
      // run next to the idealized one.
      cfg.propagation.kind = phy::PropagationKind::kLogDistance;
      t0 = std::chrono::steady_clock::now();
      const app::RunMetrics lossy = app::run_scenario(cfg);
      lossy_sim_ms = ms_since(t0);
      lossy_delivered = static_cast<double>(lossy.delivered);
      lossy_goodput = lossy.goodput;
    }

    return stats::ResultSink::Metrics{
        {"topo_build_ms", topo_ms},
        {"graph_build_ms", graph_ms},
        {"routing_build_ms", routing_ms},
        {"mean_degree", edges / nodes},
        {"mean_depth", mean_depth},
        {"sim_wall_ms", sim_ms},
        {"delivered", delivered},
        {"goodput", goodput},
        {"events", events},
        {"events_per_sec", events_per_sec},
        {"lossy_sim_wall_ms", lossy_sim_ms},
        {"lossy_delivered", lossy_delivered},
        {"lossy_goodput", lossy_goodput},
    };
  };

  app::SweepOptions sweep;
  sweep.replications = 1;
  sweep.base_seed = seed;
  // One worker: a concurrent sweep shares the cores with the gated point
  // and makes its events/sec floor flaky.
  sweep.threads = 1;
  const app::SweepRunner runner(sweep);
  stats::ResultSink sink = runner.run(grid, fn);
  for (std::size_t gi = 0; gi < generators.size(); ++gi)
    for (std::size_t si = 0; si < sizes.size(); ++si)
      sink.set_label(grid.index_of({gi, si}),
                     std::string(net::to_string(generators[gi])) + "-" +
                         std::to_string(sizes[si]));

  stats::print_titled(
      "Scale sweep — build + routing + dual-radio simulation vs node count",
      sink.to_table());
  // The largest grid point is the gated hot-path number (and the CI
  // tripwire): its simulation leg always runs and its event count is
  // deterministic.
  const std::size_t top_grid = grid.index_of({0, sizes.size() - 1});
  const double top_events_per_sec =
      sink.metric(top_grid, "events_per_sec").mean();
  sink.set_meta("topology", "grid+rand+cluster+line");
  sink.set_meta("node_count", static_cast<double>(sizes.back()));
  sink.set_meta("seed", static_cast<double>(seed));
  sink.set_meta("events_per_sec", top_events_per_sec);
  sink.set_meta("lossy_propagation",
                to_string(phy::PropagationKind::kLogDistance));

  // ---- Memory cell: one sharded simulation at 1M nodes -------------------
  // Each partition owns only its stripe's node-indexed state, so the peak
  // is dominated by the O(n) per-node objects and graphs. The sink sits in
  // the middle of the grid so that the nearest senders' first bursts (2 Kbps,
  // burst 10) reach it inside 5 s; a 3 s run delivers nothing.
  const double rss_budget = opt.get_double("max-rss-mib");
  long long memory_delivered = 0;
  double memory_rss_mib = 0;
  if (rss_budget > 0) {
    constexpr int kSide = 1000;
    constexpr int kShards = 16;
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, /*senders=*/1000, /*burst_packets=*/10);
    cfg.topology = make_spec(net::TopologyKind::kGrid, kSide * kSide, 1);
    cfg.topology.sink = (kSide / 2) * kSide + kSide / 2;
    cfg.rate_bps = 2000.0;
    cfg.duration = 5.0;
    cfg.seed = 1;
    cfg.shards = kShards;
    cfg.sim_threads = 0;  // auto
    const auto t0 = std::chrono::steady_clock::now();
    const app::RunMetrics m = app::run_scenario(cfg);
    const double wall_ms = ms_since(t0);
    memory_delivered = m.delivered;
    memory_rss_mib = util::peak_rss_mib();
    std::printf(
        "[memory] %d nodes, %d shards, central sink, %.1f s simulated: "
        "%.0f ms wall, %llu events, %lld delivered, peak RSS %.0f MiB "
        "(budget %.0f)\n",
        kSide * kSide, kShards, cfg.duration, wall_ms,
        static_cast<unsigned long long>(m.events_processed),
        memory_delivered, memory_rss_mib, rss_budget);
    sink.set_meta("memory_delivered", static_cast<double>(memory_delivered));
    sink.set_meta("peak_rss_mib", memory_rss_mib);
  }
  export_json("scale_nodes", sink);

  const double elapsed_s = ms_since(t_bench) / 1e3;
  std::printf("[wall] %.1f s total\n", elapsed_s);
  std::printf("[events/sec] %.0f at grid-%d\n", top_events_per_sec,
              sizes.back());
  const double budget = opt.get_double("budget-s");
  if (budget > 0 && elapsed_s > budget) {
    std::fprintf(stderr,
                 "BUDGET EXCEEDED: %.1f s > %.1f s — investigate a "
                 "super-linear regression in topology/graph/routing "
                 "build or the simulation hot path\n",
                 elapsed_s, budget);
    return 2;
  }
  const double floor = opt.get_double("min-events-per-sec");
  if (floor > 0 && top_events_per_sec < floor) {
    std::fprintf(stderr,
                 "EVENTS/SEC FLOOR MISSED: %.0f < %.0f at grid-%d — the "
                 "event/frame hot path regressed (allocations per event, "
                 "payload copies, or queue churn)\n",
                 top_events_per_sec, floor, sizes.back());
    return 2;
  }
  if (rss_budget > 0 && memory_rss_mib > rss_budget) {
    std::fprintf(stderr,
                 "RSS BUDGET EXCEEDED: %.0f MiB > %.0f MiB after the "
                 "1M-node memory cell — a per-partition structure is "
                 "sized by the global population again (node state "
                 "dense over the owned stripe, the sparse remote "
                 "down-set, or a drain buffer retaining its high-water "
                 "capacity) or a node assembly grew\n",
                 memory_rss_mib, rss_budget);
    return 2;
  }
  if (rss_budget > 0 && memory_delivered == 0) {
    std::fprintf(stderr,
                 "NOTHING DELIVERED: the 1M-node memory cell delivered 0 "
                 "packets to its central sink — the sharded run no longer "
                 "does the paper's work at scale\n");
    return 2;
  }
  return 0;
}
