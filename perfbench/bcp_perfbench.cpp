// Worker binary of the repo benchmark (driven by perfbench/run.py; see
// perfbench/README.md for the workloads and metrics).
//
//   bcp_perfbench info
//   bcp_perfbench setup <workload> <seed> <reps>
//   bcp_perfbench run   <workload> <seed>
//   bcp_perfbench trace <workload> <seed> <spans.json>
//
// Every mode prints one JSON object on stdout. `setup` times
// construction-only run_scenario calls; `run` times one full workload
// run and reports the deterministic RunMetrics counts run.py checks
// and digests; `trace` times the calls into each layer's public entry
// points (placement, connectivity graphs, routes, run_scenario) from
// outside, holds a span per call in memory and writes them to
// <spans.json> when the run ends. Nothing here reaches into src/.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/scenario.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "util/sysinfo.hpp"

namespace {

using namespace bcp;
using Clock = std::chrono::steady_clock;

/// Horizon of a construction-only run: the single queue rejects 0, so
/// the smallest horizon that still builds everything and dispatches
/// (almost) nothing.
constexpr double kSetupHorizon = 1e-9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Cell {
  std::string name;
  app::ScenarioConfig cfg;
};

net::TopologySpec grid_central_sink(int side) {
  net::TopologySpec spec;
  spec.grid_side = side;
  spec.area = 40.0 * (side - 1);  // the paper grid's 40 m spacing
  spec.sink = (side / 2) * side + side / 2;
  return spec;
}

std::vector<Cell> workload_cells(const std::string& workload,
                                  std::uint64_t seed) {
  std::vector<Cell> cells;
  if (workload == "paper_36") {
    // §4.1: 6×6 grid over 200 m, corner sink, 10 senders, burst 500,
    // 5000 s horizon; sh and mh presets × the three evaluation models.
    const std::pair<const char*, app::EvalModel> models[] = {
        {"sensor", app::EvalModel::kSensor},
        {"wifi", app::EvalModel::kWifi},
        {"dual", app::EvalModel::kDualRadio}};
    for (const char* hop : {"sh", "mh"}) {
      for (const auto& [model_name, model] : models) {
        app::ScenarioConfig cfg =
            hop[0] == 's' ? app::ScenarioConfig::single_hop(model, 10, 500)
                          : app::ScenarioConfig::multi_hop(model, 10, 500);
        cfg.seed = seed;
        cells.push_back({std::string(hop) + "_" + model_name, cfg});
      }
    }
  } else if (workload == "grid_100k_sharded") {
    // 1000 senders at the sh preset's 0.2 Kbps: the offered load of 100
    // senders at 2 Kbps, but spread over enough senders that the cost of
    // a run no longer depends on which nodes the seed picks.
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, 1000, /*burst_packets=*/10);
    cfg.topology = grid_central_sink(316);
    cfg.duration = 60.0;
    cfg.seed = seed;
    cfg.shards = 8;
    cfg.sim_threads = 4;
    cells.push_back({"grid_100k", cfg});
  } else if (workload == "churn_lossy_2500") {
    // 300 senders at 0.2 Kbps (the load of 30 at 2 Kbps, seed-steady as
    // above); 600 crashes and 600 link flaps on a lossy capture channel.
    app::ScenarioConfig cfg = app::ScenarioConfig::single_hop(
        app::EvalModel::kDualRadio, 300, /*burst_packets=*/50);
    cfg.topology = grid_central_sink(50);
    cfg.duration = 1200.0;
    cfg.seed = seed;
    cfg.propagation.kind = phy::PropagationKind::kLogDistance;
    cfg.capture_enabled = true;
    cfg.faults.node_crashes = 600;
    cfg.faults.link_flaps = 600;
    cfg.faults.seed = seed;
    cells.push_back({"churn_2500", cfg});
  }
  return cells;
}

// ---- JSON output -------------------------------------------------------

void print_counts(const app::RunMetrics& m) {
  std::printf(
      "{\"generated\": %lld, \"delivered\": %lld, \"dropped_buffer\": %lld, "
      "\"dropped_queue\": %lld, \"dropped_mac\": %lld, "
      "\"dropped_no_route\": %lld, \"dropped_node_down\": %lld, "
      "\"mac_tx_attempts\": %lld, \"mac_tx_failed\": %lld, "
      "\"bcp_wakeups\": %lld, \"bcp_handshakes_failed\": %lld, "
      "\"bcp_sender_sessions\": %lld, \"bcp_receiver_timeouts\": %lld, "
      "\"wifi_wakeup_transitions\": %lld, \"events_processed\": %llu, "
      "\"fault_node_crashes\": %lld, \"fault_node_recoveries\": %lld, "
      "\"fault_link_downs\": %lld, \"fault_link_ups\": %lld, "
      "\"route_rebuilds\": %lld, \"bcp_packets_lost_to_crash\": %lld, "
      "\"mac_crash_drops\": %lld, \"chan_frames\": %lld, "
      "\"chan_rx_starts\": %lld, \"chan_rx_ends\": %lld, "
      "\"chan_rx_live_at_end\": %lld, \"boundary_frames\": %lld, "
      "\"shard_events\": [",
      static_cast<long long>(m.generated), static_cast<long long>(m.delivered),
      static_cast<long long>(m.dropped_buffer),
      static_cast<long long>(m.dropped_queue),
      static_cast<long long>(m.dropped_mac),
      static_cast<long long>(m.dropped_no_route),
      static_cast<long long>(m.dropped_node_down),
      static_cast<long long>(m.mac_tx_attempts),
      static_cast<long long>(m.mac_tx_failed),
      static_cast<long long>(m.bcp_wakeups),
      static_cast<long long>(m.bcp_handshakes_failed),
      static_cast<long long>(m.bcp_sender_sessions),
      static_cast<long long>(m.bcp_receiver_timeouts),
      static_cast<long long>(m.wifi_wakeup_transitions),
      static_cast<unsigned long long>(m.events_processed),
      static_cast<long long>(m.fault_node_crashes),
      static_cast<long long>(m.fault_node_recoveries),
      static_cast<long long>(m.fault_link_downs),
      static_cast<long long>(m.fault_link_ups),
      static_cast<long long>(m.route_rebuilds),
      static_cast<long long>(m.bcp_packets_lost_to_crash),
      static_cast<long long>(m.mac_crash_drops),
      static_cast<long long>(m.chan_frames),
      static_cast<long long>(m.chan_rx_starts),
      static_cast<long long>(m.chan_rx_ends),
      static_cast<long long>(m.chan_rx_live_at_end),
      static_cast<long long>(m.boundary_frames));
  for (std::size_t s = 0; s < m.shard_events.size(); ++s)
    std::printf("%s%llu", s == 0 ? "" : ", ",
                static_cast<unsigned long long>(m.shard_events[s]));
  std::printf("]}");
}

/// Simulated outcomes (floating point) the per-layer report carries.
void print_results(const app::RunMetrics& m) {
  std::printf(
      "{\"goodput\": %.17g, \"normalized_energy\": %.17g, "
      "\"wifi_on_seconds\": %.17g}",
      m.goodput, m.normalized_energy, m.wifi_on_seconds);
}

void print_cell_head(const Cell& c) {
  std::printf("{\"name\": \"%s\", \"nodes\": %d, ", c.name.c_str(),
              c.cfg.topology.node_count());
}

/// Current (not peak) resident set, MiB; 0 when /proc is unavailable.
double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- modes -------------------------------------------------------------

int mode_setup(const std::vector<Cell>& cells, int reps) {
  std::printf("{\"cells\": [");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    app::ScenarioConfig cfg = cells[i].cfg;
    cfg.duration = kSetupHorizon;
    print_cell_head(cells[i]);
    std::printf("\"setup_s\": [");
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      app::run_scenario(cfg);
      std::printf("%s%.9f", r == 0 ? "" : ", ", seconds_since(t0));
    }
    std::printf("]}%s", i + 1 < cells.size() ? ", " : "");
  }
  std::printf("]}\n");
  return 0;
}

int mode_run(const std::vector<Cell>& cells) {
  const double base_rss = current_rss_mib();
  std::vector<app::RunMetrics> metrics;
  std::vector<double> wall;
  for (const Cell& c : cells) {
    const auto t0 = Clock::now();
    metrics.push_back(app::run_scenario(c.cfg));
    wall.push_back(seconds_since(t0));
  }
  std::printf("{\"base_rss_mib\": %.6f, \"peak_rss_mib\": %.6f, \"cells\": [",
              base_rss, util::peak_rss_mib());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    print_cell_head(cells[i]);
    std::printf("\"wall_s\": %.9f, \"counts\": ", wall[i]);
    print_counts(metrics[i]);
    std::printf(", \"results\": ");
    print_results(metrics[i]);
    std::printf("}%s", i + 1 < cells.size() ? ", " : "");
  }
  std::printf("]}\n");
  return 0;
}

/// In-memory span recorder: name, start, end, parent index (-1 = root).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = now();
    return s.end_s - s.start_s;
  }
  /// Times fn() as one span under `parent`; returns its duration.
  template <typename Fn>
  double timed(std::string name, int parent, Fn&& fn) {
    const int id = open(std::move(name), parent);
    fn();
    return close(id);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i)
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}%s\n",
                   i, spans_[i].name.c_str(), spans_[i].start_s,
                   spans_[i].end_s, spans_[i].parent,
                   i + 1 < spans_.size() ? "," : "");
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }
  std::size_t size() const { return spans_.size(); }

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times the net-layer calls run_scenario makes during construction,
/// each as its own span: placement, one connectivity graph per radio the
/// model uses, and that graph's static routes (all-pairs tables up to
/// app::kAllPairsNodeLimit nodes, the convergecast tree beyond — the
/// kAuto rule). Small networks repeat the calls and keep the medians.
struct NetTiming {
  double topology_s = 0;
  double graph_s = 0;
  double routing_s = 0;
  std::int64_t edges = 0;
};

NetTiming time_net_layer(Tracer& tr, int parent, const Cell& c) {
  const app::ScenarioConfig& cfg = c.cfg;
  const int n = cfg.topology.node_count();
  const int reps = n <= 10000 ? 15 : 1;
  std::vector<double> ranges;
  if (cfg.model != app::EvalModel::kWifi)
    ranges.push_back(cfg.sensor_radio.range);
  if (cfg.model != app::EvalModel::kSensor)
    ranges.push_back(cfg.wifi_range_override > 0 ? cfg.wifi_range_override
                                                 : cfg.wifi_radio.range);
  const bool all_pairs = n <= app::kAllPairsNodeLimit;

  std::vector<double> topo_s, graph_s, route_s;
  NetTiming out;
  for (int r = 0; r < reps; ++r) {
    net::Topology topo;
    topo_s.push_back(tr.timed("net.topology_build", parent,
                              [&] { topo = cfg.topology.build(); }));
    double g_total = 0;
    double r_total = 0;
    std::int64_t edges = 0;
    for (const double range : ranges) {
      std::unique_ptr<net::ConnectivityGraph> graph;
      g_total += tr.timed("net.graph_build", parent, [&] {
        graph = std::make_unique<net::ConnectivityGraph>(topo.positions,
                                                         range);
      });
      for (net::NodeId v = 0; v < graph->node_count(); ++v)
        edges += static_cast<std::int64_t>(graph->neighbors(v).size());
      r_total += tr.timed("net.routing_build", parent, [&] {
        if (all_pairs) {
          const net::RoutingTable table(*graph);
        } else {
          const net::ConvergecastRouting tree(*graph, topo.sink);
        }
      });
    }
    graph_s.push_back(g_total);
    route_s.push_back(r_total);
    out.edges = edges / 2;
  }
  out.topology_s = median(topo_s);
  out.graph_s = median(graph_s);
  out.routing_s = median(route_s);
  return out;
}

/// Construction-only then full run of `cfg`, each as a span.
struct RunTiming {
  double setup_s = 0;
  double wall_s = 0;
  app::RunMetrics metrics;
};

RunTiming time_run(Tracer& tr, int parent, const std::string& prefix,
                   const app::ScenarioConfig& cfg) {
  RunTiming out;
  app::ScenarioConfig setup_cfg = cfg;
  setup_cfg.duration = kSetupHorizon;
  out.setup_s = tr.timed(prefix + ".setup", parent,
                         [&] { app::run_scenario(setup_cfg); });
  out.wall_s = tr.timed(prefix + ".run_scenario", parent,
                        [&] { out.metrics = app::run_scenario(cfg); });
  return out;
}

int mode_trace(const std::vector<Cell>& cells, const std::string& spans_path) {
  Tracer tr;
  const int root = tr.open("workload", -1);
  std::printf("{\"cells\": [");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const int cell_span = tr.open("cell." + c.name, root);
    const NetTiming net_t = time_net_layer(tr, cell_span, c);
    const RunTiming run = time_run(tr, cell_span, "app", c.cfg);
    tr.close(cell_span);

    print_cell_head(c);
    std::printf(
        "\"topology_build_s\": %.9f, \"graph_build_s\": %.9f, "
        "\"routing_build_s\": %.9f, \"graph_edges\": %lld, "
        "\"setup_s\": %.9f, \"wall_s\": %.9f, \"counts\": ",
        net_t.topology_s, net_t.graph_s, net_t.routing_s,
        static_cast<long long>(net_t.edges), run.setup_s, run.wall_s);
    print_counts(run.metrics);
    std::printf(", \"results\": ");
    print_results(run.metrics);

    // Twins: the same cell with one mechanism switched off, so the
    // per-layer report can attribute run time to it.
    std::printf(", \"twins\": {");
    const char* sep = "";
    const auto twin = [&](const char* name, const app::ScenarioConfig& cfg) {
      const std::string prefix = std::string("twin.") + name;
      const int span = tr.open(prefix, root);
      const RunTiming t = time_run(tr, span, prefix, cfg);
      tr.close(span);
      std::printf("%s\"%s\": {\"setup_s\": %.9f, \"wall_s\": %.9f}", sep,
                  name, t.setup_s, t.wall_s);
      sep = ", ";
    };
    if (!c.cfg.faults.empty()) {
      app::ScenarioConfig cfg = c.cfg;
      cfg.faults = {};
      twin("fault_free", cfg);
    }
    if (c.cfg.shards > 1) {
      app::ScenarioConfig inline_cfg = c.cfg;
      inline_cfg.sim_threads = 1;
      twin("inline", inline_cfg);
      app::ScenarioConfig single = c.cfg;
      single.shards = 1;
      twin("single_queue", single);
    }
    std::printf("}}%s", i + 1 < cells.size() ? ", " : "");
  }
  tr.close(root);
  const bool written = tr.write(spans_path);
  std::printf("], \"spans\": %zu, \"spans_written\": %s}\n", tr.size(),
              written ? "true" : "false");
  return written ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bcp_perfbench info\n"
               "       bcp_perfbench setup <workload> <seed> <reps>\n"
               "       bcp_perfbench run <workload> <seed>\n"
               "       bcp_perfbench trace <workload> <seed> <spans.json>\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  if (s[0] == '\0' || s[0] == '-') return false;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "info") {
#if defined(BCP_PERFBENCH_BUILD_TYPE) && defined(BCP_PERFBENCH_LTO)
    std::printf("{\"build_type\": \"%s\", \"lto\": %s}\n",
                BCP_PERFBENCH_BUILD_TYPE, BCP_PERFBENCH_LTO ? "true" : "false");
#else
    std::printf("{\"build_type\": \"unknown\", \"lto\": false}\n");
#endif
    return 0;
  }
  if (argc < 4) return usage();
  std::uint64_t seed = 0;
  if (!parse_u64(argv[3], seed)) {
    std::fprintf(stderr, "bcp_perfbench: seed must be a non-negative "
                         "integer, got '%s'\n", argv[3]);
    return 2;
  }
  const std::vector<Cell> cells = workload_cells(argv[2], seed);
  if (cells.empty()) {
    std::fprintf(stderr, "bcp_perfbench: unknown workload '%s'\n", argv[2]);
    return 2;
  }
  try {
    std::uint64_t reps = 0;
    if (mode == "setup" && argc == 5 && parse_u64(argv[4], reps) &&
        reps >= 1 && reps <= 100000)
      return mode_setup(cells, static_cast<int>(reps));
    if (mode == "run" && argc == 4) return mode_run(cells);
    if (mode == "trace" && argc == 5) return mode_trace(cells, argv[4]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcp_perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
