#include "app/scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "app/partition.hpp"
#include "app/scenario_detail.hpp"
#include "phy/channel.hpp"
#include "phy/sharded_channel.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace bcp::app {

const char* to_string(EvalModel m) {
  switch (m) {
    case EvalModel::kSensor:         return "Sensor";
    case EvalModel::kWifi:           return "802.11";
    case EvalModel::kWifiDutyCycled: return "802.11-DutyCycled";
    case EvalModel::kDualRadio:      return "DualRadio";
  }
  return "?";
}

ScenarioConfig ScenarioConfig::single_hop(EvalModel model, int senders,
                                          int burst_packets) {
  ScenarioConfig cfg;
  cfg.model = model;
  cfg.n_senders = senders;
  cfg.burst_packets = burst_packets;
  cfg.sensor_radio = energy::mica();
  cfg.wifi_radio = energy::lucent_11mbps();  // sensor-radio range: same hops
  cfg.rate_bps = 200.0;                      // §4.1.1 runs at 0.2 Kbps
  return cfg;
}

ScenarioConfig ScenarioConfig::multi_hop(EvalModel model, int senders,
                                         int burst_packets) {
  ScenarioConfig cfg;
  cfg.model = model;
  cfg.n_senders = senders;
  cfg.burst_packets = burst_packets;
  cfg.sensor_radio = energy::mica();
  cfg.wifi_radio = energy::cabletron_2mbps();
  // A corner sink is up to ~283 m from the far corner; stretch the
  // Cabletron disc so "the IEEE 802.11 radio is able to reach the sink in
  // one hop" (§4.1.2) holds for every sender.
  cfg.wifi_range_override = 300.0;
  cfg.rate_bps = 2000.0;  // §4.1.2 presents the 2 Kbps graphs
  return cfg;
}

void ScenarioConfig::validate() const {
  const int nodes = topology.node_count();
  BCP_REQUIRE(nodes >= 2);
  BCP_REQUIRE(duration > 0);
  BCP_REQUIRE(rate_bps > 0);
  BCP_REQUIRE(packet_bits > 0);
  BCP_REQUIRE(burst_packets > 0);
  BCP_REQUIRE_MSG(n_senders >= 1 && n_senders <= nodes - 1,
                  "sender count must be in [1, nodes-1]");
  BCP_REQUIRE_MSG(shards >= 1, "shard count must be >= 1");
  // ShardMap::stripes would clamp a too-large shard count silently; a
  // scenario asking for more stripes than nodes fails loudly instead
  // (benches that sweep node counts clamp per cell and record the
  // effective count in their meta).
  BCP_REQUIRE_MSG(shards <= nodes,
                  "shard count must not exceed the node count");
  BCP_REQUIRE_MSG(sim_threads >= 0, "sim_threads must be >= 0");
  BCP_REQUIRE(shards == 1 || shard_window > 0);
  // The slotted MAC family presumes a radio that is awake for its slots,
  // which the BCP-managed 802.11 radio and the duty-cycled strawman are
  // not.
  sensor_mac.validate();
  wifi_mac.validate();
  BCP_REQUIRE_MSG(!wifi_mac.is_tdma() || model == EvalModel::kWifi,
                  "TDMA on the 802.11 radio requires the always-on kWifi "
                  "model");
  BCP_REQUIRE_MSG(shards == 1 || (!sensor_mac.is_tdma() && !wifi_mac.is_tdma()),
                  "TDMA is not supported on the sharded engine (beacon "
                  "relay across stripes would race the slot clock)");
  BCP_REQUIRE_MSG(faults.empty() || model != EvalModel::kWifiDutyCycled,
                  "fault injection is not supported for the duty-cycled "
                  "802.11 strawman");
  battery.validate();
  BCP_REQUIRE_MSG(
      route_policy == net::RoutePolicy::kShortestPath || battery.enabled,
      "lifetime-aware routing requires an enabled battery");
  if (model == EvalModel::kWifiDutyCycled) {
    BCP_REQUIRE_MSG(duty_cycle > 0 && duty_cycle <= 1.0,
                    "duty cycle must be in (0, 1]");
    BCP_REQUIRE_MSG(duty_period > 0, "duty period must be positive");
  }
}

namespace detail {

namespace {

template <MergeRule R, class T>
void merge_field(T& total, const T& part) {
  if constexpr (R == MergeRule::kSum) {
    total += part;
  } else if constexpr (R == MergeRule::kEarliest) {
    if (part >= 0 && (total < 0 || part < total)) total = part;
  } else if constexpr (R == MergeRule::kMax) {
    total = std::max(total, part);
  }
  // kAfterFold: assigned by run_sharded / finalize_metrics, never merged.
}

}  // namespace

void merge_metrics(RunMetrics& total, const RunMetrics& part) {
#define BCP_METRIC_MERGE(type, name, init, rule) \
  merge_field<MergeRule::rule>(total.name, part.name);
  BCP_RUN_METRICS(BCP_METRIC_MERGE)
#undef BCP_METRIC_MERGE
}

}  // namespace detail

namespace {

using detail::LifetimeMarks;
using detail::Partition;
using detail::PendingDelta;
using detail::SharedNet;

/// The single-queue engine: one partition over the identity map, one
/// Simulator and one Channel per radio class. Membership changes mutate
/// the partition's dense LinkState directly, and the lifetime metrics
/// and lifetime-aware route costs read live state at the event.
RunMetrics run_single_queue(const SharedNet& net) {
  const ScenarioConfig& config = net.config;
  sim::Simulator simulator;
  std::optional<phy::Channel> low;
  std::optional<phy::Channel> high;
  if (net.low.graph)
    low.emplace(simulator, net.low.graph, net.low.params, net.low.seed);
  if (net.high.graph)
    high.emplace(simulator, net.high.graph, net.high.params, net.high.seed);

  Partition part;
  if (net.has_links) part.links.emplace(net.n);
  const bool lifetime_routing =
      config.route_policy == net::RoutePolicy::kLifetimeAware;
  net::NodeCostFn cost;
  if (lifetime_routing) {
    // Identity map: a node's local id is its global id.
    cost = [&part, weight = config.battery.lifetime_weight](net::NodeId v) {
      const auto& b = part.batteries[static_cast<std::size_t>(v)];
      if (b == nullptr) return 0.0;
      return weight * (b->drawn() / b->capacity());
    };
  }
  LifetimeMarks marks;
  part.build(net, 0, simulator, low ? &*low : nullptr,
             high ? &*high : nullptr, std::move(cost),
             [&](const PendingDelta& d) {
               if (d.battery_death)
                 marks.on_death(net, *part.links, d.delta.time,
                                part.m.delivered);
             });

  // Lifetime-aware routes go stale as fractions drift between deaths;
  // refresh them on a fixed cadence by bumping the LinkState revision
  // (DynamicRouting then re-reads every battery at its next query).
  std::function<void()> reroute_tick = [&] {
    part.links->touch();
    simulator.schedule_in(config.battery.reroute_period,
                          [&reroute_tick] { reroute_tick(); });
  };
  if (lifetime_routing)
    simulator.schedule_in(config.battery.reroute_period,
                          [&reroute_tick] { reroute_tick(); });

  simulator.run_until(config.duration);
  part.collect(config.duration);
  detail::finalize_metrics(part.m, config, part.delay_sum, marks);
  return part.m;
}

// The sharded engine: one simulation advanced by sim::ShardedSimulator
// over phy::ShardedMedium partitions.
//
// Lifecycle: pooled message payloads (net::MessagePool) are thread-local,
// so everything a partition owns — nodes, workloads, channel partitions,
// pending events — is built, run, collected and destroyed on the shard's
// pinned worker thread via for_each_shard phases (setup → run → collect
// → teardown). Each partition totals its own nodes in the collect phase;
// the caller merges those totals in ascending shard order between the
// collect and teardown phases (the engine's barriers order those reads),
// so the result is a pure function of (config, shard count): sim_threads
// never changes a byte of output.
//
// Membership epochs: every partition owns one LinkState replica over its
// stripe, read by both of its radio classes. The owner of a node
// executes its crash / recover / depletion at the exact event instant
// against its own replica and queues the mutation as a
// net::MembershipDelta; the coordinator
// broadcasts the accumulated batch to every replica at the window
// barrier in deterministic (time, shard, node) order — a remote shard
// sees a membership change at most one exchange window late, the same
// staleness bound the boundary-frame mailboxes already carry. A
// coordinator-owned replica receives the same global sequence and
// answers the sink-partition checks at each death's event time; the
// delivered counts behind the "bits until first death / partition"
// metrics are read at the publishing barrier (≤ one window late).
RunMetrics run_sharded(const SharedNet& net) {
  const ScenarioConfig& config = net.config;
  const phy::ShardMap& map = net.map;
  const int shard_count = map.count;
  const bool lifetime_routing =
      config.route_policy == net::RoutePolicy::kLifetimeAware;

  // Lifetime-aware route costs read this shared drawn/capacity snapshot,
  // refreshed by the coordinator at barriers on the reroute_period grid —
  // never live battery state, so every shard prices relays identically
  // regardless of thread count. Declared before the partitions: their
  // routers' cost functions reference it.
  std::vector<double> battery_fraction;
  if (lifetime_routing)
    battery_fraction.assign(static_cast<std::size_t>(net.n), 0.0);

  // Partitions are declared before the engine and mediums so teardown
  // (which runs as engine phases) happens before either is destroyed.
  std::vector<Partition> parts(static_cast<std::size_t>(shard_count));

  // The coordinator's replica is dense over the whole network (one O(n)
  // byte array); each partition's replica is dense over its own stripe
  // and sparse for every remote node a broadcast delta takes down.
  std::optional<net::LinkState> coord;
  if (net.has_links) {
    for (int s = 0; s < shard_count; ++s)
      parts[static_cast<std::size_t>(s)].links.emplace(net.n, map.stripe(s));
    coord.emplace(net.n);
  }

  sim::ShardedSimulator::Params engine_params;
  engine_params.shards = shard_count;
  engine_params.threads = config.sim_threads;
  engine_params.window = config.shard_window;
  sim::ShardedSimulator engine(engine_params);

  std::optional<phy::ShardedMedium> low_medium;
  std::optional<phy::ShardedMedium> high_medium;
  if (net.low.graph)
    low_medium.emplace(engine, net.low.graph, map, net.low.params,
                       net.low.seed);
  if (net.high.graph)
    high_medium.emplace(engine, net.high.graph, map, net.high.params,
                        net.high.seed);
  for (int s = 0; s < shard_count; ++s)
    engine.set_drain(s, [&low_medium, &high_medium, s](std::int64_t window) {
      if (low_medium) low_medium->drain(s, window);
      if (high_medium) high_medium->drain(s, window);
    });

  // ---- Epoch coordinator (caller thread, between phase barriers).
  std::vector<PendingDelta> batch;
  LifetimeMarks marks;
  double next_reroute = config.battery.reroute_period;
  if (net.has_links) {
    engine.set_barrier_hook([&](std::int64_t, util::Seconds barrier_time) {
      batch.clear();
      for (auto& part : parts) {
        batch.insert(batch.end(), part.deltas.begin(), part.deltas.end());
        part.deltas.clear();
      }
      std::sort(batch.begin(), batch.end(),
                [](const PendingDelta& a, const PendingDelta& b) {
                  return net::MembershipDelta::before(a.delta, b.delta);
                });
      for (const PendingDelta& pd : batch) {
        for (auto& part : parts) part.links->apply(pd.delta);
        coord->apply(pd.delta);
        if (!pd.battery_death) continue;
        std::int64_t delivered = 0;
        for (const auto& part : parts) delivered += part.m.delivered;
        marks.on_death(net, *coord, pd.delta.time, delivered);
      }
      // The single queue re-prices relays every reroute_period; here the
      // refresh lands on the first barrier at or past each grid point.
      // Workers are quiescent, so reading live battery draw and touching
      // every replica is race-free.
      while (lifetime_routing && next_reroute <= barrier_time) {
        for (int s = 0; s < shard_count; ++s) {
          const Partition& part = parts[static_cast<std::size_t>(s)];
          const auto& ids = map.owned_nodes(s);
          for (std::size_t l = 0; l < ids.size(); ++l) {
            const auto& b = part.batteries[l];
            if (b != nullptr)
              battery_fraction[static_cast<std::size_t>(ids[l])] =
                  b->drawn() / b->capacity();
          }
        }
        for (auto& part : parts) part.links->touch();
        next_reroute += config.battery.reroute_period;
      }
    });
  }

  engine.for_each_shard([&](int s) {
    Partition& part = parts[static_cast<std::size_t>(s)];
    net::NodeCostFn cost;
    if (lifetime_routing)
      cost = [&battery_fraction, weight = config.battery.lifetime_weight](
                 net::NodeId v) {
        return weight * battery_fraction[static_cast<std::size_t>(v)];
      };
    part.build(net, s, engine.shard(s),
               low_medium ? &low_medium->shard(s) : nullptr,
               high_medium ? &high_medium->shard(s) : nullptr,
               std::move(cost),
               [&part](const PendingDelta& d) { part.deltas.push_back(d); });
  });

  engine.run(config.duration);
  engine.for_each_shard([&](int s) {
    parts[static_cast<std::size_t>(s)].collect(config.duration);
  });

  RunMetrics total;
  double delay_sum = 0;
  for (auto& part : parts) {
    detail::merge_metrics(total, part.m);
    total.shard_events.push_back(part.m.events_processed);
    delay_sum += part.delay_sum;
  }
  total.boundary_frames =
      (low_medium ? low_medium->boundary_exports() : 0) +
      (high_medium ? high_medium->boundary_exports() : 0);
  detail::finalize_metrics(total, config, delay_sum, marks);

  // Batteries hold event handles into the shard simulator, so they die
  // in the teardown phase too.
  engine.for_each_shard([&](int s) {
    parts[static_cast<std::size_t>(s)].clear();
    if (low_medium) low_medium->reset_shard(s);
    if (high_medium) high_medium->reset_shard(s);
    engine.shard(s).clear();
  });
  return total;
}

}  // namespace

RunMetrics run_scenario(const ScenarioConfig& config) {
  // Validation first: a bad knob must not pay for a 100k-node placement.
  config.validate();
  const SharedNet net(config, config.shards);
  return config.shards > 1 ? run_sharded(net) : run_single_queue(net);
}

std::vector<RunMetrics> run_replications(ScenarioConfig config, int runs) {
  BCP_REQUIRE(runs >= 1);
  std::vector<RunMetrics> out;
  out.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    config.seed = config.seed + (r == 0 ? 0 : 1);
    out.push_back(run_scenario(config));
  }
  return out;
}

const char* first_metric_difference(const RunMetrics& a, const RunMetrics& b) {
#define BCP_METRIC_DIFF(type, name, init, rule) \
  if (!(a.name == b.name)) return #name;
  BCP_RUN_METRICS(BCP_METRIC_DIFF)
#undef BCP_METRIC_DIFF
  return nullptr;
}

stats::ResultSink::Metrics standard_metrics(const RunMetrics& m) {
  return {
      {"goodput", m.goodput},
      {"normalized_energy", m.normalized_energy},
      {"normalized_energy_sensor_ideal", m.normalized_energy_sensor_ideal},
      {"normalized_energy_sensor_header", m.normalized_energy_sensor_header},
      {"mean_delay_s", m.mean_delay},
      {"generated", static_cast<double>(m.generated)},
      {"delivered", static_cast<double>(m.delivered)},
      {"dropped_buffer", static_cast<double>(m.dropped_buffer)},
      {"dropped_queue", static_cast<double>(m.dropped_queue)},
      {"dropped_mac", static_cast<double>(m.dropped_mac)},
      {"mac_tx_attempts", static_cast<double>(m.mac_tx_attempts)},
      {"mac_tx_failed", static_cast<double>(m.mac_tx_failed)},
      {"bcp_wakeups", static_cast<double>(m.bcp_wakeups)},
      {"wifi_wakeup_transitions",
       static_cast<double>(m.wifi_wakeup_transitions)},
      {"wifi_on_seconds", m.wifi_on_seconds},
      {"sensor_energy_ideal_J", m.sensor_energy.ideal()},
      {"wifi_energy_full_J", m.wifi_energy.full()},
  };
}

}  // namespace bcp::app
