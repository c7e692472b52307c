// The scenario assembly both engines share.
//
// A run is one SharedNet — placement, the node → partition map, one
// connectivity graph per radio class, static routes, senders and the
// expanded fault plan, built once on the caller's thread — plus one
// Partition per engine queue. A Partition builds, collects and tears down
// everything for the node ids it owns (ShardMap::owned_nodes), indexed
// stripe-locally through its net::Stripe view (ShardMap::stripe): the
// node assemblies, workloads, finite batteries, membership LinkState
// (dense over the owned ids, a sparse down-set for the rest), dynamic
// routes and the RunMetrics they accumulate.
//
// The engines are thin drivers around it (scenario.cpp):
//   * the single queue is one partition over the identity map, one
//     Simulator and one Channel per radio class, with its LinkState
//     mutated directly and lifetime costs read from live batteries;
//   * the sharded engine is N partitions over phy::ShardedMedium, plus
//     the barrier-hook coordinator that broadcasts membership deltas and
//     refreshes the lifetime-cost snapshot.
// What differs between them is an argument to Partition::build, never a
// second copy of the assembly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "app/duty_cycle.hpp"
#include "app/nodes.hpp"
#include "app/scenario.hpp"
#include "app/workload.hpp"
#include "energy/battery.hpp"
#include "mac/tdma_mac.hpp"
#include "net/link_state.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "phy/sharded_channel.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace bcp::app::detail {

/// One radio class of a run: its connectivity graph (null when the
/// evaluation model does not use the class), its static routes (null for
/// runs whose membership changes — those build DynamicRouting per
/// partition), and the channel parameters and seed every engine feeds its
/// channels. When both classes have the same range they share one graph
/// and one router.
struct RadioClass {
  std::shared_ptr<const net::ConnectivityGraph> graph;
  std::shared_ptr<const net::Router> routes;
  phy::Channel::Params params;
  std::uint64_t seed = 0;
};

/// Everything the partitions of one run share, read-only once built.
/// The constructor places the topology and rejects placements where a
/// used radio graph strands a node from the sink.
struct SharedNet {
  /// `config` must already be validated and must outlive the SharedNet.
  SharedNet(const ScenarioConfig& config, int partitions);

  const ScenarioConfig& config;
  net::Topology topo;
  net::NodeId sink;
  int n;
  phy::ShardMap map;
  /// Fault plans and finite batteries both change membership mid-run.
  bool has_links;
  /// Dense all-pairs tables up to kAllPairsNodeLimit nodes, sink-rooted
  /// trees beyond.
  bool all_pairs;
  RadioClass low;   ///< sensor radio
  RadioClass high;  ///< 802.11 radio
  std::vector<net::NodeId> senders;  ///< sorted, sink excluded
  std::vector<sim::FaultEvent> faults;
  core::BcpConfig bcp;

  /// The graph sink-partition checks run on: the sensor radio's when the
  /// model has one, the 802.11 radio's otherwise.
  const net::ConnectivityGraph& membership_graph() const {
    return low.graph ? *low.graph : *high.graph;
  }
};

/// A membership mutation a partition applied to its own LinkState.
struct PendingDelta {
  net::MembershipDelta delta;
  /// Battery depletions drive the lifetime metrics (first death,
  /// sink-partition check); fault-plan mutations do not.
  bool battery_death = false;
};

/// Runs after a crash, recovery, link flip or battery death has been
/// applied to the partition's own LinkState.
using MembershipFn = std::function<void(const PendingDelta&)>;

class Partition {
 public:
  Partition() = default;
  // Nodes, batteries and scheduled events hold `this`.
  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  /// Builds the owned nodes on `sim` over the given channels (null for a
  /// radio class the model does not use), arms their batteries, schedules
  /// the fault events this partition must act on and starts its
  /// workloads. `cost` prices relays for lifetime-aware routing (null
  /// otherwise). `links` must be engaged first for membership runs
  /// (SharedNet::has_links).
  void build(const SharedNet& net, int shard, sim::Simulator& sim,
             phy::Channel* low, phy::Channel* high, net::NodeCostFn cost,
             MembershipFn on_change);

  /// Finalizes every owned node's meters at `end` and accumulates this
  /// partition's energies (per node, in ascending node-id order) and
  /// counter blocks into `m`.
  void collect(util::Seconds end);

  /// Destroys batteries, workloads and nodes. The sharded engine calls it
  /// on the partition's pinned thread (pooled payloads are thread-local).
  void clear();

  /// The membership this partition's channels and routes read. Node and
  /// link state is the same for both radio classes, so one LinkState
  /// serves both.
  std::optional<net::LinkState> links;
  /// Per owned node (local id); null where no radio class has a budget.
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  /// Queued by the sharded engine's membership callback, drained by its
  /// coordinator at each barrier.
  std::vector<PendingDelta> deltas;
  RunMetrics m;
  double delay_sum = 0;

  /// Introspection after build(): an owned dual-radio node (local id),
  /// the per-class MAC choices every node of the partition reads, and
  /// the counter blocks every node adds into.
  const DualRadioNode& dual_node(std::size_t local) const {
    return *dual_[local];
  }
  const MacChoice& low_mac() const { return low_mac_; }
  const MacChoice& high_mac() const { return high_mac_; }
  const NodeCounters& counters() const { return counters_; }

 private:
  /// The one crash teardown of fault-plan crashes and battery deaths:
  /// crashes the owned node and, on membership runs, takes it down in
  /// `links` so channels stop delivering to it and routing re-converges.
  void crash(std::size_t local, net::NodeId node);
  void on_battery_death(net::NodeId node);
  void apply_fault(const sim::FaultEvent& ev);
  void publish(net::LinkChange::Kind kind, net::NodeId node,
               net::NodeId peer, bool battery_death);

  const SharedNet* net_ = nullptr;
  net::Stripe stripe_;  ///< the owned node ids and their local slots
  sim::Simulator* sim_ = nullptr;
  phy::Channel* low_ = nullptr;
  phy::Channel* high_ = nullptr;
  MembershipFn on_change_;
  DeliverySink delivery_;
  std::unique_ptr<net::DynamicRouting> low_dyn_;
  std::unique_ptr<net::DynamicRouting> high_dyn_;
  // TDMA slot schedules and the resolved per-class MAC choices; nodes
  // hold references into them for the whole run.
  std::optional<mac::TdmaSchedule> low_schedule_;
  std::optional<mac::TdmaSchedule> high_schedule_;
  MacChoice low_mac_;
  MacChoice high_mac_;
  NodeCounters counters_;
  // Exactly one node family is populated, one entry per owned node. Each
  // family is one allocation: nodes are constructed in place (the
  // optional only defers construction) and never move.
  std::vector<std::optional<ForwardingNode>> fwd_;
  std::vector<std::optional<DualRadioNode>> dual_;
  std::vector<std::optional<DutyCycledWifiNode>> duty_;
  std::vector<std::unique_ptr<CbrWorkload>> workloads_;
};

/// Run-level lifetime bookkeeping at battery deaths: the delivered bits
/// at the first death, and when (and after how many delivered bits) some
/// alive node first lost every path to the sink.
struct LifetimeMarks {
  std::int64_t first_death_bits = -1;
  double partition_time = -1;
  std::int64_t partition_bits = -1;

  /// One battery death at `at`, with `delivered` packets delivered so far
  /// and `links` the membership as of the death.
  void on_death(const SharedNet& net, const net::LinkState& links,
                util::Seconds at, std::int64_t delivered);
};

/// Goodput, mean delay, the normalized-energy family and (battery runs)
/// the lifetime metrics, computed from the accumulated sums. "Until first
/// death / partition" degenerate to the whole run's deliveries when the
/// event never happened.
void finalize_metrics(RunMetrics& m, const ScenarioConfig& config,
                      double delay_sum, const LifetimeMarks& marks);

}  // namespace bcp::app::detail
