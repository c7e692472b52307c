#include "app/partition.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "mac/mac_params.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bcp::app::detail {

namespace {

void accumulate(RadioEnergyTotals& t, const energy::EnergyMeter& meter) {
  using energy::EnergyCategory;
  t.tx += meter.energy(EnergyCategory::kTx);
  t.rx += meter.energy(EnergyCategory::kRx);
  t.overhear += meter.energy(EnergyCategory::kOverhear);
  t.idle += meter.energy(EnergyCategory::kIdle);
  t.wakeup += meter.energy(EnergyCategory::kWaking);
}

/// Seconds an 802.11 radio spent powered (idle, receiving, overhearing
/// or transmitting).
double on_seconds(const energy::EnergyMeter& meter) {
  using energy::EnergyCategory;
  return meter.duration(EnergyCategory::kIdle) +
         meter.duration(EnergyCategory::kRx) +
         meter.duration(EnergyCategory::kOverhear) +
         meter.duration(EnergyCategory::kTx);
}

double per_kbit(util::Joules e, util::Bits delivered_bits) {
  if (delivered_bits <= 0) return 0.0;
  return e / (static_cast<double>(delivered_bits) / 1000.0);
}

/// Maps a DeliverySink drop reason onto its RunMetrics counter.
void classify_drop(RunMetrics& m, const char* reason) {
  if (std::strcmp(reason, "buffer-full") == 0)
    ++m.dropped_buffer;
  else if (std::strcmp(reason, "queue-full") == 0)
    ++m.dropped_queue;
  else if (std::strcmp(reason, "mac-failed") == 0)
    ++m.dropped_mac;
  else if (std::strcmp(reason, "node-down") == 0)
    ++m.dropped_node_down;
  else
    ++m.dropped_no_route;
}

/// The seed-determined sender subset (sorted node ids, sink excluded).
std::vector<net::NodeId> pick_senders(std::uint64_t seed, int n,
                                      net::NodeId sink, int n_senders) {
  std::vector<net::NodeId> candidates;
  for (net::NodeId id = 0; id < n; ++id)
    if (id != sink) candidates.push_back(id);
  util::Xoshiro256 pick_rng(util::substream(seed, 3, 0x53454Eu));
  for (std::size_t i = candidates.size(); i > 1; --i)
    std::swap(candidates[i - 1], candidates[pick_rng.uniform_int(i)]);
  candidates.resize(static_cast<std::size_t>(n_senders));
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

void add_channel_stats(RunMetrics& m, const phy::Channel& channel) {
  m.chan_frames += channel.stats().frames;
  m.chan_rx_starts += channel.stats().rx_starts;
  m.chan_rx_ends += channel.stats().deliveries_clean +
                    channel.stats().deliveries_corrupt;
  m.chan_rx_live_at_end += channel.live_arrivals();
}

/// MAC counters of one forwarding or dual-radio node MAC.
void add_mac_stats(RunMetrics& m, const mac::Mac& mc) {
  m.mac_tx_attempts += mc.stats().tx_attempts;
  m.mac_tx_failed += mc.stats().tx_failed;
  m.mac_crash_drops += mc.stats().crash_drops;
  if (const auto* tdma = dynamic_cast<const mac::TdmaMac*>(&mc)) {
    m.tdma_beacons_sent += tdma->stats().beacons_sent;
    m.tdma_beacons_heard += tdma->stats().beacons_heard;
    m.tdma_slots_skipped += tdma->stats().slots_skipped_unsynced;
  }
}

// Per-node metric collection: finalizes the node's meter(s) at `end` and
// accumulates energies and MAC/protocol counters. One call per node, in
// node-id order, fixes the accumulation arithmetic of every engine.

void collect_forwarding(RunMetrics& m, ForwardingNode& node,
                        bool charge_sensor, util::Seconds end) {
  energy::EnergyMeter& meter = node.radio().meter();
  meter.finalize(end);
  accumulate(charge_sensor ? m.sensor_energy : m.wifi_energy, meter);
  add_mac_stats(m, node.mac());
}

void collect_duty(RunMetrics& m, DutyCycledWifiNode& node,
                  util::Seconds end) {
  energy::EnergyMeter& meter = node.radio().meter();
  meter.finalize(end);
  accumulate(m.wifi_energy, meter);
  m.mac_tx_attempts += node.mac().stats().tx_attempts;
  m.mac_tx_failed += node.mac().stats().tx_failed;
  m.wifi_wakeup_transitions += meter.wakeup_count();
  m.wifi_on_seconds += on_seconds(meter);
}

void collect_dual(RunMetrics& m, DualRadioNode& node, util::Seconds end) {
  node.sensor_radio().meter().finalize(end);
  node.wifi_radio().meter().finalize(end);
  accumulate(m.sensor_energy, node.sensor_radio().meter());
  accumulate(m.wifi_energy, node.wifi_radio().meter());
  add_mac_stats(m, node.sensor_mac());
  add_mac_stats(m, node.wifi_mac());
  const auto& astats = node.agent().stats();
  m.bcp_packets_lost_to_crash += astats.packets_lost_to_crash;
  m.bcp_wakeups += astats.wakeups_sent;
  m.bcp_handshakes_failed += astats.handshakes_failed;
  m.bcp_sender_sessions += astats.sender_sessions_completed;
  m.bcp_receiver_timeouts += astats.receiver_sessions_timed_out;
  m.wifi_wakeup_transitions += node.wifi_radio().meter().wakeup_count();
  m.wifi_on_seconds += on_seconds(node.wifi_radio().meter());
}

}  // namespace

SharedNet::SharedNet(const ScenarioConfig& cfg, int partitions)
    : config(cfg),
      topo(cfg.topology.build()),
      sink(topo.sink),
      n(topo.node_count()),
      map(phy::ShardMap::stripes(topo.positions, partitions)),
      has_links(!cfg.faults.empty() || cfg.battery.enabled),
      all_pairs(cfg.routing == RoutingMode::kAllPairs ||
                (cfg.routing == RoutingMode::kAuto &&
                 n <= kAllPairsNodeLimit)),
      senders(pick_senders(cfg.seed, n, sink, cfg.n_senders)),
      bcp(cfg.bcp) {
  bcp.set_burst_packets(cfg.burst_packets, cfg.packet_bits);
  // One graph per distinct range the model uses, shared by every channel
  // partition and router of the run: the 802.11 class reuses the sensor
  // class's graph and routes when both reach equally far (every sh
  // preset). Channel parameters and seeds stay per class; each channel's
  // capture (SINR) noise floor is its radio's datasheet value.
  const auto add_class = [&](RadioClass& rc, const char* radio_name,
                             const energy::RadioEnergyModel& radio,
                             util::Metres range, std::uint64_t seed) {
    rc.params = phy::Channel::Params{cfg.frame_loss_prob, cfg.propagation};
    rc.params.capture.enabled = cfg.capture_enabled;
    rc.params.capture.threshold_db = cfg.capture_threshold_db;
    rc.params.capture.noise_floor_dbm = radio.noise_floor_dbm;
    rc.seed = seed;
    if (low.graph && range == cfg.sensor_radio.range) {
      rc.graph = low.graph;
      rc.routes = low.routes;
      return;
    }
    rc.graph = std::make_shared<net::ConnectivityGraph>(topo.positions, range);
    // A silent kInvalidNode route at runtime would just bleed packets as
    // "no-route" drops, so a stranded node is a configuration error.
    const std::vector<net::NodeId> stranded =
        net::unreachable_from(*rc.graph, sink);
    BCP_REQUIRE_MSG(stranded.empty(),
                    std::string(radio_name) +
                        "-radio topology is disconnected: " +
                        std::to_string(stranded.size()) +
                        " node(s) cannot reach sink " + std::to_string(sink) +
                        ": " + net::format_node_list(stranded));
    // Static membership: one Router per graph, shared by all partitions
    // (RoutingTable/ConvergecastRouting queries are const and
    // thread-safe).
    if (!has_links) {
      if (all_pairs)
        rc.routes = std::make_shared<net::RoutingTable>(*rc.graph);
      else
        rc.routes = std::make_shared<net::ConvergecastRouting>(*rc.graph, sink);
    }
  };
  if (cfg.model == EvalModel::kSensor || cfg.model == EvalModel::kDualRadio)
    add_class(low, "sensor", cfg.sensor_radio, cfg.sensor_radio.range,
              util::substream(cfg.seed, 1, 0x4C4348u));
  if (cfg.model != EvalModel::kSensor)
    add_class(high, "wifi", cfg.wifi_radio,
              cfg.wifi_range_override > 0 ? cfg.wifi_range_override
                                          : cfg.wifi_radio.range,
              util::substream(cfg.seed, 2, 0x484348u));

  if (!cfg.faults.empty()) {
    // FaultPlan only consults adjacency to aim link flaps at real links;
    // crash-only plans skip the per-node list copy entirely.
    std::vector<std::vector<std::int32_t>> adjacency;
    if (cfg.faults.link_flaps > 0) {
      adjacency.reserve(static_cast<std::size_t>(n));
      for (net::NodeId id = 0; id < n; ++id)
        adjacency.push_back(membership_graph().neighbors(id));
    }
    faults = sim::FaultPlan(cfg.faults, n, sink, cfg.duration,
                            cfg.faults.link_flaps > 0 ? &adjacency : nullptr)
                 .events();
  }
}

void Partition::build(const SharedNet& net, int shard, sim::Simulator& sim,
                      phy::Channel* low, phy::Channel* high,
                      net::NodeCostFn cost, MembershipFn on_change) {
  const ScenarioConfig& config = net.config;
  net_ = &net;
  shard_ = shard;
  sim_ = &sim;
  low_ = low;
  high_ = high;
  on_change_ = std::move(on_change);
  delivery_.delivered = [this](const net::DataPacket& p) {
    ++m.delivered;
    delay_sum += sim_->now() - p.created_at;
  };
  delivery_.dropped = [this](const net::DataPacket&, const char* reason) {
    classify_drop(m, reason);
  };
  const std::vector<net::NodeId>& ids = net.map.owned_nodes(shard);
  const std::size_t owned = ids.size();
  // Sized before any route query: lifetime costs may read it.
  if (config.battery.enabled) batteries.resize(owned);

  // Membership runs hear and route through this partition's own
  // LinkState; DynamicRouting's lazy refresh cache mutates on query, so
  // each partition owns its routers. Static runs share the net's routes.
  const net::Router* low_r = net.low.routes.get();
  const net::Router* high_r = net.high.routes.get();
  if (links && low != nullptr) {
    low->set_link_state(&*links);
    low_dyn_ = std::make_unique<net::DynamicRouting>(
        *net.low.graph, net.sink, *links, net.all_pairs, config.route_policy,
        cost);
    low_r = low_dyn_.get();
  }
  if (links && high != nullptr) {
    high->set_link_state(&*links);
    high_dyn_ = std::make_unique<net::DynamicRouting>(
        *net.high.graph, net.sink, *links, net.all_pairs, config.route_policy,
        std::move(cost));
    high_r = high_dyn_.get();
  }

  // Resolve a radio class's MacChoice: CSMA keeps the historical MacParams
  // and seed path; TDMA builds the shared schedule from the class tree and
  // fills zero (class-default) knobs, auto-tightening the beacon period
  // to the slot span.
  const auto resolve = [&](const mac::MacSpec& spec,
                           mac::MacParams csma_defaults,
                           mac::TdmaParams tdma_defaults,
                           const net::Router& routes,
                           util::BitsPerSecond rate,
                           std::optional<mac::TdmaSchedule>& schedule) {
    MacChoice choice;
    choice.csma = csma_defaults;
    choice.family = spec.family;
    if (spec.is_tdma()) {
      schedule.emplace(mac::TdmaSchedule::from_tree(routes, net.sink, net.n));
      BCP_REQUIRE_MSG(schedule->slot_count > 0,
                      "TDMA schedule is empty: no node reaches the sink");
      const mac::TdmaParams base =
          spec.tdma.is_default() ? tdma_defaults : spec.tdma;
      choice.tdma = base.resolved_for(schedule->slot_count, rate);
      choice.schedule = &*schedule;
    }
    return choice;
  };

  switch (config.model) {
    case EvalModel::kSensor: {
      low_mac_ = resolve(config.sensor_mac, mac::sensor_mac_params(),
                         mac::tdma_sensor_params(), *low_r,
                         config.sensor_radio.rate, low_schedule_);
      fwd_ = std::vector<std::optional<ForwardingNode>>(owned);
      for (std::size_t l = 0; l < owned; ++l)
        fwd_[l].emplace(sim, *low, *low_r, ids[l], net.sink,
                        config.sensor_radio, phy::OverhearMode::kHeaderOnly,
                        low_mac_, config.seed, &delivery_);
      break;
    }
    case EvalModel::kWifi: {
      high_mac_ = resolve(config.wifi_mac, mac::dcf_mac_params(),
                          mac::tdma_wifi_params(), *high_r,
                          config.wifi_radio.rate, high_schedule_);
      fwd_ = std::vector<std::optional<ForwardingNode>>(owned);
      for (std::size_t l = 0; l < owned; ++l)
        fwd_[l].emplace(sim, *high, *high_r, ids[l], net.sink,
                        config.wifi_radio, phy::OverhearMode::kFull,
                        high_mac_, config.seed, &delivery_);
      break;
    }
    case EvalModel::kWifiDutyCycled: {
      DutyCycledWifiNode::Schedule schedule;
      schedule.period = config.duty_period;
      schedule.duty = config.duty_cycle;
      duty_ = std::vector<std::optional<DutyCycledWifiNode>>(owned);
      for (std::size_t l = 0; l < owned; ++l)
        duty_[l].emplace(sim, *high, *high_r, ids[l], net.sink,
                         config.wifi_radio, schedule, config.seed,
                         &delivery_);
      break;
    }
    case EvalModel::kDualRadio: {
      low_mac_ = resolve(config.sensor_mac, mac::sensor_mac_params(),
                         mac::tdma_sensor_params(), *low_r,
                         config.sensor_radio.rate, low_schedule_);
      high_mac_ = MacChoice{mac::dcf_mac_params(), mac::MacFamily::kAuto, {},
                            nullptr};
      dual_ = std::vector<std::optional<DualRadioNode>>(owned);
      for (std::size_t l = 0; l < owned; ++l)
        dual_[l].emplace(sim, *low, *high, *low_r, *high_r, ids[l],
                         config.sensor_radio, config.wifi_radio, net.bcp,
                         config.wifi_promiscuous ? phy::OverhearMode::kFull
                                                 : phy::OverhearMode::kNone,
                         config.seed, &delivery_, low_mac_, high_mac_);
      break;
    }
  }

  // ---- Finite batteries ----
  // One battery per node, drained by every radio the node owns; death is
  // the fault plan's crash teardown, minus the possibility of recovery.
  // The death instant is always a scheduled event: Battery re-arms it
  // from the radios' energy observer on every power-state change, so no
  // polling is involved and depletion lands at its exact analytic time.
  util::Joules capacity = 0;
  if (net.low.graph) capacity += config.battery.sensor_initial_j;
  if (net.high.graph) capacity += config.battery.wifi_initial_j;
  if (config.battery.enabled && capacity > 0) {
    for (std::size_t l = 0; l < owned; ++l) {
      const net::NodeId id = ids[l];
      auto battery = std::make_unique<energy::Battery>(
          sim, capacity, [this, id] { on_battery_death(id); });
      energy::Battery* b = battery.get();
      const auto watch = [b](phy::Radio& radio) {
        b->attach(&radio.meter());
        radio.set_energy_observer([b] { b->rearm(); });
      };
      if (!fwd_.empty()) {
        watch(fwd_[l]->radio());
      } else if (!duty_.empty()) {
        watch(duty_[l]->radio());
      } else {
        watch(dual_[l]->sensor_radio());
        watch(dual_[l]->wifi_radio());
      }
      battery->rearm();  // arm against the boot power state
      batteries[l] = std::move(battery);
    }
  }

  // ---- Fault/churn schedule ----
  // A node event runs on the node's owner; a link event on both
  // endpoints' owners, so each flips its own LinkState at the exact
  // instant.
  const auto owns = [&](std::int32_t id) {
    return net.map.shard_of[static_cast<std::size_t>(id)] == shard;
  };
  for (const sim::FaultEvent& ev : net.faults) {
    const bool link_event = ev.kind == sim::FaultKind::kLinkDown ||
                            ev.kind == sim::FaultKind::kLinkUp;
    if (!owns(ev.node) && !(link_event && owns(ev.peer))) continue;
    sim.schedule_at(ev.at, [this, ev] { apply_fault(ev); });
  }

  for (const net::NodeId sender : net.senders) {
    if (!owns(sender)) continue;
    const auto l = static_cast<std::size_t>(
        net.map.local_of[static_cast<std::size_t>(sender)]);
    auto emit = [this, l](net::DataPacket p) {
      if (!dual_.empty())
        dual_[l]->send(p);
      else if (!duty_.empty())
        duty_[l]->send(p);
      else
        fwd_[l]->send(p);
    };
    workloads_.push_back(std::make_unique<CbrWorkload>(
        sim, sender, net.sink, config.packet_bits, config.rate_bps,
        util::substream(config.seed, static_cast<std::uint64_t>(sender),
                        0x574Bu),
        std::move(emit)));
    workloads_.back()->start();
  }
}

void Partition::crash(std::size_t local, net::NodeId node) {
  crash_node(fwd_.empty() ? nullptr : &*fwd_[local],
             dual_.empty() ? nullptr : &*dual_[local],
             duty_.empty() ? nullptr : &*duty_[local], node,
             links ? &*links : nullptr);
}

void Partition::publish(net::MembershipDelta::Kind kind, net::NodeId node,
                        net::NodeId peer, bool battery_death) {
  on_change_({net::MembershipDelta{sim_->now(), shard_, node, peer, kind},
              battery_death});
}

void Partition::on_battery_death(net::NodeId node) {
  crash(static_cast<std::size_t>(
            net_->map.local_of[static_cast<std::size_t>(node)]),
        node);
  ++m.battery_deaths;
  if (m.battery_deaths == 1) m.time_to_first_death = sim_->now();
  publish(net::MembershipDelta::Kind::kNodeDown, node, -1,
          /*battery_death=*/true);
}

void Partition::apply_fault(const sim::FaultEvent& ev) {
  using Kind = net::MembershipDelta::Kind;
  const auto node = static_cast<net::NodeId>(ev.node);
  const auto peer = static_cast<net::NodeId>(ev.peer);
  // Node events are scheduled on the owner only, so the stripe-local
  // index is valid wherever it is used below.
  const auto l = static_cast<std::size_t>(
      net_->map.local_of[static_cast<std::size_t>(node)]);
  switch (ev.kind) {
    case sim::FaultKind::kNodeCrash:
      crash(l, node);
      ++m.fault_node_crashes;
      publish(Kind::kNodeDown, node, peer, false);
      break;
    case sim::FaultKind::kNodeRecover: {
      // Battery death is final: a recovery scheduled for a node that has
      // since depleted is refused (counted, so churn+battery cells can
      // audit how much of the plan executed).
      const energy::Battery* battery =
          batteries.empty() ? nullptr : batteries[l].get();
      if (battery != nullptr && battery->depleted()) {
        ++m.fault_recoveries_refused;
        break;
      }
      if (links) links->set_node_up(node, true);
      if (!fwd_.empty())
        fwd_[l]->recover();
      else
        dual_[l]->recover();
      ++m.fault_node_recoveries;
      publish(Kind::kNodeUp, node, peer, false);
      break;
    }
    case sim::FaultKind::kLinkDown:
    case sim::FaultKind::kLinkUp: {
      const bool up = ev.kind == sim::FaultKind::kLinkUp;
      if (links) links->set_link_up(node, peer, up);
      // Only the node's owner counts and publishes the flip.
      if (net_->map.shard_of[static_cast<std::size_t>(node)] != shard_) break;
      ++(up ? m.fault_link_ups : m.fault_link_downs);
      publish(up ? Kind::kLinkUp : Kind::kLinkDown, node, peer, false);
      break;
    }
  }
}

void Partition::collect(util::Seconds end) {
  // Memory-model invariant: exactly one node family is populated, and
  // every node-indexed vector is sized by the owned stripe.
  const auto owned =
      static_cast<std::size_t>(net_->map.owned_count(shard_));
  BCP_ENSURE(fwd_.size() + dual_.size() + duty_.size() == owned);
  BCP_ENSURE(batteries.empty() || batteries.size() == owned);
  m.events_processed = sim_->processed_count();
  m.route_rebuilds = (low_dyn_ ? low_dyn_->rebuild_count() : 0) +
                     (high_dyn_ ? high_dyn_->rebuild_count() : 0);
  if (low_ != nullptr) add_channel_stats(m, *low_);
  if (high_ != nullptr) add_channel_stats(m, *high_);
  for (const auto& w : workloads_) m.generated += w->generated();
  const bool charge_sensor = net_->config.model == EvalModel::kSensor;
  for (auto& node : fwd_)
    collect_forwarding(m, *node, charge_sensor, end);
  for (auto& node : duty_) collect_duty(m, *node, end);
  for (auto& node : dual_) collect_dual(m, *node, end);
  for (const auto& battery : batteries) {
    if (battery == nullptr) continue;
    m.battery_max_drawn_fraction = std::max(
        m.battery_max_drawn_fraction, battery->drawn() / battery->capacity());
  }
}

void Partition::clear() {
  batteries.clear();
  workloads_.clear();
  fwd_.clear();
  duty_.clear();
  dual_.clear();
}

void LifetimeMarks::on_death(const SharedNet& net, const net::LinkState& links,
                             util::Seconds at, std::int64_t delivered) {
  if (first_death_bits < 0)
    first_death_bits = delivered * net.config.packet_bits;
  // Membership just changed: check whether some survivor lost its last
  // path to the sink (the graceful-degradation knee).
  if (partition_time < 0 &&
      !net::unreachable_alive(net.membership_graph(), net.sink, links)
           .empty()) {
    partition_time = at;
    partition_bits = delivered * net.config.packet_bits;
  }
}

void finalize_metrics(RunMetrics& m, const ScenarioConfig& config,
                      double delay_sum, const LifetimeMarks& marks) {
  const util::Bits delivered_bits = m.delivered * config.packet_bits;
  if (config.battery.enabled) {
    m.delivered_bits_until_first_death =
        marks.first_death_bits >= 0 ? marks.first_death_bits : delivered_bits;
    m.time_to_sink_partition = marks.partition_time;
    m.delivered_bits_until_partition =
        marks.partition_bits >= 0 ? marks.partition_bits : delivered_bits;
  }
  m.goodput = m.generated > 0
                  ? static_cast<double>(m.delivered) /
                        static_cast<double>(m.generated)
                  : 0.0;
  m.mean_delay = m.delivered > 0
                     ? delay_sum / static_cast<double>(m.delivered)
                     : 0.0;
  m.normalized_energy_sensor_ideal =
      per_kbit(m.sensor_energy.ideal(), delivered_bits);
  m.normalized_energy_sensor_header = per_kbit(
      m.sensor_energy.ideal() + m.sensor_energy.overhear, delivered_bits);
  switch (config.model) {
    case EvalModel::kSensor:
      m.normalized_energy = m.normalized_energy_sensor_ideal;
      break;
    case EvalModel::kWifi:
    case EvalModel::kWifiDutyCycled:
      m.normalized_energy = per_kbit(m.wifi_energy.full(), delivered_bits);
      break;
    case EvalModel::kDualRadio:
      // Sensor radio at its ideal (tx+rx) charge + 802.11 fully charged.
      m.normalized_energy = per_kbit(
          m.sensor_energy.ideal() + m.wifi_energy.full(), delivered_bits);
      break;
  }
}

}  // namespace bcp::app::detail
