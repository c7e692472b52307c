#include "mac/tdma_mac.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace bcp::mac {

// ------------------------------------------------------------ TdmaSchedule

TdmaSchedule TdmaSchedule::from_tree(const net::Router& routes,
                                     net::NodeId sink, int node_count) {
  BCP_REQUIRE(node_count >= 1);
  BCP_REQUIRE(sink >= 0 && sink < node_count);
  TdmaSchedule s;
  s.coordinator = sink;
  s.slots_of.assign(static_cast<std::size_t>(node_count), {});
  s.relay.assign(static_cast<std::size_t>(node_count), false);

  // Tree shape from the router's convergecast answers. Stranded nodes
  // (hops < 0) get no slots — they cannot deliver anyway.
  std::vector<int> depth(static_cast<std::size_t>(node_count), -1);
  std::vector<net::NodeId> parent(static_cast<std::size_t>(node_count),
                                  net::kInvalidNode);
  for (net::NodeId id = 0; id < node_count; ++id) {
    depth[static_cast<std::size_t>(id)] = routes.hops(id, sink);
    if (id != sink && depth[static_cast<std::size_t>(id)] > 0)
      parent[static_cast<std::size_t>(id)] = routes.next_hop(id, sink);
  }
  for (net::NodeId id = 0; id < node_count; ++id) {
    const net::NodeId p = parent[static_cast<std::size_t>(id)];
    if (p != net::kInvalidNode && p != sink)
      s.relay[static_cast<std::size_t>(p)] = true;
  }

  // Proportional bandwidth (TreeMAC-style): weight = subtree size, so an
  // interior node can relay everything its descendants source in the same
  // superframe. Summing children into parents in depth-descending order
  // computes all subtree sizes in one pass.
  std::vector<net::NodeId> order;
  order.reserve(static_cast<std::size_t>(node_count));
  for (net::NodeId id = 0; id < node_count; ++id)
    if (id != sink && depth[static_cast<std::size_t>(id)] > 0)
      order.push_back(id);
  std::sort(order.begin(), order.end(),
            [&depth](net::NodeId a, net::NodeId b) {
              const int da = depth[static_cast<std::size_t>(a)];
              const int db = depth[static_cast<std::size_t>(b)];
              return da != db ? da > db : a < b;
            });
  std::vector<int> weight(static_cast<std::size_t>(node_count), 0);
  for (const net::NodeId id : order)
    weight[static_cast<std::size_t>(id)] += 1;  // the node's own source
  for (const net::NodeId id : order) {
    const net::NodeId p = parent[static_cast<std::size_t>(id)];
    if (p != net::kInvalidNode && p != sink)
      weight[static_cast<std::size_t>(p)] +=
          weight[static_cast<std::size_t>(id)];
  }

  // Wave interleave: wave w hands one slot to every node with weight > w,
  // deepest first — children transmit before parents within each wave, so
  // relayed traffic cascades sinkward inside one superframe.
  int max_weight = 0;
  for (const net::NodeId id : order)
    max_weight = std::max(max_weight, weight[static_cast<std::size_t>(id)]);
  int slot = 0;
  for (int wave = 0; wave < max_weight; ++wave)
    for (const net::NodeId id : order)
      if (weight[static_cast<std::size_t>(id)] > wave)
        s.slots_of[static_cast<std::size_t>(id)].push_back(slot++);
  s.slot_count = slot;
  return s;
}

// ----------------------------------------------------------------- TdmaMac

TdmaMac::TdmaMac(sim::Simulator& sim, phy::Radio& radio,
                 const TdmaParams& params, const TdmaSchedule& schedule,
                 std::uint64_t seed, Stats& stats)
    : Mac(stats),
      sim_(sim),
      radio_(radio),
      params_(params),
      schedule_(schedule) {
  BCP_REQUIRE_MSG(params_.beacon_period > 0,
                  "TdmaMac needs resolved params (see resolved_for)");
  params_.validate();
  BCP_REQUIRE(schedule_.coordinator != net::kInvalidNode);
  const auto self = static_cast<std::size_t>(radio_.self());
  BCP_REQUIRE(self < schedule_.slots_of.size());
  is_coordinator_ = radio_.self() == schedule_.coordinator;
  relay_ = schedule_.relay[self];
  my_slots_ = schedule_.slots_of[self];
  data_budget_ = params_.slot_len - 2 * params_.guard;
  // The coordinator's clock IS the schedule reference; everyone else
  // drifts at a fixed per-node rate drawn from the seed.
  if (!is_coordinator_) {
    util::Xoshiro256 rng(seed);
    drift_rate_ = rng.uniform(-params_.sync_drift, params_.sync_drift);
  }
  radio_.set_link(this);
  if (is_coordinator_) arm_beacon();
}

bool TdmaMac::synced() const {
  if (is_coordinator_) return true;
  if (!ever_synced_) return false;
  return sim_.now() < static_cast<double>(sync_superframe_ + 2) *
                          params_.beacon_period;
}

util::Seconds TdmaMac::ideal_data_start(std::uint64_t superframe,
                                        int slot) const {
  const util::Seconds beacon_air =
      params_.preamble +
      static_cast<double>(params_.beacon_bits) / radio_.model().rate;
  return static_cast<double>(superframe) * params_.beacon_period +
         beacon_air + params_.guard +
         static_cast<double>(slot) * params_.slot_len + params_.guard;
}

util::Seconds TdmaMac::airtime(util::Bits payload_bits) const {
  return params_.preamble +
         static_cast<double>(payload_bits + params_.header_bits) /
             radio_.model().rate;
}

bool TdmaMac::enqueue(net::MessageRef msg, net::NodeId next_hop) {
  BCP_REQUIRE(msg);
  BCP_REQUIRE(next_hop == net::kBroadcastNode || next_hop >= 0);
  BCP_REQUIRE(next_hop != radio_.self());
  if (queue_.size() >= params_.max_queue) {
    ++stats_->queue_drops;
    return false;
  }
  ++stats_->enqueued;
  Outgoing out;
  out.size_bits = msg->size_bits();
  out.msg = std::move(msg);
  out.next_hop = next_hop;
  queue_.push_back(std::move(out));
  return true;  // drained by the slot machinery, never inline
}

// ---- coordinator: beacons --------------------------------------------

void TdmaMac::arm_beacon() {
  // Superframe k begins at k * P on the coordinator clock (= sim time).
  const double next =
      static_cast<double>(next_beacon_seq_) * params_.beacon_period;
  sim_.cancel(beacon_timer_);
  beacon_timer_ = sim_.schedule_in(std::max(0.0, next - sim_.now()),
                                   [this] { on_beacon_time(); });
}

void TdmaMac::on_beacon_time() {
  const std::uint64_t seq = next_beacon_seq_++;
  arm_beacon();  // next superframe first — beaconing never stalls
  if (!radio_.ready()) return;  // radio dark this superframe: members coast
  phy::Frame f;
  f.tx_node = radio_.self();
  f.rx_node = net::kBroadcastNode;
  f.kind = phy::FrameKind::kBeacon;
  f.mac_seq = static_cast<std::uint32_t>(seq);
  f.payload_bits = 0;
  f.header_bits = params_.beacon_bits;
  f.preamble = params_.preamble;
  tx_is_beacon_ = true;
  radio_.transmit(f);
}

// ---- member: sync + slots --------------------------------------------

void TdmaMac::arm_next_slot() {
  if (my_slots_.empty() || !ever_synced_ || in_slot_) return;
  const double now = sim_.now();
  const double P = params_.beacon_period;
  std::uint64_t j =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(now / P)));
  for (int hop = 0; hop < 3; ++hop, ++j) {
    for (const int s : my_slots_) {
      const double ideal = ideal_data_start(j, s);
      // Fire on the node's own drifted clock: the error accumulated since
      // the last beacon offsets the ideal instant. The guard absorbs it
      // as long as |drift x elapsed| stays under guard. Candidates are
      // filtered on the drifted fire time — a slot whose (possibly
      // early-running) start is not strictly in the future is gone, and
      // re-arming it would spin the simulator at a fixed instant.
      const double fire = ideal + drift_rate_ * (ideal - sync_time_);
      if (fire <= now + 1e-12) continue;
      pending_superframe_ = j;
      pending_first_ = s == my_slots_.front();
      sim_.cancel(slot_timer_);
      slot_timer_ = sim_.schedule_in(fire - now, [this] { on_slot_start(); });
      return;
    }
  }
}

void TdmaMac::on_slot_start() {
  // The missed-beacon rule: a sync older than two superframes cannot be
  // trusted — stay silent, count the skip, keep the clock running so a
  // future beacon picks scheduling back up.
  if (!synced() || pending_superframe_ >= sync_superframe_ + 2) {
    ++stats_->slots_skipped_unsynced;
    arm_next_slot();
    return;
  }
  if (!radio_.ready()) {  // radio dark/waking: slot lost, schedule goes on
    arm_next_slot();
    return;
  }
  in_slot_ = true;
  slot_end_ = sim_.now() + data_budget_;
  if (relay_ && pending_first_) {
    // Re-broadcast the beacon ahead of data so our children sync for the
    // next superframe; its airtime comes out of our data budget.
    phy::Frame f;
    f.tx_node = radio_.self();
    f.rx_node = net::kBroadcastNode;
    f.kind = phy::FrameKind::kBeacon;
    f.mac_seq = static_cast<std::uint32_t>(pending_superframe_);
    f.payload_bits = 0;
    f.header_bits = params_.beacon_bits;
    f.preamble = params_.preamble;
    tx_is_beacon_ = true;
    radio_.transmit(f);
    return;  // data continues from on_radio_tx_done
  }
  continue_slot();
}

void TdmaMac::continue_slot() {
  BCP_ENSURE(in_slot_);
  while (true) {
    if (!current_) {
      if (queue_.empty()) {
        end_slot();
        return;
      }
      current_.emplace(std::move(queue_.front()));
      queue_.pop_front();
      current_->seq = next_seq_++;
    }
    const util::Seconds air = airtime(current_->size_bits);
    if (air > data_budget_ + 1e-12) {
      // Can never fit in any slot — head-of-line deadlock otherwise.
      ++stats_->oversize_drops;
      finish_current(false);
      continue;
    }
    if (sim_.now() + air > slot_end_ + 1e-12) {
      end_slot();  // keep the frame for our next slot
      return;
    }
    ++stats_->tx_attempts;
    phy::Frame f;
    f.tx_node = radio_.self();
    f.rx_node = current_->next_hop;
    f.kind = phy::FrameKind::kData;
    f.mac_seq = current_->seq;
    f.payload_bits = current_->size_bits;
    f.header_bits = params_.header_bits;
    f.preamble = params_.preamble;
    f.message = current_->msg;
    tx_is_beacon_ = false;
    radio_.transmit(f);
    return;  // resumes in on_radio_tx_done
  }
}

void TdmaMac::end_slot() {
  in_slot_ = false;
  arm_next_slot();
}

void TdmaMac::finish_current(bool success) {
  BCP_ENSURE(current_);
  Outgoing done = std::move(*current_);
  current_.reset();
  if (success)
    ++stats_->tx_success;
  else
    ++stats_->tx_failed;
  report_tx_done(*done.msg, done.next_hop, success);
}

void TdmaMac::on_radio_tx_done() {
  if (tx_is_beacon_) {
    tx_is_beacon_ = false;
    ++stats_->beacons_sent;
    if (in_slot_) continue_slot();  // relay beacon done — data follows
    return;
  }
  if (!current_) return;  // queue was flushed/reset mid-transmission
  // No acks, no retries: on a collision-free schedule, on-air is
  // delivered; drift-induced overlaps surface as corrupt deliveries at
  // the receiver, not as sender-side failures.
  finish_current(true);
  if (in_slot_) continue_slot();
}

void TdmaMac::on_radio_frame_received(const phy::Frame& frame) {
  if (frame.kind == phy::FrameKind::kBeacon) {
    if (is_coordinator_) return;  // relayed copies of our own schedule
    ++stats_->beacons_heard;
    const auto seq = static_cast<std::uint64_t>(frame.mac_seq);
    if (ever_synced_ && seq < sync_superframe_) return;  // stale relay
    ever_synced_ = true;
    sync_superframe_ = seq;
    sync_time_ = sim_.now();
    arm_next_slot();
    return;
  }
  if (frame.kind != phy::FrameKind::kData) return;
  BCP_ENSURE(frame.message);
  ++stats_->rx_delivered;  // no retransmissions => no duplicates to filter
  deliver_up(*frame.message, frame.tx_node);
}

// ---- teardown ---------------------------------------------------------

void TdmaMac::reset_on_crash() {
  sim_.cancel(beacon_timer_);
  sim_.cancel(slot_timer_);
  in_slot_ = false;
  tx_is_beacon_ = false;
  ++stats_->crash_resets;
  stats_->crash_drops +=
      static_cast<std::int64_t>(queue_.size()) + (current_ ? 1 : 0);
  current_.reset();
  queue_.clear();
  // A rebooted member forgets its sync (it must hear a fresh beacon); a
  // rebooted coordinator re-arms beaconing from on_recover().
  ever_synced_ = false;
  sync_superframe_ = 0;
  sync_time_ = 0;
}

void TdmaMac::on_recover() {
  if (!is_coordinator_) return;  // members wait for the next beacon
  // Resume beaconing at the next superframe boundary strictly ahead of
  // now — the schedule's absolute timeline never moved while we were down.
  next_beacon_seq_ = static_cast<std::uint64_t>(
                         std::floor(sim_.now() / params_.beacon_period)) +
                     1;
  arm_beacon();
}

}  // namespace bcp::mac
