#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace bcp::phy {

Channel::Channel(sim::Simulator& sim, std::vector<net::Position> positions,
                 util::Metres range, Params params, std::uint64_t seed)
    : Channel(sim,
              std::make_shared<net::ConnectivityGraph>(std::move(positions),
                                                       range),
              std::move(params), seed) {}

Channel::Channel(sim::Simulator& sim,
                 std::shared_ptr<const net::ConnectivityGraph> graph,
                 Params params, std::uint64_t seed)
    : Channel(sim, std::move(graph), std::move(params), seed,
              ShardingSpec{}) {}

Channel::Channel(sim::Simulator& sim,
                 std::shared_ptr<const net::ConnectivityGraph> graph,
                 Params params, std::uint64_t seed, ShardingSpec sharding)
    : sim_(sim),
      graph_(std::move(graph)),
      params_(std::move(params)),
      rng_(util::substream(seed, 0, /*salt=*/0x43484E4C)) {
  BCP_REQUIRE(graph_ != nullptr);
  // The closed interval: frame_loss_prob == 1.0 is a legitimate
  // "fully lossy link" configuration (every delivery corrupt, MAC retries
  // exhaust) — see the full-loss regression test.
  BCP_REQUIRE(params_.frame_loss_prob >= 0.0 &&
              params_.frame_loss_prob <= 1.0);
  // Capture params are validated unconditionally, mirroring the loss-prob
  // range check above: a NaN threshold or a NaN/zero/infinite noise power
  // is a configuration error whether or not the switch is on.
  BCP_REQUIRE(std::isfinite(params_.capture.threshold_db));
  noise_mw_ = util::dbm_to_mw(params_.capture.noise_floor_dbm);
  BCP_REQUIRE(std::isfinite(noise_mw_) && noise_mw_ > 0.0);
  capture_ = params_.capture.enabled;
  min_sinr_ = util::db_to_ratio(params_.capture.threshold_db);
  model_ = make_propagation_model(params_.propagation, *graph_,
                                  params_.frame_loss_prob,
                                  util::substream(seed, 7, 0x50524F50u));
  uniform_loss_ = model_->uniform();
  unit_loss_ = uniform_loss_ ? model_->loss_prob(0, 0, 0) : 0.0;
  unit_rx_mw_ = uniform_loss_ ? model_->rx_power_mw(0, 0, 0) : 0.0;
  // Per-node arrays: the global population, or a partition's owned stripe.
  stripe_ = sharding.stripe;
  const std::size_t n = stripe_.slots(graph_->node_count());
  if (!stripe_.whole()) {
    BCP_REQUIRE(stripe_.local_of != nullptr && sharding.emit != nullptr);
    BCP_REQUIRE(stripe_.shard >= 0 && stripe_.shard < sharding.shard_count);
    BCP_REQUIRE(stripe_.owned > 0 && stripe_.owned <= graph_->node_count());
    boundary_emit_ = std::move(sharding.emit);
    remote_seen_.assign(static_cast<std::size_t>(sharding.shard_count), 0);
    remote_dsts_.reserve(static_cast<std::size_t>(sharding.shard_count));
  }
  listeners_.resize(n, nullptr);
  lease_.resize(n, kNoSlot);
  transmitting_.resize(n, 0);
  arrival_max_end_.resize(n, 0.0);
}

void Channel::attach(net::NodeId node, ChannelListener* listener) {
  BCP_REQUIRE(node >= 0 && node < graph().node_count());
  BCP_REQUIRE_MSG(stripe_.owns(node),
                  "listener node not owned by this shard");
  BCP_REQUIRE(listener != nullptr);
  auto& slot = listeners_[stripe_.local(node)];
  BCP_REQUIRE_MSG(slot == nullptr, "listener already attached");
  slot = listener;
}

std::uint32_t Channel::acquire_tx_slot() {
  if (tx_free_head_ != kNoSlot) {
    const std::uint32_t slot = tx_free_head_;
    tx_free_head_ = tx_slots_[slot].next_free;
    tx_slots_[slot].next_free = kNoSlot;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(tx_slots_.size());
  BCP_ENSURE_MSG(slot != kNoSlot, "transmission slot space exhausted");
  tx_slots_.emplace_back();
  return slot;
}

void Channel::add_list() {
  const auto list = static_cast<std::uint32_t>(lists_.size());
  BCP_ENSURE_MSG(list != kNoSlot, "arrival list space exhausted");
  lists_.emplace_back();
  lists_[list].next_free = list_free_head_;
  list_free_head_ = list;
}

void Channel::start_tx(net::NodeId src, const Frame& frame,
                       util::Seconds duration) {
  BCP_REQUIRE(src >= 0 && src < graph().node_count());
  BCP_REQUIRE_MSG(stripe_.owns(src),
                  "transmitter not owned by this shard");
  BCP_REQUIRE(duration > 0);
  const std::size_t si = stripe_.local(src);
  BCP_REQUIRE_MSG(transmitting_[si] == 0, "node already transmitting");
  BCP_REQUIRE(frame.rx_node != src);

  const std::uint32_t slot = acquire_tx_slot();
  const util::Seconds now = sim_.now();
  const util::Seconds end = now + duration;
  const std::uint64_t tx_id =
      (static_cast<std::uint64_t>(tx_slots_[slot].gen) << 32) | slot;
  // Copying the frame shares its pooled message payload — no deep copy.
  tx_slots_[slot].tx = Transmission{src, frame, end, now, false};
  transmitting_[si] = tx_id;
  ++stats_.frames;

  // Half-duplex: whatever the transmitter was hearing is lost to it.
  if (lease_[si] != kNoSlot)
    for (auto& a : lists_[lease_[si]].arrivals) a.clean = false;

  const auto nbrs = graph().neighbors(src);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const net::NodeId r = nbrs[i];
    // A down link (or endpoint) suppresses the hearer entirely: no
    // arrival, no callbacks, no RNG draw.
    if (links_ != nullptr && !links_->link_up(src, r)) continue;
    // A hearer owned by another shard gets the frame via that shard's
    // mailbox instead (exported once per destination shard below).
    if (!stripe_.owns(r)) {
      const std::int32_t dst = stripe_.owner(r);
      if (!remote_seen_[static_cast<std::size_t>(dst)]) {
        remote_seen_[static_cast<std::size_t>(dst)] = 1;
        remote_dsts_.push_back(dst);
      }
      continue;
    }
    const std::size_t ri = stripe_.local(r);
    ArrivalList& list = lease_list(ri);
    auto& at_r = list.arrivals;
    const double loss =
        uniform_loss_ ? unit_loss_ : model_->loss_prob(src, i, r);
    bool clean;
    double rx_mw = 0.0;
    double interference_mw = 0.0;
    if (!capture_) {
      // Overlap at r corrupts both the new frame and everything in flight.
      // (A list leased just now is empty.)
      const bool overlap = !at_r.empty() || transmitting_[ri] != 0;
      for (auto& a : at_r) a.clean = false;
      clean = !overlap && !rng_.chance(loss);
    } else {
      // SINR mode: overlap corrupts nothing outright. The new arrival
      // raises every in-flight frame's concurrent interference; each
      // frame's fate is decided at its rx_end against the peak it saw.
      // (Half-duplex is still absolute — a transmitting hearer decodes
      // nothing and, short-circuited, consumes no loss draw; every other
      // hearer draws whether overlapped or not, so capture runs own a
      // different, denser RNG consumption than the golden-pinned default
      // path.)
      rx_mw = uniform_loss_ ? unit_rx_mw_ : model_->rx_power_mw(src, i, r);
      double& power_sum = list.power_mw;
      for (auto& a : at_r)
        a.peak_interference_mw = std::max(
            a.peak_interference_mw, power_sum - a.rx_power_mw + rx_mw);
      interference_mw = power_sum;
      power_sum += rx_mw;
      clean = transmitting_[ri] == 0 && !rng_.chance(loss);
    }
    at_r.push_back(Arrival{tx_id, clean, end, rx_mw, interference_mw, now});
    auto& max_end = arrival_max_end_[ri];
    max_end = std::max(max_end, end);
    ++stats_.rx_starts;
    if (auto* l = listeners_[ri]; l != nullptr)
      l->on_rx_start(tx_id, frame, duration);
  }

  if (!remote_dsts_.empty()) {
    for (const std::int32_t dst : remote_dsts_) {
      RemoteFrame rf;
      rf.src = src;
      rf.frame = frame;
      // Pooled refs are thread-local: detach and ship the payload by
      // value, one deep copy per destination shard.
      rf.frame.message = net::MessageRef{};
      if (frame.message) {
        rf.payload = *frame.message;
        rf.has_payload = true;
      }
      rf.start = now;
      rf.end = end;
      boundary_emit_(dst, std::move(rf));
      ++boundary_exports_;
      remote_seen_[static_cast<std::size_t>(dst)] = 0;
    }
    remote_dsts_.clear();
  }

  tx_slots_[slot].finish_event =
      sim_.schedule_at(end, [this, tx_id] { finish_tx(tx_id); });
}

void Channel::inject_remote(RemoteFrame rf) {
  BCP_REQUIRE(!stripe_.whole());
  BCP_REQUIRE(rf.src >= 0 && rf.src < graph().node_count());
  BCP_REQUIRE(!stripe_.owns(rf.src));
  BCP_REQUIRE(rf.end > rf.start);
  const std::uint32_t slot = acquire_tx_slot();
  const std::uint64_t tx_id =
      (static_cast<std::uint64_t>(tx_slots_[slot].gen) << 32) | slot;
  Transmission tx;
  tx.src = rf.src;
  tx.frame = rf.frame;
  if (rf.has_payload)
    tx.frame.message = net::make_message(std::move(rf.payload));
  tx.start = rf.start;
  tx.end = rf.end;
  tx.remote = true;
  tx_slots_[slot].tx = std::move(tx);
  if (rf.start > sim_.now()) {
    // Still in this shard's future (the exact-replay case: an even shard
    // exported it within the window the odd shard is about to run).
    tx_slots_[slot].finish_event =
        sim_.schedule_at(rf.start, [this, tx_id] { begin_remote(tx_id); });
  } else {
    begin_remote(tx_id);
  }
}

void Channel::begin_remote(std::uint64_t tx_id) {
  const auto slot = static_cast<std::uint32_t>(tx_id);
  // Copy the timing fields: finish_tx (the fully-ended case below) moves
  // the transmission out of the slot.
  const net::NodeId src = tx_slots_[slot].tx.src;
  const Frame frame = tx_slots_[slot].tx.frame;
  const util::Seconds s = tx_slots_[slot].tx.start;
  const util::Seconds e = tx_slots_[slot].tx.end;
  const util::Seconds now = sim_.now();
  const util::Seconds remaining = std::max(0.0, e - now);

  const auto nbrs = graph().neighbors(src);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const net::NodeId r = nbrs[i];
    if (!stripe_.owns(r)) continue;
    // The receiving shard's replica is exact for its own nodes: a hearer
    // this shard already knows is down (crashed locally, or via a prior
    // epoch) never hears the remote frame. The transmitter's shard also
    // masks at start_tx from its replica, which may be one window stale
    // for this link — the documented staleness bound.
    if (links_ != nullptr && !links_->link_up(src, r)) continue;
    const std::size_t ri = stripe_.local(r);
    ArrivalList& list = lease_list(ri);
    auto& at_r = list.arrivals;
    const double loss =
        uniform_loss_ ? unit_loss_ : model_->loss_prob(src, i, r);
    // Half-duplex over the true interval: the hearer's own transmission
    // collides only if it actually shared air time with [s, e).
    const bool tx_overlap = transmitting_[ri] != 0 && own_tx(ri).start < e;
    bool clean;
    double rx_mw = 0.0;
    double interference_mw = 0.0;
    if (!capture_) {
      bool overlap = tx_overlap;
      for (auto& a : at_r) {
        if (a.start < e && s < a.end) {
          a.clean = false;
          overlap = true;
        }
      }
      clean = !overlap && !rng_.chance(loss);
    } else {
      rx_mw = uniform_loss_ ? unit_rx_mw_ : model_->rx_power_mw(src, i, r);
      double& power_sum = list.power_mw;
      for (auto& a : at_r) {
        if (a.start < e && s < a.end) {
          a.peak_interference_mw = std::max(
              a.peak_interference_mw, power_sum - a.rx_power_mw + rx_mw);
          interference_mw += a.rx_power_mw;
        }
      }
      power_sum += rx_mw;
      clean = !tx_overlap && !rng_.chance(loss);
    }
    at_r.push_back(Arrival{tx_id, clean, e, rx_mw, interference_mw, s});
    auto& max_end = arrival_max_end_[ri];
    max_end = std::max(max_end, e);
    ++stats_.rx_starts;
    if (auto* l = listeners_[ri]; l != nullptr)
      l->on_rx_start(tx_id, frame, remaining);
  }

  if (e > now)
    tx_slots_[slot].finish_event =
        sim_.schedule_at(e, [this, tx_id] { finish_tx(tx_id); });
  else
    // Fully in the past (late by < one exchange window): rx_start and
    // rx_end land back-to-back, still exactly once per hearer.
    finish_tx(tx_id);
}

void Channel::finish_tx(std::uint64_t tx_id) {
  const auto slot = static_cast<std::uint32_t>(tx_id);
  BCP_ENSURE(slot < tx_slots_.size() &&
             tx_slots_[slot].gen == static_cast<std::uint32_t>(tx_id >> 32));
  const Transmission tx = std::move(tx_slots_[slot].tx);
  tx_slots_[slot].tx = Transmission{};  // drop the stale payload ref
  if (++tx_slots_[slot].gen == 0) tx_slots_[slot].gen = 1;
  tx_slots_[slot].next_free = tx_free_head_;
  tx_free_head_ = slot;
  // Exactly-once by construction: abort_tx_of cancels the scheduled
  // completion before finishing early, so whoever reaches here is still
  // the transmission's owner. Remote frames never owned the mask.
  if (!tx.remote) {
    auto& own = transmitting_[stripe_.local(tx.src)];
    BCP_ENSURE(own == tx_id);
    own = 0;
  }

  for (const net::NodeId r : graph().neighbors(tx.src)) {
    // Sharded: hearers owned by other shards were fed from their own
    // copy of the frame (and a remote src's own-shard hearers were local
    // there) — nothing to deliver here.
    if (!stripe_.owns(r)) continue;
    const std::size_t ri = stripe_.local(r);
    const std::uint32_t lease = lease_[ri];
    // Swap-remove. Collision marking and clear_at are order-independent,
    // but begin_remote's capture interference sum reads the list in
    // order, so the list must see exactly this sequence of push_back and
    // swap-remove operations.
    ArrivalList* list = lease == kNoSlot ? nullptr : &lists_[lease];
    std::size_t i = 0;
    if (list != nullptr)
      while (i < list->arrivals.size() && list->arrivals[i].tx_id != tx_id)
        ++i;
    if (list == nullptr || i == list->arrivals.size()) {
      // Only possible with dynamic link state: the link was down at
      // start_tx, so this hearer never got the arrival. The current state
      // is irrelevant — arrivals, not the mask, are the ground truth.
      BCP_ENSURE(links_ != nullptr);
      continue;
    }
    auto& at_r = list->arrivals;
    bool clean = at_r[i].clean;
    if (capture_) {
      const Arrival& a = at_r[i];
      // The SINR verdict for overlapped frames, against the worst
      // interference each saw. Collision-free arrivals skip it: their
      // noise/SNR story is already the propagation model's PER, and
      // judging them twice would let "capture" corrupt frames the
      // default rule delivers.
      clean = clean &&
              (a.peak_interference_mw <= 0.0 ||
               a.rx_power_mw >=
                   min_sinr_ * (noise_mw_ + a.peak_interference_mw));
      list->power_mw -= a.rx_power_mw;
    }
    at_r[i] = at_r.back();
    at_r.pop_back();
    if (at_r.empty()) {
      // The busy period is over: park the list, dropping the power sum's
      // residue, before the listener can start another lease.
      list->power_mw = 0.0;
      list->next_free = list_free_head_;
      list_free_head_ = lease;
      lease_[ri] = kNoSlot;
    }
    if (clean)
      ++stats_.deliveries_clean;
    else
      ++stats_.deliveries_corrupt;
    if (auto* l = listeners_[ri]; l != nullptr)
      l->on_rx_end(tx_id, tx.frame, clean);
  }
}

std::int64_t Channel::live_arrivals() const {
  std::int64_t total = 0;
  for (const auto& list : lists_)
    total += static_cast<std::int64_t>(list.arrivals.size());
  return total;
}

void Channel::abort_tx_of(net::NodeId src) {
  BCP_REQUIRE(src >= 0 && src < graph().node_count());
  BCP_REQUIRE_MSG(stripe_.owns(src),
                  "abort of a node another shard owns");
  const std::uint64_t tx_id = transmitting_[stripe_.local(src)];
  if (tx_id == 0) return;
  // Truncation corrupts the frame for every hearer this shard feeds
  // (remote hearers got their own copy of the frame in their shard)…
  for (const net::NodeId r : graph().neighbors(src)) {
    if (!stripe_.owns(r)) continue;
    const std::uint32_t lease = lease_[stripe_.local(r)];
    if (lease == kNoSlot) continue;
    for (auto& a : lists_[lease].arrivals)
      if (a.tx_id == tx_id) a.clean = false;
  }
  // …and the carrier dies with the node: finish the transmission NOW so
  // its interference contribution and medium occupancy end at the abort
  // time, not at the originally scheduled rx_end. finish_tx delivers the
  // (corrupt) rx_end to every hearer exactly once, keeping the
  // rx_starts == deliveries + live conservation law intact; the pending
  // completion event must die first or it would double-finish a recycled
  // slot.
  const auto slot = static_cast<std::uint32_t>(tx_id);
  sim_.cancel(tx_slots_[slot].finish_event);
  finish_tx(tx_id);
}

bool Channel::busy_at(net::NodeId node) const {
  BCP_REQUIRE(node >= 0 && node < graph().node_count());
  BCP_REQUIRE_MSG(stripe_.owns(node),
                  "carrier sense at a node another shard owns");
  const std::size_t i = stripe_.local(node);
  return transmitting_[i] != 0 || lease_[i] != kNoSlot;
}

util::Seconds Channel::clear_at(net::NodeId node) const {
  BCP_REQUIRE(node >= 0 && node < graph().node_count());
  BCP_REQUIRE_MSG(stripe_.owns(node),
                  "carrier sense at a node another shard owns");
  const std::size_t i = stripe_.local(node);
  util::Seconds t = sim_.now();
  if (transmitting_[i] != 0) t = std::max(t, own_tx(i).end);
  // Every arrival already removed ended at or before now, so the running
  // max is exact for the live set once clamped to now.
  return std::max(t, arrival_max_end_[i]);
}

}  // namespace bcp::phy
