// Broadcast radio medium with a disc propagation model.
//
// Semantics:
//  * Every node within `range` of a transmitter hears the frame (gets
//    on_rx_start / on_rx_end callbacks); whether its radio does anything
//    with it is the radio's business.
//  * A frame is delivered **clean** to a hearer unless (a) it overlapped
//    any other transmission audible at that hearer (collision — resolved
//    by the all-overlaps-corrupt rule by default, or by SINR with capture
//    when Params::capture is enabled: the strongest frame survives a
//    collision it dominates), (b) the hearer itself transmitted during the
//    frame (half-duplex), or (c) an independent Bernoulli(frame_loss_prob)
//    trial fails (fading/noise stand-in).
//  * Carrier sense (`busy_at`) reflects what a node can hear, including its
//    own transmission. Sensing range equals reception range; nodes farther
//    apart are hidden terminals from each other — the grid scenarios rely
//    on this to reproduce the paper's multi-hop contention losses.
//  * Propagation delay is ignored (< 1 us at the 40-300 m scales simulated;
//    three orders of magnitude below every MAC timing constant).
//
// The two radio classes of §4.1 "are assumed to be operating in
// non-overlapping channels": instantiate one Channel per radio class.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/link_state.hpp"
#include "net/topology.hpp"
#include "phy/frame.hpp"
#include "phy/propagation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bcp::phy {

class ChannelListener {
 public:
  virtual ~ChannelListener() = default;
  /// A frame started arriving; `tx_id` identifies it through to rx_end.
  virtual void on_rx_start(std::uint64_t tx_id, const Frame& frame,
                           util::Seconds duration) = 0;
  /// The frame finished; `clean` per the rules above.
  virtual void on_rx_end(std::uint64_t tx_id, const Frame& frame,
                         bool clean) = 0;
};

class Channel {
 public:
  /// SINR-based reception with capture effect. Disabled (the default),
  /// collisions follow the historical all-overlaps-corrupt rule and the
  /// channel's behaviour is bit-for-bit unchanged — same RNG stream, same
  /// draw count (the golden-protected switch). Enabled, every arrival
  /// carries the rx power its link's propagation model assigns
  /// (PropagationModel::rx_power_dbm), the channel tracks the *peak*
  /// concurrent interference each arrival experiences, and an OVERLAPPED
  /// frame is delivered clean iff its worst-case SINR clears the
  /// threshold:
  ///     rx_power >= 10^(threshold_db/10) · (noise + peak_interference)
  /// — the strongest frame survives a collision it dominates, weaker
  /// overlaps still corrupt. Collision-free frames are untouched (their
  /// noise/SNR story is already the propagation model's PER — no double
  /// jeopardy), and half-duplex plus the Bernoulli losses apply unchanged
  /// on top.
  struct CaptureParams {
    bool enabled = false;
    /// SINR required to decode, in dB; must be finite. At >= 0 dB the
    /// usual capture contract holds: at most one frame survives a
    /// collision (the conditions p_a >= m·(N+p_b) and p_b >= m·(N+p_a)
    /// are mutually exclusive for linear m >= 1), so equal-power ties
    /// corrupt both. Negative thresholds are deliberately legal but
    /// change the regime: several overlapping frames can decode at one
    /// receiver — an idealized multi-packet-reception model, useful for
    /// leniency sweeps, not a physical single-antenna radio.
    double threshold_db = 10.0;
    /// Receiver noise power. Must convert to a positive, finite noise
    /// power (NaN / ±inf are rejected — -inf dBm would be a zero-noise
    /// receiver, which turns the SINR into a division-free comparison the
    /// validation keeps honest instead).
    double noise_floor_dbm = -100.0;
  };

  struct Params {
    /// Extra independent Bernoulli loss per (frame, hearer), in [0, 1],
    /// composed with whatever the propagation model says per link.
    double frame_loss_prob = 0.0;
    /// Link-quality model; the UnitDisc default is bit-for-bit the
    /// historical single-knob channel.
    PropagationSpec propagation;
    /// Collision resolution; see CaptureParams.
    CaptureParams capture;

    Params() = default;
    Params(double loss) : frame_loss_prob(loss) {}  // NOLINT(google-explicit-constructor)
    Params(double loss, PropagationSpec prop)
        : frame_loss_prob(loss), propagation(std::move(prop)) {}
  };

  struct Stats {
    std::int64_t frames = 0;             ///< transmissions started
    std::int64_t rx_starts = 0;          ///< per-hearer on_rx_start calls
    std::int64_t deliveries_clean = 0;   ///< per-hearer clean deliveries
    std::int64_t deliveries_corrupt = 0; ///< per-hearer corrupted deliveries
  };

  // ---- Sharded operation (sim/sharded_simulator.hpp) ----
  //
  // A sharded run partitions the node plane: each shard owns one Channel
  // over the *shared* full graph but only delivers to nodes it owns.
  // A transmission whose hearer set crosses a shard edge is exported once
  // per remote shard as a RemoteFrame (payload deep-copied — pooled
  // MessageRefs are thread-local and must never cross shards) and
  // re-enacted in the destination shard by inject_remote at the next
  // window drain.

  /// A boundary frame crossing to another shard. `frame.message` is
  /// detached; the payload (if any) travels by value and is re-pooled on
  /// the destination shard's thread at injection.
  struct RemoteFrame {
    net::NodeId src = net::kInvalidNode;
    Frame frame;
    net::Message payload;
    bool has_payload = false;
    util::Seconds start = 0;
    util::Seconds end = 0;
  };
  using BoundaryEmit =
      std::function<void(std::int32_t dst_shard, RemoteFrame&& rf)>;

  /// Makes a channel one shard of a partitioned medium: local deliveries
  /// are restricted to the ids `stripe` owns, and every transmission
  /// heard by other shards is handed to `emit` (once per destination
  /// shard). The per-node arrays are sized to the stripe's population and
  /// indexed by its local slots, so a partition's node-indexed memory is
  /// O(n/shards), not O(n) (the shared read-only graph stays global). A
  /// default spec (the whole-network stripe) is an unsharded channel.
  /// Composes with set_link_state: attach the shard's own LinkState
  /// replica and both the local hearer loop and remote-frame replay
  /// consult it.
  struct ShardingSpec {
    net::Stripe stripe;
    std::int32_t shard_count = 0;
    BoundaryEmit emit;
  };

  Channel(sim::Simulator& sim, std::vector<net::Position> positions,
          util::Metres range, Params params, std::uint64_t seed);

  /// Shared-graph constructor: several channel partitions of one sharded
  /// run (or any other co-located consumers) reuse a single connectivity
  /// graph instead of rebuilding O(n + e) adjacency per partition.
  Channel(sim::Simulator& sim,
          std::shared_ptr<const net::ConnectivityGraph> graph, Params params,
          std::uint64_t seed);

  /// One partition of a sharded medium (see ShardingSpec).
  Channel(sim::Simulator& sim,
          std::shared_ptr<const net::ConnectivityGraph> graph, Params params,
          std::uint64_t seed, ShardingSpec sharding);

  /// Registers the listener for a node. At most one per node.
  void attach(net::NodeId node, ChannelListener* listener);

  /// Puts a frame on the air for `duration` seconds. The transmitter must
  /// not already be transmitting.
  void start_tx(net::NodeId src, const Frame& frame, util::Seconds duration);

  /// True if `node` can hear any ongoing transmission (or is transmitting).
  bool busy_at(net::NodeId node) const;

  /// Earliest time at which everything `node` currently hears (including
  /// its own transmission) has ended; now() if the channel is clear.
  util::Seconds clear_at(net::NodeId node) const;

  bool in_range(net::NodeId a, net::NodeId b) const {
    return graph().connected(a, b);
  }

  /// The disc connectivity graph the channel propagates over. Routing for
  /// the same radio class builds on this instead of re-deriving an
  /// identical graph from the positions.
  const net::ConnectivityGraph& graph() const { return *graph_; }

  int node_count() const { return graph().node_count(); }

  /// Dense per-node slots actually allocated: node_count() for an
  /// unsharded channel, the owned stripe's population for a partition —
  /// the white-box memory-model assertion the sharded tests pin.
  std::size_t node_slots() const { return listeners_.size(); }

  const Stats& stats() const { return stats_; }

  /// Arrivals currently on the air (rx_start delivered, rx_end pending)
  /// summed over all hearers — with stats(), the exact conservation law
  /// rx_starts == deliveries_clean + deliveries_corrupt + live_arrivals().
  std::int64_t live_arrivals() const;

  /// Arrival lists the channel has created. A hearer leases one only
  /// while it has a frame on the air, so this is the peak number of
  /// hearers busy at once, not the node count.
  std::size_t arrival_lists() const { return lists_.size(); }

  /// The propagation model delivery draws against (never null).
  const PropagationModel& propagation() const { return *model_; }

  /// Attaches dynamic link/node availability (nullptr detaches). While a
  /// link (or either endpoint) is down, new frames are not heard across
  /// it; frames already in flight complete normally. Not owned; must
  /// outlive the channel while attached. On a sharded channel this is the
  /// shard's own LinkState *replica*: exact for nodes the shard owns,
  /// stale by at most one exchange window for remote nodes (membership
  /// deltas arrive at window barriers). Both sides mask: a transmitter
  /// skips the export when its replica has the remote hearer down, and
  /// begin_remote re-checks the receiving shard's replica.
  void set_link_state(const net::LinkState* links) { links_ = links; }

  /// Re-enacts a frame exported by a neighboring shard. A frame whose
  /// start is still in this shard's future is replayed with its exact
  /// original timing; one already begun (late by less than the exchange
  /// window) is begun now over its true [start, end) interval — collision
  /// marking uses real air-time overlap, so a late frame only corrupts
  /// (and is corrupted by) transmissions it genuinely shared the air
  /// with. A frame that already ended delivers rx_start and rx_end
  /// back-to-back. Remote frames never count toward stats().frames (the
  /// origin shard counted the transmission); their arrivals land in
  /// rx_starts/deliveries/live as usual, so the per-shard conservation
  /// law rx_starts == rx_ends + live still holds exactly.
  void inject_remote(RemoteFrame rf);

  /// Boundary frames this shard exported (0 when sharding is off).
  std::int64_t boundary_exports() const { return boundary_exports_; }

  /// Crash support: the node's in-flight transmission (if any) is
  /// truncated mid-air — corrupt for every hearer, and the carrier dies
  /// *now*: hearers get their rx_end at the abort time, the medium and
  /// the frame's interference contribution end here rather than at the
  /// originally scheduled rx_end, and the scheduled completion event is
  /// cancelled. rx_start/rx_end/live conservation holds through the early
  /// teardown (every started arrival is delivered, exactly once, as
  /// corrupt).
  void abort_tx_of(net::NodeId src);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Arrival {
    std::uint64_t tx_id;
    /// Non-SINR verdict: Bernoulli loss + half-duplex + abort. In capture
    /// mode overlap does NOT clear it; the SINR test at rx_end composes
    /// on top (so a frame corrupted N ways is still counted exactly once).
    bool clean;
    util::Seconds end;
    // Capture mode only (zero otherwise): this link's rx power and the
    // running max of the concurrent interference sum (all other live
    // arrival powers at this hearer) observed over the frame's lifetime.
    double rx_power_mw = 0.0;
    double peak_interference_mw = 0.0;
    /// True air start — late-injected remote frames test real interval
    /// overlap against it (local frames start at their rx_start instant).
    util::Seconds start = 0.0;
  };

  struct Transmission {
    net::NodeId src = net::kInvalidNode;
    Frame frame;
    util::Seconds end = 0;
    util::Seconds start = 0;
    /// Injected from another shard: src is not owned here, so the
    /// transmitter-side bookkeeping (transmitting_ mask, stats_.frames,
    /// half-duplex self-corruption) is skipped.
    bool remote = false;
  };

  /// In-flight transmission slot: generation-stamped and free-listed like
  /// the simulator's event slots, so start/finish cycles reuse storage
  /// instead of hashing into a node-allocating map. tx ids pack
  /// (generation << 32 | slot); generation >= 1, so an id is never 0
  /// (0 = "not transmitting" in `transmitting_`).
  struct TxSlot {
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
    Transmission tx;
    /// The scheduled finish_tx event — cancelled by abort_tx_of, which
    /// finishes the transmission early instead.
    sim::Simulator::EventHandle finish_event;
  };

  /// The live arrivals of a busy hearer, with the running sum of their
  /// rx powers in capture mode — an arrival's instantaneous interference
  /// is that sum minus its own power. Leased to a hearer on its first live
  /// arrival and returned, empty and with its capacity kept, when the last
  /// one ends; the sum restarts at exactly 0 with each lease, so
  /// floating-point residue cannot outlive a busy period. Returned lists
  /// are free-listed like the tx slots.
  struct ArrivalList {
    std::vector<Arrival> arrivals;
    double power_mw = 0.0;
    std::uint32_t next_free = kNoSlot;
  };

  void finish_tx(std::uint64_t tx_id);
  std::uint32_t acquire_tx_slot();
  /// The list of the hearer at per-node index `i`, leasing one if it has
  /// none. A new lease can grow lists_ and move every list, so the result
  /// must not be held across another hearer's lease. Inline: every
  /// arrival takes this path.
  ArrivalList& lease_list(std::size_t i) {
    std::uint32_t& lease = lease_[i];
    if (lease == kNoSlot) {
      if (list_free_head_ == kNoSlot) add_list();
      lease = list_free_head_;
      list_free_head_ = lists_[lease].next_free;
    }
    return lists_[lease];
  }
  /// Grows the pool by one list, put on the free list.
  void add_list();
  /// The transmission of the node at per-node index `i`; only valid while
  /// transmitting_[i] is set (its slot stays live until finish_tx clears
  /// the mask).
  const Transmission& own_tx(std::size_t i) const {
    return tx_slots_[static_cast<std::uint32_t>(transmitting_[i])].tx;
  }
  /// Begins a remote frame's reception in this shard: records arrivals at
  /// owned hearers over the true [start, end) interval and schedules (or,
  /// for already-ended frames, performs) the finish.
  void begin_remote(std::uint64_t tx_id);

  sim::Simulator& sim_;
  std::shared_ptr<const net::ConnectivityGraph> graph_;
  Params params_;
  util::Xoshiro256 rng_;
  Stats stats_;
  std::unique_ptr<PropagationModel> model_;
  // UnitDisc fast path: constant loss probability and rx power, no
  // virtual call per hearer (uniform_loss_ caches model_->uniform()).
  bool uniform_loss_ = true;
  double unit_loss_ = 0.0;
  double unit_rx_mw_ = 0.0;
  // Capture mode, resolved once at construction: the linear SINR floor and
  // noise power the per-arrival decision compares against.
  bool capture_ = false;
  double min_sinr_ = 0.0;
  double noise_mw_ = 0.0;
  const net::LinkState* links_ = nullptr;

  std::vector<TxSlot> tx_slots_;
  std::uint32_t tx_free_head_ = kNoSlot;
  std::vector<ChannelListener*> listeners_;
  // Per node: the index in lists_ of its leased arrival list, or kNoSlot
  // while it hears nothing. A leased list holds live arrivals only (each
  // is removed by its finish_tx, and the lease returns with the last), so
  // busy_at tests the lease alone.
  std::vector<std::uint32_t> lease_;
  // The arrival lists, leased or on the free list for the next hearer
  // that needs one.
  std::vector<ArrivalList> lists_;
  std::uint32_t list_free_head_ = kNoSlot;
  // Per node: own tx id or 0. The transmission's start and end are read
  // from its slot (own_tx).
  std::vector<std::uint64_t> transmitting_;

  // Sharded operation (whole-network stripe, no emit, when off). The
  // per-node vectors are indexed by stripe_.local(), valid for owned ids
  // only.
  net::Stripe stripe_;
  BoundaryEmit boundary_emit_;
  std::int64_t boundary_exports_ = 0;
  // start_tx scratch: destination shards of the current frame (deduped).
  std::vector<std::uint8_t> remote_seen_;
  std::vector<std::int32_t> remote_dsts_;
  // Per node: running max of every arrival end ever pushed. Expired
  // arrivals are pruned lazily — entries removed at their end time can
  // only leave a stale max <= now, so clear_at() is an O(1) max instead
  // of a scan. (An abort removes its arrivals early; the stale max then
  // keeps carrier sense conservative until the original end, never
  // optimistic.)
  std::vector<util::Seconds> arrival_max_end_;
};

}  // namespace bcp::phy
