// Sink-coordinated TDMA: collision-free convergecast slotted access.
//
// The sink (slot-schedule coordinator) broadcasts a beacon at the start of
// every superframe; the schedule itself is computed offline from the
// convergecast tree (TdmaSchedule::from_tree) and shared by every node:
//
//   superframe k:  [ beacon | guard | slot 0 | slot 1 | ... | slot S-1 ]
//                  k*P                                            (k+1)*P
//
// Slot weights are TreeMAC-style proportional bandwidth: a node owns one
// slot per wave for each source in its subtree, and waves are ordered
// children-before-parents, so a packet generated at a leaf can cascade
// hop-by-hop to the sink within a single superframe. Inside its slot a
// node waits the guard time, transmits as many queued frames as fit in
// slot_len - 2*guard, and falls silent; there are no acks, no carrier
// sense and no retransmissions — the schedule is the collision control.
//
// Clock sync is beacon-driven. Nodes that hear the coordinator directly
// re-sync every superframe; interior nodes (relay[] in the schedule)
// re-broadcast the beacon at the start of their first slot, which their
// children use for the NEXT superframe (children transmit before parents,
// so the relayed beacon always lands after the child's own slots). Each
// node's clock drifts at a per-node rate bounded by TdmaParams::sync_drift;
// drift accumulated since the last beacon offsets its slot timing, and the
// guard absorbs it iff |drift x elapsed| <= guard — the overlap
// differential the tests pin down. A node whose sync is older than two
// superframes skips its slots without transmitting (missed-beacon rule).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/mac.hpp"
#include "mac/mac_spec.hpp"
#include "net/routing.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sliding_queue.hpp"

namespace bcp::mac {

/// The shared slot map, computed once per radio class from the
/// convergecast tree and handed (by reference) to every TdmaMac.
struct TdmaSchedule {
  net::NodeId coordinator = net::kInvalidNode;
  int slot_count = 0;
  /// Ascending slot indices owned by each node. The sink owns none (it
  /// only beacons); nodes stranded from the sink own none either.
  std::vector<std::vector<int>> slots_of;
  /// True for nodes with tree children — they re-broadcast the beacon.
  std::vector<bool> relay;

  /// Builds the schedule from any Router that can answer tree queries
  /// (hops/next_hop toward `sink`). Deterministic: a pure function of the
  /// routing answers, independent of thread count or call order.
  static TdmaSchedule from_tree(const net::Router& routes, net::NodeId sink,
                                int node_count);
};

class TdmaMac final : public Mac {
 public:
  /// `params` must be resolved (beacon_period > 0; see
  /// TdmaParams::resolved_for). `schedule` is shared and must outlive the
  /// MAC. `seed` draws the node's clock-drift rate. `stats` is the block
  /// the MAC adds into (see Mac::Stats).
  TdmaMac(sim::Simulator& sim, phy::Radio& radio, const TdmaParams& params,
          const TdmaSchedule& schedule, std::uint64_t seed, Stats& stats);

  bool enqueue(net::MessageRef msg, net::NodeId next_hop) override;
  using Mac::enqueue;

  bool idle() const override { return queue_.empty() && !current_; }
  std::size_t queue_size() const override {
    return queue_.size() + (current_ ? 1 : 0);
  }
  const TdmaParams& params() const { return params_; }

  /// True while the node's last-heard beacon still covers upcoming slots.
  bool synced() const;

  void reset_on_crash() override;
  void on_recover() override;

 private:
  struct Outgoing {
    net::MessageRef msg;
    net::NodeId next_hop = net::kInvalidNode;
    util::Bits size_bits = 0;
    std::uint32_t seq = 0;
  };

  void arm_beacon();
  void on_beacon_time();
  void arm_next_slot();
  void on_slot_start();
  void continue_slot();
  void end_slot();
  void finish_current(bool success);
  void on_radio_tx_done() override;
  void on_radio_frame_received(const phy::Frame& frame) override;
  util::Seconds ideal_data_start(std::uint64_t superframe, int slot) const;
  util::Seconds airtime(util::Bits payload_bits) const;

  sim::Simulator& sim_;
  phy::Radio& radio_;
  TdmaParams params_;
  const TdmaSchedule& schedule_;

  bool is_coordinator_ = false;
  bool relay_ = false;
  std::vector<int> my_slots_;       ///< ascending slot indices
  double drift_rate_ = 0;           ///< signed s-per-s clock error
  util::Seconds data_budget_ = 0;   ///< slot_len - 2*guard

  util::SlidingQueue<Outgoing> queue_;
  std::optional<Outgoing> current_; ///< popped head, mid-slot
  std::uint32_t next_seq_ = 1;

  // Coordinator side.
  std::uint64_t next_beacon_seq_ = 0;
  sim::Simulator::EventHandle beacon_timer_;

  // Member side: sync + the single armed slot.
  bool ever_synced_ = false;
  std::uint64_t sync_superframe_ = 0;
  util::Seconds sync_time_ = 0;
  sim::Simulator::EventHandle slot_timer_;
  std::uint64_t pending_superframe_ = 0;
  bool pending_first_ = false;      ///< armed slot is my first this superframe
  bool in_slot_ = false;
  util::Seconds slot_end_ = 0;      ///< data window end, node clock
  bool tx_is_beacon_ = false;
};

}  // namespace bcp::mac
