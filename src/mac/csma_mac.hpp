// CSMA/CA MAC with link-layer acknowledgments and retransmissions.
//
// One frame is in flight at a time. The transmit cycle:
//   head of queue -> [DIFS + U(0, CW) slots] -> carrier sense ->
//   (busy: re-arm at channel-clear + fresh backoff) ->
//   transmit -> (broadcast: done) ->
//   wait SIFS + ack airtime + guard -> ack? success : retry with
//   (optionally doubled) CW, up to retry_limit, then report failure.
//
// The backoff approximation: instead of freezing the slot countdown while
// the medium is busy (as real DCF does), a busy medium at expiry re-arms a
// fresh backoff after the medium clears. This preserves what the study
// measures — collision probability under contention, exponential penalty
// after losses — at a fraction of the event load.
//
// Receive side: clean unicast frames are acked after SIFS (unless the radio
// is mid-transmission, in which case the sender will time out and retry).
// Duplicates — retransmissions whose ack was lost — are re-acked but
// delivered only once, using a per-neighbour highest-seq filter.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac.hpp"
#include "mac/mac_params.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/sliding_queue.hpp"

namespace bcp::mac {

class CsmaCaMac final : public Mac {
 public:
  /// `params` is the radio class's shared parameter set, read in place:
  /// it must outlive the MAC (a temporary is rejected). `stats` is the
  /// block the MAC adds into (see Mac::Stats).
  CsmaCaMac(sim::Simulator& sim, phy::Radio& radio, const MacParams& params,
            std::uint64_t seed, Stats& stats);
  CsmaCaMac(sim::Simulator&, phy::Radio&, const MacParams&&, std::uint64_t,
            Stats&) = delete;

  /// Queues a message for `next_hop` (net::kBroadcastNode for broadcast).
  /// Returns false (and counts a drop) when the queue is full.
  bool enqueue(net::MessageRef msg, net::NodeId next_hop) override;
  using Mac::enqueue;

  /// True when nothing is queued or in flight.
  bool idle() const override { return queue_.empty() && !in_flight_; }
  std::size_t queue_size() const override { return queue_.size(); }
  const MacParams& params() const { return params_; }

  /// Crash reset: cancels every pending timer and silently discards all
  /// state — queued frames (their pooled payload refs included), pending
  /// acks, the in-flight cycle, and the duplicate-suppression history (a
  /// rebooted node forgets what it delivered). No tx_done upcalls fire:
  /// the owner is crashing, and its upper layers are being reset with it. Counted in Stats::crash_drops/crash_resets.
  void reset_on_crash() override;

 private:
  struct Outgoing {
    net::MessageRef msg;
    net::NodeId next_hop = net::kInvalidNode;
    util::Bits size_bits = 0;  // msg->size_bits(), computed once at enqueue
    int attempts = 0;       // transmissions performed
    int cw = 0;             // current contention window
    std::uint32_t seq = 0;  // assigned at first transmission; 0 = unassigned
  };

  void start_cycle();                 // arm backoff for the head frame
  void arm_backoff(util::Seconds extra_wait);
  void on_backoff_expired();
  void transmit_head();
  void on_radio_tx_done() override;
  void on_ack_timeout();
  void arm_ack_tx();  // put the head pending ack on the air after SIFS
  void on_ack_tx_time();
  void on_radio_frame_received(const phy::Frame& frame) override;
  void finish_head(bool success);
  util::Seconds ack_duration() const;
  phy::Frame make_data_frame(const Outgoing& out) const;
  std::uint32_t& delivered_seq(net::NodeId from);

  sim::Simulator& sim_;
  phy::Radio& radio_;
  const MacParams& params_;
  util::Xoshiro256 rng_;

  util::SlidingQueue<Outgoing> queue_;
  bool in_flight_ = false;        // head frame mid-cycle (backoff/tx/ack)
  bool awaiting_ack_ = false;
  bool tx_is_ack_ = false;        // current radio transmission is an ack
  std::uint32_t next_seq_ = 1;
  sim::Simulator::EventHandle backoff_timer_;
  sim::Simulator::EventHandle ack_timer_;
  // Highest seq delivered per neighbour, for duplicate suppression. A
  // node hears a handful of neighbours, so a flat list beats a hash map.
  struct DeliveredSeq {
    net::NodeId from;
    std::uint32_t seq;
  };
  std::vector<DeliveredSeq> delivered_seq_;
  // Pending ack (serialized through the single radio).
  struct PendingAck {
    net::NodeId to;
    std::uint32_t seq;
  };
  util::SlidingQueue<PendingAck> pending_acks_;
  sim::Simulator::EventHandle ack_tx_timer_;
};

}  // namespace bcp::mac
