// The MAC seam the node assemblies program against.
//
// Two families implement it: CsmaCaMac (contention access — B-MAC-style
// sensor CSMA and 802.11 DCF, one engine) and TdmaMac (sink-coordinated
// collision-free slotted access). The node assemblies (app/nodes.hpp)
// hold `Mac&`/`unique_ptr<Mac>` and never name a concrete family; which
// one a scenario runs is a MacSpec decision (mac/mac_spec.hpp).
//
// The seam covers exactly what the assemblies use:
//   * enqueue toward a next hop (broadcast allowed), with tail-drop;
//   * the MacHost upcalls (rx and tx-done) the forwarding and BCP layers
//     implement;
//   * the radio's link observer (phy::RadioLink): a MAC is the link its
//     radio reports to;
//   * crash teardown (reset_on_crash) and recovery (on_recover), so
//     FaultPlan churn works for any family;
//   * the Stats block, including crash accounting. A MAC adds into a block
//     it does not own: the scenario gives every MAC of a radio class in a
//     partition the same block, since the run only ever reads the sums.
#pragma once

#include <cstdint>

#include "net/message.hpp"
#include "net/message_ref.hpp"
#include "phy/radio.hpp"

namespace bcp::mac {

class Mac;

/// The node a MAC serves. Both upcalls name the MAC, so one host can own
/// several.
class MacHost {
 public:
  /// A clean frame delivered to this node.
  virtual void on_mac_rx(Mac& mac, const net::Message& msg,
                         net::NodeId from) = 0;
  /// A frame left the MAC: sent successfully, or dropped (retries
  /// exhausted, no slot schedule, radio down).
  virtual void on_mac_tx_done(Mac& mac, const net::Message& msg,
                              net::NodeId next_hop, bool success) = 0;

 protected:
  ~MacHost() = default;
};

class Mac : public phy::RadioLink {
 public:
  /// Counters of every family. Integers only, so MACs may share a block
  /// and its totals are the per-MAC sums.
  struct Stats {
    std::int64_t enqueued = 0;
    std::int64_t queue_drops = 0;    ///< tail drops (queue full)
    std::int64_t tx_attempts = 0;    ///< data frame transmissions started
    std::int64_t tx_success = 0;     ///< frames delivered to the link layer
    std::int64_t tx_failed = 0;      ///< frames given up on
    std::int64_t crash_drops = 0;    ///< frames lost to reset_on_crash
    std::int64_t crash_resets = 0;   ///< reset_on_crash invocations
    std::int64_t rx_delivered = 0;
    std::int64_t rx_duplicates = 0;
    // Contention access (CsmaCaMac) only.
    std::int64_t acks_sent = 0;
    std::int64_t acks_suppressed = 0;///< radio busy at ack time
    // Slotted access (TdmaMac) only.
    std::int64_t beacons_sent = 0;
    std::int64_t beacons_heard = 0;
    /// Slots that passed untransmitted because the last beacon was too old
    /// (missed-beacon rule) — the node stayed silent rather than risk a
    /// collision on a schedule it can no longer trust.
    std::int64_t slots_skipped_unsynced = 0;
    /// Frames dropped because their airtime exceeds the slot data budget.
    std::int64_t oversize_drops = 0;
  };

  /// `stats` is the block this MAC adds into; it must outlive the MAC.
  explicit Mac(Stats& stats) : stats_(&stats) {}
  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;
  virtual ~Mac() = default;

  /// Queues a message for `next_hop` (net::kBroadcastNode for broadcast).
  /// Returns false (and counts a drop) when the queue is full. The ref
  /// form is the hot path: the queue, the frame on the air and every
  /// hearer share one pooled payload.
  virtual bool enqueue(net::MessageRef msg, net::NodeId next_hop) = 0;
  bool enqueue(net::Message msg, net::NodeId next_hop) {
    return enqueue(net::make_message(std::move(msg)), next_hop);
  }

  /// Attaches the node the upcalls go to (nullptr detaches). Not owned.
  void set_host(MacHost* host) { host_ = host; }

  /// True when nothing is queued or in flight.
  virtual bool idle() const = 0;
  virtual std::size_t queue_size() const = 0;
  /// The block this MAC adds into (shared with its radio-class peers in a
  /// scenario run).
  const Stats& stats() const { return *stats_; }

  /// Crash reset: cancels every pending timer and silently discards all
  /// state — queued frames (their pooled payload refs included) and any
  /// in-progress transmit cycle. No tx_done upcalls fire: the owner is
  /// crashing, and its upper layers are being reset with it. Counted in Stats::crash_drops/crash_resets.
  virtual void reset_on_crash() = 0;

  /// Node recovery hook, called after the owner powers its radio back on.
  /// Contention MACs need nothing (the next enqueue restarts the cycle);
  /// schedule-driven MACs re-arm their clocks (the TDMA coordinator
  /// resumes beaconing, members wait to re-sync).
  virtual void on_recover() {}

 protected:
  void deliver_up(const net::Message& msg, net::NodeId from) {
    if (host_ != nullptr) host_->on_mac_rx(*this, msg, from);
  }
  void report_tx_done(const net::Message& msg, net::NodeId next_hop,
                      bool success) {
    if (host_ != nullptr) host_->on_mac_tx_done(*this, msg, next_hop, success);
  }

  Stats* stats_;

 private:
  MacHost* host_ = nullptr;
};

}  // namespace bcp::mac
