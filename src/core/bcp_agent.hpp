// The Bulk Communication Protocol agent — the paper's §3.
//
// Sender side:
//   * Data packets from the routing layer are buffered per next hop
//     (BulkBuffer); control packets bypass buffering over the low radio.
//   * When a next hop's queue passes the α·s* threshold, a WAKEUP carrying
//     the burst size is sent over the low-power radio (multi-hop if the
//     high-power next hop is farther than one low-radio hop).
//   * The sender keeps its own high-power radio OFF while waiting for the
//     WAKEUP-ACK; on timeout the wake-up is resent, a bounded number of
//     times. The ack carries the receiver's grant; the sender then powers
//     its radio, assembles the granted packets into high-radio frames and
//     ships them.
// Receiver side:
//   * On WAKEUP: grant min(requested, free buffer) — or stay silent when
//     full; power the radio; ack; time out if no data arrives.
//   * Frames are disassembled into the original packets: packets for this
//     node are delivered, others re-enter the buffer toward their own next
//     hop (which is how bursts propagate hop-by-hop in the SH scenario).
//   * The radio turns off as soon as the advertised frame count arrived or
//     a timeout fired.
// The high-power radio is shared by all concurrent sessions through a
// keep-alive count; it powers off (after a short linger for in-flight link
// acks) when the last session ends.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/bcp_config.hpp"
#include "core/bcp_host.hpp"
#include "core/bcp_observer.hpp"
#include "core/bulk_buffer.hpp"
#include "net/message.hpp"
#include "util/flat_map.hpp"

namespace bcp::core {

class BcpAgent {
 public:
  /// Protocol counters. Integers only, so agents may share a block (a
  /// scenario partition gives all its agents one) and its totals are the
  /// per-agent sums.
  struct Stats {
    std::int64_t packets_buffered = 0;
    std::int64_t packets_dropped_buffer_full = 0;
    std::int64_t packets_dropped_no_route = 0;
    std::int64_t packets_delivered = 0;   ///< final destination was here
    std::int64_t packets_forwarded = 0;   ///< re-buffered toward next hop
    std::int64_t wakeups_sent = 0;
    std::int64_t wakeup_retries = 0;
    std::int64_t acks_sent = 0;
    std::int64_t acks_suppressed_full = 0;///< buffer full -> silent (§3)
    std::int64_t handshakes_failed = 0;   ///< no ack after all retries
    std::int64_t sender_sessions_completed = 0;
    std::int64_t receiver_sessions_completed = 0;
    std::int64_t receiver_sessions_timed_out = 0;
    std::int64_t frames_sent = 0;
    std::int64_t frames_send_failed = 0;
    std::int64_t frames_received = 0;
    std::int64_t shortcuts_learned = 0;
    std::int64_t deadline_flushes = 0;      ///< kFlushHigh deadline firings
    std::int64_t packets_sent_low = 0;      ///< kFallbackLow data over the
                                            ///< low-power radio
    std::int64_t crashes = 0;               ///< crash() invocations
    std::int64_t packets_lost_to_crash = 0; ///< buffered data lost at crash
  };

  /// `config` is the run's shared configuration, read in place: it must
  /// outlive the agent (a temporary is rejected). `stats` is the block the
  /// agent adds into; it must outlive the agent too.
  BcpAgent(BcpHost& host, const BcpConfig& config, Stats& stats);
  BcpAgent(BcpHost&, const BcpConfig&&, Stats&) = delete;

  BcpAgent(const BcpAgent&) = delete;
  BcpAgent& operator=(const BcpAgent&) = delete;

  /// Attaches a protocol-event observer (nullptr detaches). Not owned;
  /// must outlive the agent while attached.
  void set_observer(BcpObserver* observer) { observer_ = observer; }

  // ---- Interface to routing (sender side, §3) ----

  /// A data packet to move toward packet.destination. Buffers it (or
  /// delivers it if the destination is this node).
  void submit(net::DataPacket packet);

  /// Starts a handshake toward `next_hop` even below the α·s* threshold
  /// (no-op if nothing is buffered or a session is already active). Lets an
  /// application trade energy for delay, e.g. to drain the buffer at the
  /// end of an experiment or under a deadline (§5 future work).
  void flush(net::NodeId next_hop);

  /// flush() toward every next hop with buffered data.
  void flush_all();

  /// Crash reset (fault injection): cancels every pending host timer —
  /// handshake acks, receiver data timeouts, cooldowns, buffering
  /// deadlines, the radio-off linger — abandons all sessions, discards
  /// the buffer (volatile RAM) and learned shortcuts, and zeroes the
  /// radio hold count. No protocol messages are sent; peers discover the
  /// crash through their own timeouts. The host is expected to reset its
  /// MACs and force its radios off around this call.
  void crash();

  // ---- Interface to the MACs (host upcalls) ----

  /// A low-radio message addressed to this node (wake-up handshake).
  void on_low_message(const net::Message& msg);

  /// A high-radio bulk frame addressed to this node.
  void on_bulk_frame(const net::BulkFrame& frame);

  /// The high-power radio finished its off->on transition.
  void on_high_radio_ready();

  /// A bulk frame overheard in promiscuous mode (route-shortcut learning,
  /// §3; only wired when config.enable_shortcuts).
  void on_bulk_frame_overheard(const net::BulkFrame& frame);

  // ---- Introspection ----

  const BulkBuffer& buffer() const { return buffer_; }
  /// The block this agent adds into (shared in a scenario run).
  const Stats& stats() const { return *stats_; }
  const BcpConfig& config() const { return config_; }
  bool has_sender_session(net::NodeId peer) const {
    return sender_sessions_.count(peer) != 0;
  }
  bool has_receiver_session(net::NodeId peer) const {
    return receiver_sessions_.count(peer) != 0;
  }
  int radio_hold_count() const { return radio_holds_; }
  /// The learned shortcut next hop toward `dest`, if any.
  std::optional<net::NodeId> shortcut_for(net::NodeId dest) const;

 private:
  struct SenderSession {
    enum class State { kWaitAck, kWaking, kTransferring };
    State state = State::kWaitAck;
    std::uint32_t handshake_id = 0;
    net::NodeId peer = net::kInvalidNode;
    int wakeup_attempts = 0;
    util::Bits offered_bits = 0;
    std::vector<net::BulkFrame> frames;
    std::size_t next_frame = 0;
    BcpHost::TimerId ack_timer = BcpHost::kInvalidTimer;
    bool holds_radio = false;
  };

  struct ReceiverSession {
    enum class State { kWaitData, kReceiving };
    State state = State::kWaitData;
    std::uint32_t handshake_id = 0;
    net::NodeId peer = net::kInvalidNode;
    util::Bits granted_bits = 0;     ///< outstanding buffer commitment
    std::uint16_t frames_received = 0;
    std::optional<std::uint16_t> frames_total;
    BcpHost::TimerId data_timer = BcpHost::kInvalidTimer;
  };

  // Sender path.
  void maybe_start_handshake(net::NodeId next_hop, bool force = false);
  // Delay-constrained buffering (§5 future work).
  void schedule_deadline(net::NodeId next_hop, util::Seconds delay);
  void arm_deadline(net::NodeId next_hop);
  void on_deadline(net::NodeId next_hop);
  void send_wakeup(net::NodeId peer);
  void on_wakeup_ack(const net::WakeupAck& ack);
  void on_ack_timeout(net::NodeId peer);
  void abandon_handshake(net::NodeId peer);
  void begin_transfer(SenderSession& s, util::Bits granted);
  void send_next_frame(net::NodeId peer);
  void finish_sender_session(net::NodeId peer);

  // Receiver path.
  void on_wakeup_request(const net::WakeupRequest& req);
  void send_wakeup_ack(const ReceiverSession& r);
  void on_receiver_timeout(net::NodeId peer);
  void finish_receiver_session(net::NodeId peer, SessionEnd how);

  // Shared radio management.
  void acquire_radio();
  void release_radio();

  net::NodeId route_next_hop(net::NodeId dest) const;
  util::Bits grantable_bits() const;

  BcpHost& host_;
  const BcpConfig& config_;
  BulkBuffer buffer_;
  Stats* stats_;
  BcpObserver* observer_ = nullptr;

  std::uint32_t next_handshake_id_ = 1;
  // Keyed by peer (or next hop). Flat maps: host calls can re-enter the
  // agent and insert or erase, so no reference into one is held across a
  // host call — entries are looked up again by key.
  util::FlatMap<net::NodeId, SenderSession> sender_sessions_;
  util::FlatMap<net::NodeId, ReceiverSession> receiver_sessions_;
  /// Next hops under post-failure cooldown, with the retry timer.
  util::FlatMap<net::NodeId, BcpHost::TimerId> cooldowns_;
  /// One pending buffering-deadline timer per next hop (delay policy).
  util::FlatMap<net::NodeId, BcpHost::TimerId> deadline_timers_;
  /// Sum of outstanding receiver grants, reserved against the buffer.
  util::Bits committed_bits_ = 0;
  int radio_holds_ = 0;
  BcpHost::TimerId radio_off_timer_ = BcpHost::kInvalidTimer;
  util::FlatMap<net::NodeId, net::NodeId> shortcuts_;  // dest -> next hop
  /// Bumped by crash(); untracked timers (the shortcut-listen linger)
  /// capture it and no-op when stale instead of firing into reset state.
  std::uint64_t epoch_ = 0;
};

}  // namespace bcp::core
