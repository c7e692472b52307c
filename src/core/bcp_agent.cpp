#include "core/bcp_agent.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace bcp::core {

namespace {

/// Packs `packets` into BulkFrames of at most `frame_payload_bits` payload
/// each, stamping sender/receiver/handshake and index/total.
std::vector<net::BulkFrame> assemble_frames(
    std::vector<net::DataPacket> packets, net::NodeId sender,
    net::NodeId receiver, std::uint32_t handshake_id,
    util::Bits frame_payload_bits) {
  std::vector<net::BulkFrame> frames;
  net::BulkFrame current;
  util::Bits used = 0;
  const auto flush = [&] {
    if (!current.packets.empty()) {
      current.cache_payload_bits();  // summed once here, O(1) ever after
      frames.push_back(std::move(current));
      current = net::BulkFrame{};
      used = 0;
    }
  };
  for (std::size_t i = 0; i < packets.size(); ++i) {
    net::DataPacket& p = packets[i];
    if (used + p.payload_bits > frame_payload_bits && used > 0) flush();
    // One allocation per frame: bound this frame's packet count by what's
    // left of the burst (frames are usually much smaller than that, but
    // over-reserving a short-lived burst vector beats re-growing it).
    if (current.packets.empty()) current.packets.reserve(packets.size() - i);
    used += p.payload_bits;
    current.packets.push_back(std::move(p));
  }
  flush();
  const auto total = static_cast<std::uint16_t>(frames.size());
  for (std::uint16_t i = 0; i < total; ++i) {
    frames[i].sender = sender;
    frames[i].receiver = receiver;
    frames[i].handshake_id = handshake_id;
    frames[i].index = i;
    frames[i].total = total;
  }
  return frames;
}

}  // namespace

BcpAgent::BcpAgent(BcpHost& host, const BcpConfig& config)
    : host_(host),
      config_(config),
      buffer_(config.buffer_capacity_bits) {
  config_.validate();
}

std::optional<net::NodeId> BcpAgent::shortcut_for(net::NodeId dest) const {
  const auto it = shortcuts_.find(dest);
  if (it == shortcuts_.end()) return std::nullopt;
  return it->second;
}

net::NodeId BcpAgent::route_next_hop(net::NodeId dest) const {
  if (config_.enable_shortcuts) {
    const auto it = shortcuts_.find(dest);
    if (it != shortcuts_.end()) return it->second;
  }
  return host_.high_next_hop(dest);
}

util::Bits BcpAgent::grantable_bits() const {
  const util::Bits free = buffer_.free_bits() - committed_bits_;
  return std::max<util::Bits>(free, 0);
}

// ---------------------------------------------------------------- sender --

void BcpAgent::submit(net::DataPacket packet) {
  BCP_REQUIRE(packet.payload_bits > 0);
  if (packet.destination == host_.self()) {
    ++stats_.packets_delivered;
    host_.deliver(packet);
    return;
  }
  const net::NodeId next_hop = route_next_hop(packet.destination);
  if (next_hop == net::kInvalidNode) {
    ++stats_.packets_dropped_no_route;
    host_.packet_dropped(packet, "no-route");
    return;
  }
  BCP_ENSURE(next_hop != host_.self());
  if (!buffer_.push(next_hop, packet)) {
    ++stats_.packets_dropped_buffer_full;
    host_.packet_dropped(packet, "buffer-full");
    return;
  }
  ++stats_.packets_buffered;
  if (observer_) observer_->on_packet_buffered(host_.now(), next_hop, packet);
  if (config_.delay_policy != DelayPolicy::kUnbounded)
    arm_deadline(next_hop);
  maybe_start_handshake(next_hop);
}

void BcpAgent::schedule_deadline(net::NodeId next_hop,
                                 util::Seconds delay) {
  if (deadline_timers_.count(next_hop) != 0) return;  // already pending
  deadline_timers_.emplace(
      next_hop, host_.set_timer(delay, [this, next_hop] {
        deadline_timers_.erase(next_hop);
        on_deadline(next_hop);
      }));
}

void BcpAgent::arm_deadline(net::NodeId next_hop) {
  const auto oldest = buffer_.oldest_created_at(next_hop);
  if (!oldest) return;
  schedule_deadline(next_hop,
                    std::max(*oldest + config_.max_buffering_delay -
                                 host_.now(),
                             0.0));
}

void BcpAgent::on_deadline(net::NodeId next_hop) {
  const auto oldest = buffer_.oldest_created_at(next_hop);
  if (!oldest) return;  // drained by a burst in the meantime
  if (*oldest + config_.max_buffering_delay > host_.now()) {
    arm_deadline(next_hop);  // head changed; wait for the new oldest
    return;
  }
  switch (config_.delay_policy) {
    case DelayPolicy::kUnbounded:
      return;
    case DelayPolicy::kFlushHigh:
      // Pay the wake-up for a sub-threshold burst rather than hold data
      // past its deadline. If a session is already moving this queue the
      // flush is a no-op; re-check after a full delay period instead of
      // re-arming on the (already expired) oldest packet, which would
      // spin at the current instant.
      ++stats_.deadline_flushes;
      flush(next_hop);
      schedule_deadline(next_hop, config_.max_buffering_delay);
      return;
    case DelayPolicy::kFallbackLow: {
      // Ship everything already past its deadline over the low-power
      // radio, one routed packet at a time (§5's "send immediately"
      // answer). Unexpired packets keep waiting for the threshold.
      while (true) {
        const auto head = buffer_.oldest_created_at(next_hop);
        if (!head || *head + config_.max_buffering_delay > host_.now())
          break;
        const auto packet = buffer_.pop_front(next_hop);
        BCP_ENSURE(packet.has_value());
        net::Message msg;
        msg.src = host_.self();
        msg.dst = packet->destination;
        msg.body = *packet;
        host_.send_low(net::make_message(std::move(msg)));
        ++stats_.packets_sent_low;
      }
      break;
    }
  }
  arm_deadline(next_hop);
}

void BcpAgent::flush(net::NodeId next_hop) {
  maybe_start_handshake(next_hop, /*force=*/true);
}

void BcpAgent::flush_all() {
  for (const net::NodeId next_hop : buffer_.active_next_hops())
    maybe_start_handshake(next_hop, /*force=*/true);
}

void BcpAgent::maybe_start_handshake(net::NodeId next_hop, bool force) {
  if (sender_sessions_.count(next_hop) != 0) return;
  if (buffer_.buffered_bits(next_hop) <= 0) return;
  if (!force) {
    if (cooldowns_.count(next_hop) != 0) return;
    if (buffer_.buffered_bits(next_hop) < config_.burst_threshold_bits)
      return;
  }
  SenderSession s;
  s.peer = next_hop;
  s.handshake_id = next_handshake_id_++;
  const auto [it, inserted] = sender_sessions_.emplace(next_hop, std::move(s));
  BCP_ENSURE(inserted);
  send_wakeup(it->second);
}

void BcpAgent::send_wakeup(SenderSession& s) {
  // Refresh the advertised burst: data kept arriving since the last try.
  s.offered_bits = buffer_.buffered_bits(s.peer);
  ++stats_.wakeups_sent;
  if (observer_)
    observer_->on_wakeup_sent(host_.now(), s.peer, s.handshake_id,
                              s.offered_bits, s.wakeup_attempts);
  net::Message msg;
  msg.src = host_.self();
  msg.dst = s.peer;
  msg.body = net::WakeupRequest{host_.self(), s.peer, s.handshake_id,
                                s.offered_bits};
  host_.send_low(net::make_message(std::move(msg)));
  const net::NodeId peer = s.peer;
  s.ack_timer = host_.set_timer(config_.wakeup_ack_timeout,
                                [this, peer] { on_ack_timeout(peer); });
}

void BcpAgent::on_ack_timeout(net::NodeId peer) {
  const auto it = sender_sessions_.find(peer);
  if (it == sender_sessions_.end()) return;
  SenderSession& s = it->second;
  if (s.state != SenderSession::State::kWaitAck) return;
  s.ack_timer = BcpHost::kInvalidTimer;
  if (s.wakeup_attempts < config_.max_wakeup_retries) {
    ++s.wakeup_attempts;
    ++stats_.wakeup_retries;
    send_wakeup(s);
    return;
  }
  abandon_handshake(peer);
}

void BcpAgent::abandon_handshake(net::NodeId peer) {
  // Give up; keep the data buffered and retry after a cooldown.
  const auto it = sender_sessions_.find(peer);
  BCP_ENSURE(it != sender_sessions_.end());
  host_.cancel_timer(it->second.ack_timer);
  ++stats_.handshakes_failed;
  if (observer_)
    observer_->on_sender_session_ended(host_.now(), peer,
                                       SessionEnd::kHandshakeFailed);
  sender_sessions_.erase(it);
  const BcpHost::TimerId timer =
      host_.set_timer(config_.handshake_retry_backoff, [this, peer] {
        cooldowns_.erase(peer);
        maybe_start_handshake(peer);
      });
  cooldowns_.emplace(peer, timer);
}

void BcpAgent::on_low_message(const net::Message& msg) {
  BCP_REQUIRE(msg.dst == host_.self());
  if (const auto* req = std::get_if<net::WakeupRequest>(&msg.body)) {
    on_wakeup_request(*req);
  } else if (const auto* ack = std::get_if<net::WakeupAck>(&msg.body)) {
    on_wakeup_ack(*ack);
  } else if (const auto* data = std::get_if<net::DataPacket>(&msg.body)) {
    // Data over the low radio is not part of the evaluated protocol
    // (§5 leaves it as future work) but tolerate it: treat as local input.
    submit(*data);
  } else {
    BCP_ENSURE_MSG(false, "bulk frame routed over the low-power radio");
  }
}

void BcpAgent::on_wakeup_ack(const net::WakeupAck& ack) {
  const auto it = sender_sessions_.find(ack.responder);
  if (it == sender_sessions_.end()) return;  // late ack, session gone
  SenderSession& s = it->second;
  if (s.handshake_id != ack.handshake_id ||
      s.state != SenderSession::State::kWaitAck)
    return;  // duplicate or stale ack
  host_.cancel_timer(s.ack_timer);
  s.ack_timer = BcpHost::kInvalidTimer;
  if (ack.granted_bits <= 0) {
    // Defensive: the paper's receiver stays silent instead of granting 0.
    // Treat it like a failed handshake — back off before asking again.
    abandon_handshake(ack.responder);
    return;
  }
  begin_transfer(s, ack.granted_bits);
}

void BcpAgent::begin_transfer(SenderSession& s, util::Bits granted) {
  const util::Bits budget =
      std::min(granted, buffer_.buffered_bits(s.peer));
  auto packets = buffer_.pop_up_to(s.peer, budget);
  if (packets.empty()) {
    finish_sender_session(s.peer);
    return;
  }
  s.frames = assemble_frames(std::move(packets), host_.self(), s.peer,
                             s.handshake_id, config_.frame_payload_bits);
  s.next_frame = 0;
  if (observer_)
    observer_->on_transfer_started(host_.now(), s.peer, s.handshake_id,
                                   static_cast<std::uint16_t>(s.frames.size()));
  const net::NodeId peer = s.peer;
  s.state = SenderSession::State::kWaking;
  s.holds_radio = true;
  acquire_radio();
  // acquire_radio() may signal readiness reentrantly (hosts whose radio is
  // already awake call on_high_radio_ready() from inside high_radio_on()),
  // in which case the session has advanced — or even completed and been
  // erased. Re-find before touching it.
  const auto it = sender_sessions_.find(peer);
  if (it == sender_sessions_.end()) return;
  if (it->second.state != SenderSession::State::kWaking) return;
  if (host_.high_radio_ready()) {
    it->second.state = SenderSession::State::kTransferring;
    send_next_frame(peer);
  }
  // Otherwise on_high_radio_ready() resumes the session.
}

void BcpAgent::on_high_radio_ready() {
  std::vector<net::NodeId> waking;
  for (const auto& [peer, s] : sender_sessions_)
    if (s.state == SenderSession::State::kWaking) waking.push_back(peer);
  for (const net::NodeId peer : waking) {
    const auto it = sender_sessions_.find(peer);
    if (it == sender_sessions_.end()) continue;
    it->second.state = SenderSession::State::kTransferring;
    send_next_frame(peer);
  }
}

void BcpAgent::send_next_frame(net::NodeId peer) {
  const auto it = sender_sessions_.find(peer);
  BCP_ENSURE(it != sender_sessions_.end());
  SenderSession& s = it->second;
  if (s.next_frame >= s.frames.size()) {
    finish_sender_session(peer);
    return;
  }
  ++stats_.frames_sent;
  if (observer_)
    observer_->on_frame_sent(host_.now(), peer, s.frames[s.next_frame].index,
                             s.frames[s.next_frame].total);
  net::Message msg;
  msg.src = host_.self();
  msg.dst = peer;
  // Each frame ships exactly once at this layer (the MAC owns link-layer
  // retries), so its packets move into the pooled message — the burst's
  // payload is never deep-copied between assembly and delivery.
  msg.body = std::move(s.frames[s.next_frame]);
  host_.send_high(net::make_message(std::move(msg)), peer,
                  [this, peer](bool success) {
    const auto sit = sender_sessions_.find(peer);
    if (sit == sender_sessions_.end()) return;
    if (!success) ++stats_.frames_send_failed;
    ++sit->second.next_frame;
    send_next_frame(peer);
  });
}

void BcpAgent::finish_sender_session(net::NodeId peer) {
  const auto it = sender_sessions_.find(peer);
  BCP_ENSURE(it != sender_sessions_.end());
  const bool held = it->second.holds_radio;
  host_.cancel_timer(it->second.ack_timer);
  ++stats_.sender_sessions_completed;
  if (observer_)
    observer_->on_sender_session_ended(host_.now(), peer,
                                       SessionEnd::kCompleted);
  sender_sessions_.erase(it);
  if (held) {
    if (config_.enable_shortcuts && config_.shortcut_listen_time > 0) {
      // §3 route optimization: linger to overhear the burst being
      // forwarded, then let go of the radio. The epoch guard keeps this
      // (untracked) timer from releasing a hold that a crash() already
      // zeroed.
      host_.set_timer(config_.shortcut_listen_time,
                      [this, e = epoch_] {
                        if (e == epoch_) release_radio();
                      });
    } else {
      release_radio();
    }
  }
  // Data that accumulated during the transfer may already justify the next
  // burst.
  maybe_start_handshake(peer);
}

void BcpAgent::crash() {
  for (auto& [peer, s] : sender_sessions_) host_.cancel_timer(s.ack_timer);
  sender_sessions_.clear();
  for (auto& [peer, r] : receiver_sessions_)
    host_.cancel_timer(r.data_timer);
  receiver_sessions_.clear();
  for (auto& [peer, timer] : cooldowns_) host_.cancel_timer(timer);
  cooldowns_.clear();
  for (auto& [peer, timer] : deadline_timers_) host_.cancel_timer(timer);
  deadline_timers_.clear();
  if (radio_off_timer_ != BcpHost::kInvalidTimer) {
    host_.cancel_timer(radio_off_timer_);
    radio_off_timer_ = BcpHost::kInvalidTimer;
  }
  stats_.packets_lost_to_crash +=
      static_cast<std::int64_t>(buffer_.clear());
  shortcuts_.clear();
  committed_bits_ = 0;
  radio_holds_ = 0;
  ++epoch_;
  ++stats_.crashes;
}

// -------------------------------------------------------------- receiver --

void BcpAgent::on_wakeup_request(const net::WakeupRequest& req) {
  BCP_REQUIRE(req.target == host_.self());
  const auto it = receiver_sessions_.find(req.requester);
  if (it != receiver_sessions_.end()) {
    ReceiverSession& r = it->second;
    if (r.handshake_id == req.handshake_id) {
      // Retransmitted wake-up (our ack was lost or is in flight): re-ack.
      if (r.state == ReceiverSession::State::kWaitData) send_wakeup_ack(r);
      return;
    }
    // The peer moved on to a new handshake; the old session is stale.
    finish_receiver_session(req.requester, SessionEnd::kReplaced);
  }
  const util::Bits grant = std::min(req.burst_bits, grantable_bits());
  if (grant <= 0) {
    // §3: "If the receiver's buffer is full, no ack is sent."
    ++stats_.acks_suppressed_full;
    return;
  }
  ReceiverSession r;
  r.peer = req.requester;
  r.handshake_id = req.handshake_id;
  r.granted_bits = grant;
  committed_bits_ += grant;
  const auto [rit, inserted] =
      receiver_sessions_.emplace(req.requester, std::move(r));
  BCP_ENSURE(inserted);
  acquire_radio();
  ++stats_.acks_sent;
  if (observer_)
    observer_->on_ack_sent(host_.now(), rit->second.peer,
                           rit->second.handshake_id,
                           rit->second.granted_bits);
  send_wakeup_ack(rit->second);
  const net::NodeId peer = req.requester;
  rit->second.data_timer = host_.set_timer(
      config_.first_data_timeout, [this, peer] { on_receiver_timeout(peer); });
}

void BcpAgent::send_wakeup_ack(const ReceiverSession& r) {
  net::Message msg;
  msg.src = host_.self();
  msg.dst = r.peer;
  msg.body =
      net::WakeupAck{host_.self(), r.peer, r.handshake_id, r.granted_bits};
  host_.send_low(net::make_message(std::move(msg)));
}

void BcpAgent::on_bulk_frame(const net::BulkFrame& frame) {
  BCP_REQUIRE(frame.receiver == host_.self());
  const auto it = receiver_sessions_.find(frame.sender);
  if (it == receiver_sessions_.end() ||
      it->second.handshake_id != frame.handshake_id)
    return;  // late frame from an aborted session
  ReceiverSession& r = it->second;
  ++stats_.frames_received;
  if (observer_)
    observer_->on_frame_received(host_.now(), frame.sender, frame.index,
                                 frame.total);
  r.state = ReceiverSession::State::kReceiving;
  r.frames_total = frame.total;
  ++r.frames_received;

  // Release the buffer commitment covered by this frame before re-buffering
  // its packets, so forwarding does not double-reserve.
  const util::Bits covered = std::min(r.granted_bits, frame.payload_bits());
  r.granted_bits -= covered;
  committed_bits_ -= covered;

  for (const auto& p : frame.packets) {
    if (p.destination == host_.self()) {
      ++stats_.packets_delivered;
      host_.deliver(p);
    } else {
      ++stats_.packets_forwarded;
      submit(p);
    }
  }

  const auto sit = receiver_sessions_.find(frame.sender);
  if (sit == receiver_sessions_.end()) return;  // closed reentrantly
  ReceiverSession& rr = sit->second;
  if (rr.frames_received >= frame.total) {
    // "The receiver turns off its high-power radio when it receives the
    // total number of packets advertised."
    ++stats_.receiver_sessions_completed;
    finish_receiver_session(frame.sender, SessionEnd::kCompleted);
  } else {
    host_.cancel_timer(rr.data_timer);
    const net::NodeId peer = frame.sender;
    rr.data_timer = host_.set_timer(config_.inter_frame_timeout, [this, peer] {
      on_receiver_timeout(peer);
    });
  }
}

void BcpAgent::on_receiver_timeout(net::NodeId peer) {
  const auto it = receiver_sessions_.find(peer);
  if (it == receiver_sessions_.end()) return;
  it->second.data_timer = BcpHost::kInvalidTimer;
  ++stats_.receiver_sessions_timed_out;
  finish_receiver_session(peer, SessionEnd::kTimedOut);
}

void BcpAgent::finish_receiver_session(net::NodeId peer, SessionEnd how) {
  if (observer_) observer_->on_receiver_session_ended(host_.now(), peer, how);
  const auto it = receiver_sessions_.find(peer);
  BCP_ENSURE(it != receiver_sessions_.end());
  host_.cancel_timer(it->second.data_timer);
  committed_bits_ -= it->second.granted_bits;
  BCP_ENSURE(committed_bits_ >= 0);
  receiver_sessions_.erase(it);
  release_radio();
}

// ------------------------------------------------------- radio shepherding --

void BcpAgent::acquire_radio() {
  ++radio_holds_;
  if (radio_off_timer_ != BcpHost::kInvalidTimer) {
    host_.cancel_timer(radio_off_timer_);
    radio_off_timer_ = BcpHost::kInvalidTimer;
  }
  if (observer_) observer_->on_radio_request(host_.now(), true);
  host_.high_radio_on();
}

void BcpAgent::release_radio() {
  BCP_ENSURE(radio_holds_ > 0);
  --radio_holds_;
  if (radio_holds_ > 0) return;
  // Linger briefly so an in-flight link ack for the final frame completes.
  radio_off_timer_ =
      host_.set_timer(config_.radio_off_linger, [this] {
        radio_off_timer_ = BcpHost::kInvalidTimer;
        if (radio_holds_ == 0) {
          if (observer_) observer_->on_radio_request(host_.now(), false);
          host_.high_radio_off();
        }
      });
}

// ----------------------------------------------------------------- extras --

void BcpAgent::on_bulk_frame_overheard(const net::BulkFrame& frame) {
  if (!config_.enable_shortcuts) return;
  if (frame.sender == host_.self() || frame.receiver == host_.self()) return;
  if (!host_.high_link_exists(frame.receiver)) return;  // out of our reach
  // §3: hearing our own packets forwarded — "the last node that forwards
  // the packet is set as the next-hop for the following transmissions."
  for (const auto& p : frame.packets) {
    if (p.origin != host_.self()) continue;
    const auto it = shortcuts_.find(p.destination);
    if (it == shortcuts_.end() || it->second != frame.receiver) {
      shortcuts_[p.destination] = frame.receiver;
      ++stats_.shortcuts_learned;
    }
    break;
  }
}

}  // namespace bcp::core
