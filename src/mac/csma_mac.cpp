#include "mac/csma_mac.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace bcp::mac {

CsmaCaMac::CsmaCaMac(sim::Simulator& sim, phy::Radio& radio,
                     const MacParams& params, std::uint64_t seed)
    : sim_(sim),
      radio_(radio),
      params_(params),
      rng_(seed),
      backoff_timer_(sim, [this] { on_backoff_expired(); }),
      ack_timer_(sim, [this] { on_ack_timeout(); }),
      ack_tx_timer_(sim, [this] {
        // Time to put the head-of-line ack on the air.
        if (pending_acks_.empty()) return;
        if (radio_.state() == phy::RadioState::kTx || !radio_.ready()) {
          // Our own transmission (or a power-down) wins; the data sender
          // will time out and retransmit.
          ++stats_.acks_suppressed;
          pending_acks_.pop_front();
          return;
        }
        const PendingAck ack = pending_acks_.front();
        pending_acks_.pop_front();
        phy::Frame f;
        f.tx_node = radio_.self();
        f.rx_node = ack.to;
        f.kind = phy::FrameKind::kAck;
        f.mac_seq = ack.seq;
        f.payload_bits = 0;
        f.header_bits = params_.ack_bits;
        f.preamble = params_.preamble;
        tx_is_ack_ = true;
        ++stats_.acks_sent;
        radio_.transmit(f);
      }) {
  BCP_REQUIRE(params_.slot > 0);
  BCP_REQUIRE(params_.cw_min >= 0 && params_.cw_max >= params_.cw_min);
  BCP_REQUIRE(params_.retry_limit >= 0);
  BCP_REQUIRE(params_.max_queue > 0);
  radio_.callbacks().tx_done = [this] { on_radio_tx_done(); };
  radio_.callbacks().frame_received = [this](const phy::Frame& f) {
    on_frame_received(f);
  };
}

bool CsmaCaMac::enqueue(net::MessageRef msg, net::NodeId next_hop) {
  BCP_REQUIRE(msg);
  BCP_REQUIRE(next_hop == net::kBroadcastNode || next_hop >= 0);
  BCP_REQUIRE(next_hop != radio_.self());
  if (queue_.size() >= params_.max_queue) {
    ++stats_.queue_drops;
    return false;
  }
  ++stats_.enqueued;
  Outgoing out;
  out.size_bits = msg->size_bits();  // once, not per retry
  out.msg = std::move(msg);
  out.next_hop = next_hop;
  out.cw = params_.cw_min;
  queue_.push_back(std::move(out));
  if (!in_flight_) start_cycle();
  return true;
}

void CsmaCaMac::start_cycle() {
  if (queue_.empty()) return;
  in_flight_ = true;
  arm_backoff(0.0);
}

void CsmaCaMac::arm_backoff(util::Seconds extra_wait) {
  const auto& head = queue_.front();
  const auto slots = rng_.uniform_int(static_cast<std::uint64_t>(head.cw) + 1);
  backoff_timer_.start(extra_wait + params_.difs +
                       static_cast<double>(slots) * params_.slot);
}

void CsmaCaMac::on_backoff_expired() {
  BCP_ENSURE(in_flight_ && !queue_.empty());
  if (!radio_.is_on() || radio_.state() == phy::RadioState::kWaking) {
    // Radio went down with traffic pending — fail the frame rather than
    // spin; the owner decides what to do with the loss.
    finish_head(false);
    return;
  }
  if (radio_.state() == phy::RadioState::kTx || radio_.channel_busy()) {
    // Medium busy: re-arm once it clears (fresh draw, see header note).
    const util::Seconds wait =
        std::max(radio_.channel_clear_at() - sim_.now(), 0.0);
    arm_backoff(wait);
    return;
  }
  transmit_head();
}

phy::Frame CsmaCaMac::make_data_frame(const Outgoing& out) const {
  phy::Frame f;
  f.tx_node = radio_.self();
  f.rx_node = out.next_hop;
  f.kind = phy::FrameKind::kData;
  f.mac_seq = out.seq;
  f.payload_bits = out.size_bits;
  f.header_bits = params_.header_bits;
  f.preamble = params_.preamble;
  f.message = out.msg;  // shares the pooled payload
  return f;
}

void CsmaCaMac::transmit_head() {
  Outgoing& head = queue_.front();
  if (head.seq == 0) head.seq = next_seq_++;  // same seq across retries
  ++head.attempts;
  ++stats_.tx_attempts;
  tx_is_ack_ = false;
  radio_.transmit(make_data_frame(head));
}

void CsmaCaMac::on_radio_tx_done() {
  if (tx_is_ack_) {
    tx_is_ack_ = false;
    if (!pending_acks_.empty()) ack_tx_timer_.start(params_.sifs);
    return;
  }
  if (!in_flight_) return;  // queue was flushed mid-transmission
  const Outgoing& head = queue_.front();
  if (head.next_hop == net::kBroadcastNode) {
    finish_head(true);
    return;
  }
  awaiting_ack_ = true;
  ack_timer_.start(params_.sifs + ack_duration() + params_.ack_guard);
}

util::Seconds CsmaCaMac::ack_duration() const {
  return params_.preamble +
         static_cast<double>(params_.ack_bits) / radio_.model().rate;
}

void CsmaCaMac::on_ack_timeout() {
  BCP_ENSURE(in_flight_ && awaiting_ack_ && !queue_.empty());
  awaiting_ack_ = false;
  Outgoing& head = queue_.front();
  if (head.attempts > params_.retry_limit) {
    finish_head(false);
    return;
  }
  if (params_.exponential_backoff)
    head.cw = std::min(2 * (head.cw + 1) - 1, params_.cw_max);
  arm_backoff(0.0);
}

void CsmaCaMac::on_frame_received(const phy::Frame& frame) {
  if (frame.kind == phy::FrameKind::kBeacon) return;  // not our family
  if (frame.kind == phy::FrameKind::kAck) {
    if (awaiting_ack_ && !queue_.empty() &&
        frame.mac_seq == queue_.front().seq &&
        frame.tx_node == queue_.front().next_hop) {
      ack_timer_.cancel();
      awaiting_ack_ = false;
      finish_head(true);
    }
    return;
  }
  // Data frame addressed to us (or broadcast).
  BCP_ENSURE(frame.message);
  const bool unicast = frame.rx_node == radio_.self();
  if (unicast) {
    pending_acks_.push_back(PendingAck{frame.tx_node, frame.mac_seq});
    if (!ack_tx_timer_.running() && radio_.state() != phy::RadioState::kTx)
      ack_tx_timer_.start(params_.sifs);
    std::uint32_t& last = delivered_seq(frame.tx_node);
    if (frame.mac_seq <= last) {
      ++stats_.rx_duplicates;  // retransmission whose ack we lost — re-ack
      return;
    }
    last = frame.mac_seq;
  }
  ++stats_.rx_delivered;
  if (rx_cb_) rx_cb_(*frame.message, frame.tx_node);
}

std::uint32_t& CsmaCaMac::delivered_seq(net::NodeId from) {
  for (DeliveredSeq& d : delivered_seq_)
    if (d.from == from) return d.seq;
  delivered_seq_.push_back({from, 0});
  return delivered_seq_.back().seq;
}

void CsmaCaMac::finish_head(bool success) {
  BCP_ENSURE(!queue_.empty());
  Outgoing done = std::move(queue_.front());
  queue_.pop_front();
  in_flight_ = false;
  awaiting_ack_ = false;
  backoff_timer_.cancel();
  ack_timer_.cancel();
  if (success)
    ++stats_.tx_success;
  else
    ++stats_.tx_failed;
  if (tx_done_cb_) tx_done_cb_(*done.msg, done.next_hop, success);
  if (!in_flight_ && !queue_.empty()) start_cycle();
}

void CsmaCaMac::reset_on_crash() {
  backoff_timer_.cancel();
  ack_timer_.cancel();
  ack_tx_timer_.cancel();
  in_flight_ = false;
  awaiting_ack_ = false;
  tx_is_ack_ = false;
  ++stats_.crash_resets;
  stats_.crash_drops += static_cast<std::int64_t>(queue_.size());
  queue_.clear();
  pending_acks_.clear();
  delivered_seq_.clear();
}

void CsmaCaMac::flush_queue() {
  backoff_timer_.cancel();
  ack_timer_.cancel();
  in_flight_ = false;
  awaiting_ack_ = false;
  util::SlidingQueue<Outgoing> failed;
  failed.swap(queue_);
  for (auto& out : failed) {
    ++stats_.tx_failed;
    if (tx_done_cb_) tx_done_cb_(*out.msg, out.next_hop, false);
  }
}

}  // namespace bcp::mac
