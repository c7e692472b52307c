// Unit tests: the BCP agent state machines (§3), driven through a scripted
// fake host so every protocol transition is observable and fault-injectable.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bcp_agent.hpp"
#include "core/bcp_host.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bcp::core {
namespace {

using util::bytes;

class FakeHost : public BcpHost {
 public:
  FakeHost(sim::Simulator& sim, net::NodeId id) : sim_(sim), id_(id) {}

  // ---- BcpHost ----
  net::NodeId self() const override { return id_; }
  util::Seconds now() const override { return sim_.now(); }
  TimerId set_timer(util::Seconds delay,
                    core::BcpHost::TimerCallback cb) override {
    return sim_.schedule_in(delay, std::move(cb)).id;
  }
  void cancel_timer(TimerId id) override {
    sim_.cancel(sim::Simulator::EventHandle{id});
  }
  void send_low(net::MessageRef msg) override { low_sent.push_back(*msg); }
  void send_high(net::MessageRef msg, net::NodeId peer,
                 core::BcpHost::SendDone done) override {
    high_sent.push_back(*msg);
    high_peers.push_back(peer);
    high_done.push_back(std::move(done));
  }
  void high_radio_on() override {
    ++power_on_calls;
    if (radio_on) return;
    radio_on = true;
    if (wake_delay <= 0) {
      radio_ready = true;
      if (agent) agent->on_high_radio_ready();
    } else {
      sim_.schedule_in(wake_delay, [this] {
        if (!radio_on) return;  // switched off again meanwhile
        radio_ready = true;
        if (agent) agent->on_high_radio_ready();
      });
    }
  }
  void high_radio_off() override {
    ++power_off_calls;
    radio_on = false;
    radio_ready = false;
  }
  bool high_radio_ready() const override { return radio_ready; }
  net::NodeId high_next_hop(net::NodeId dest) const override {
    const auto it = routes.find(dest);
    return it == routes.end() ? net::kInvalidNode : it->second;
  }
  void deliver(const net::DataPacket& p) override { delivered.push_back(p); }

  /// Completes the oldest outstanding high-radio send.
  void complete_high(bool success) {
    ASSERT_FALSE(high_done.empty());
    auto done = std::move(high_done.front());
    high_done.pop_front();
    done(success);
  }

  sim::Simulator& sim_;
  net::NodeId id_;
  BcpAgent* agent = nullptr;
  util::Seconds wake_delay = 0.1;
  bool radio_on = false;
  bool radio_ready = false;
  int power_on_calls = 0;
  int power_off_calls = 0;
  std::map<net::NodeId, net::NodeId> routes;
  std::vector<net::Message> low_sent;
  std::vector<net::Message> high_sent;
  std::vector<net::NodeId> high_peers;
  std::deque<core::BcpHost::SendDone> high_done;
  std::vector<net::DataPacket> delivered;
};

BcpConfig small_config() {
  BcpConfig cfg;
  cfg.burst_threshold_bits = 10 * bytes(32);  // 10 packets
  cfg.buffer_capacity_bits = 100 * bytes(32);
  cfg.frame_payload_bits = bytes(128);  // 4 packets per frame
  cfg.wakeup_ack_timeout = 1.0;
  cfg.max_wakeup_retries = 2;
  cfg.handshake_retry_backoff = 5.0;
  cfg.first_data_timeout = 1.0;
  cfg.inter_frame_timeout = 0.5;
  cfg.radio_off_linger = 0.01;
  return cfg;
}

net::DataPacket pkt(net::NodeId origin, net::NodeId dest, std::uint32_t seq,
                    util::Seconds t = 0.0) {
  return net::DataPacket{origin, dest, seq, bytes(32), t};
}

class BcpSenderTest : public ::testing::Test {
 protected:
  BcpSenderTest() : host_(sim_, 0) {
    host_.routes[9] = 5;  // destination 9 via high-radio next hop 5
    agent_ = std::make_unique<BcpAgent>(host_, config_, stats_);
    host_.agent = agent_.get();
  }
  void submit_n(int n, net::NodeId dest = 9) {
    for (int i = 0; i < n; ++i)
      agent_->submit(pkt(0, dest, static_cast<std::uint32_t>(i + 1)));
  }
  sim::Simulator sim_;
  FakeHost host_;
  const BcpConfig config_ = small_config();
  BcpAgent::Stats stats_;
  std::unique_ptr<BcpAgent> agent_;
};

TEST_F(BcpSenderTest, BuffersBelowThresholdWithoutHandshake) {
  submit_n(9);
  EXPECT_TRUE(host_.low_sent.empty());
  EXPECT_EQ(agent_->buffer().buffered_bits(5), 9 * bytes(32));
  EXPECT_FALSE(host_.radio_on);  // radio stays off while accumulating
}

TEST_F(BcpSenderTest, ThresholdTriggersWakeupWithBurstSize) {
  submit_n(10);
  ASSERT_EQ(host_.low_sent.size(), 1u);
  const auto& msg = host_.low_sent[0];
  EXPECT_EQ(msg.dst, 5);  // wake-up goes to the high-radio next hop
  const auto& req = std::get<net::WakeupRequest>(msg.body);
  EXPECT_EQ(req.requester, 0);
  EXPECT_EQ(req.target, 5);
  EXPECT_EQ(req.burst_bits, 10 * bytes(32));
  EXPECT_FALSE(host_.radio_on);  // §3: sender waits for the ack radio-off
  EXPECT_TRUE(agent_->has_sender_session(5));
}

TEST_F(BcpSenderTest, OnlyOneHandshakePerPeer) {
  submit_n(30);
  EXPECT_EQ(host_.low_sent.size(), 1u);
}

TEST_F(BcpSenderTest, AckStartsRadioThenFramesFlow) {
  submit_n(10);
  const auto req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  net::Message ack;
  ack.src = 5;
  ack.dst = 0;
  ack.body = net::WakeupAck{5, 0, req.handshake_id, req.burst_bits};
  agent_->on_low_message(ack);
  EXPECT_TRUE(host_.radio_on);
  EXPECT_TRUE(host_.high_sent.empty());  // still waking (100 ms)
  sim_.run_until(0.2);
  // 10 packets at 4 per frame -> 3 frames, sent one at a time.
  ASSERT_EQ(host_.high_sent.size(), 1u);
  const auto& f0 = std::get<net::BulkFrame>(host_.high_sent[0].body);
  EXPECT_EQ(f0.index, 0);
  EXPECT_EQ(f0.total, 3);
  EXPECT_EQ(f0.packets.size(), 4u);
  host_.complete_high(true);
  host_.complete_high(true);
  ASSERT_EQ(host_.high_sent.size(), 3u);
  const auto& f2 = std::get<net::BulkFrame>(host_.high_sent[2].body);
  EXPECT_EQ(f2.packets.size(), 2u);  // 4+4+2
  host_.complete_high(true);
  // Session over: buffer empty, radio released after the linger.
  EXPECT_EQ(agent_->buffer().total_bits(), 0);
  EXPECT_FALSE(agent_->has_sender_session(5));
  sim_.run_until(0.3);
  EXPECT_EQ(host_.power_off_calls, 1);
  EXPECT_FALSE(host_.radio_on);
  EXPECT_EQ(agent_->stats().sender_sessions_completed, 1);
}

TEST_F(BcpSenderTest, GrantSmallerThanBurstLimitsTransfer) {
  submit_n(20);
  const auto req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  net::Message ack;
  ack.src = 5;
  ack.dst = 0;
  ack.body = net::WakeupAck{5, 0, req.handshake_id, 6 * bytes(32)};
  agent_->on_low_message(ack);
  sim_.run_until(0.2);
  // 6 granted packets -> frames of 4+2; 14 packets remain buffered.
  EXPECT_EQ(agent_->buffer().buffered_bits(5), 14 * bytes(32));
  ASSERT_FALSE(host_.high_sent.empty());
  const auto& f0 = std::get<net::BulkFrame>(host_.high_sent[0].body);
  EXPECT_EQ(f0.total, 2);
}

TEST_F(BcpSenderTest, SessionRestartsWhenBacklogStillOverThreshold) {
  submit_n(20);
  const auto req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  net::Message ack;
  ack.src = 5;
  ack.dst = 0;
  ack.body = net::WakeupAck{5, 0, req.handshake_id, 10 * bytes(32)};
  agent_->on_low_message(ack);
  sim_.run_until(0.2);
  while (!host_.high_done.empty()) host_.complete_high(true);
  // 10 packets remain = threshold -> a second wake-up goes out at once.
  EXPECT_EQ(host_.low_sent.size(), 2u);
  EXPECT_TRUE(agent_->has_sender_session(5));
}

TEST_F(BcpSenderTest, AckTimeoutResendsWakeupThenGivesUp) {
  submit_n(10);
  EXPECT_EQ(host_.low_sent.size(), 1u);
  sim_.run_until(1.1);  // first timeout
  EXPECT_EQ(host_.low_sent.size(), 2u);
  sim_.run_until(2.2);  // second timeout (max_wakeup_retries = 2)
  EXPECT_EQ(host_.low_sent.size(), 3u);
  sim_.run_until(3.3);  // gives up, enters cooldown
  EXPECT_EQ(host_.low_sent.size(), 3u);
  EXPECT_FALSE(agent_->has_sender_session(5));
  EXPECT_EQ(agent_->stats().handshakes_failed, 1);
  EXPECT_EQ(agent_->stats().wakeup_retries, 2);
  // Data is retained and the handshake retries after the backoff
  // (cooldown 5 s from the give-up at t=3 -> 4th wake-up at t=8).
  EXPECT_EQ(agent_->buffer().buffered_bits(5), 10 * bytes(32));
  sim_.run_until(8.5);
  EXPECT_EQ(host_.low_sent.size(), 4u);
}

TEST_F(BcpSenderTest, RetransmittedWakeupRefreshesBurstSize) {
  submit_n(10);
  submit_n(5);  // more data arrives while waiting for the ack
  sim_.run_until(1.1);
  ASSERT_EQ(host_.low_sent.size(), 2u);
  const auto& req2 = std::get<net::WakeupRequest>(host_.low_sent[1].body);
  EXPECT_EQ(req2.burst_bits, 15 * bytes(32));
}

TEST_F(BcpSenderTest, StaleAckIgnored) {
  submit_n(10);
  const auto req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  net::Message ack;
  ack.src = 5;
  ack.dst = 0;
  ack.body = net::WakeupAck{5, 0, req.handshake_id + 77, bytes(320)};
  agent_->on_low_message(ack);  // wrong handshake id
  EXPECT_FALSE(host_.radio_on);
  EXPECT_TRUE(agent_->has_sender_session(5));
}

TEST_F(BcpSenderTest, ZeroGrantAbortsSession) {
  submit_n(10);
  const auto req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  net::Message ack;
  ack.src = 5;
  ack.dst = 0;
  ack.body = net::WakeupAck{5, 0, req.handshake_id, 0};
  agent_->on_low_message(ack);
  EXPECT_FALSE(agent_->has_sender_session(5));
  EXPECT_FALSE(host_.radio_on);
  EXPECT_EQ(agent_->buffer().buffered_bits(5), 10 * bytes(32));
  EXPECT_EQ(agent_->stats().handshakes_failed, 1);
  // The retry waits out the cooldown instead of hammering the peer.
  sim_.run_until(1.0);
  EXPECT_EQ(host_.low_sent.size(), 1u);
  sim_.run_until(5.5);  // cooldown (5 s) elapsed, fresh wake-up sent
  EXPECT_EQ(host_.low_sent.size(), 2u);
}

TEST_F(BcpSenderTest, FrameFailureCountedButTransferContinues) {
  submit_n(10);
  const auto req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  net::Message ack;
  ack.src = 5;
  ack.dst = 0;
  ack.body = net::WakeupAck{5, 0, req.handshake_id, req.burst_bits};
  agent_->on_low_message(ack);
  sim_.run_until(0.2);
  host_.complete_high(false);  // frame 0 lost at the MAC
  host_.complete_high(true);
  host_.complete_high(true);
  EXPECT_EQ(host_.high_sent.size(), 3u);
  EXPECT_EQ(agent_->stats().frames_send_failed, 1);
  EXPECT_FALSE(agent_->has_sender_session(5));
}

TEST_F(BcpSenderTest, NoRouteDropsPacket) {
  agent_->submit(pkt(0, 77, 1));  // no route to 77
  EXPECT_EQ(agent_->stats().packets_dropped_no_route, 1);
  EXPECT_EQ(agent_->stats().packets_dropped_buffer_full, 0);
  EXPECT_EQ(agent_->stats().packets_buffered, 0);
}

TEST_F(BcpSenderTest, BufferOverflowDropsPacket) {
  submit_n(100);  // exactly capacity; threshold handshake pending unanswered
  agent_->submit(pkt(0, 9, 999));
  EXPECT_EQ(agent_->stats().packets_dropped_buffer_full, 1);
  EXPECT_EQ(agent_->stats().packets_dropped_no_route, 0);
  EXPECT_EQ(agent_->stats().packets_buffered, 100);
}

TEST_F(BcpSenderTest, PacketForSelfDeliveredImmediately) {
  agent_->submit(pkt(0, 0, 1));
  ASSERT_EQ(host_.delivered.size(), 1u);
  EXPECT_EQ(agent_->stats().packets_delivered, 1);
}

TEST_F(BcpSenderTest, FlushSendsBelowThreshold) {
  submit_n(3);
  EXPECT_TRUE(host_.low_sent.empty());
  agent_->flush_all();
  ASSERT_EQ(host_.low_sent.size(), 1u);
  const auto& req = std::get<net::WakeupRequest>(host_.low_sent[0].body);
  EXPECT_EQ(req.burst_bits, 3 * bytes(32));
}

TEST_F(BcpSenderTest, FlushWithEmptyBufferIsNoOp) {
  agent_->flush_all();
  agent_->flush(5);
  EXPECT_TRUE(host_.low_sent.empty());
}

// ------------------------------------------------------------- receiver --

class BcpReceiverTest : public ::testing::Test {
 protected:
  BcpReceiverTest() : host_(sim_, 5) {
    host_.routes[9] = 9;  // this node forwards to 9 directly if needed
    agent_ = std::make_unique<BcpAgent>(host_, config_, stats_);
    host_.agent = agent_.get();
  }
  net::Message wakeup(net::NodeId from, std::uint32_t hs, util::Bits burst) {
    net::Message m;
    m.src = from;
    m.dst = 5;
    m.body = net::WakeupRequest{from, 5, hs, burst};
    return m;
  }
  net::BulkFrame frame(net::NodeId from, std::uint32_t hs, std::uint16_t idx,
                       std::uint16_t total, int packets,
                       net::NodeId dest = 5) {
    net::BulkFrame f;
    f.sender = from;
    f.receiver = 5;
    f.handshake_id = hs;
    f.index = idx;
    f.total = total;
    for (int i = 0; i < packets; ++i)
      f.packets.push_back(pkt(from, dest,
                              static_cast<std::uint32_t>(idx * 100 + i)));
    return f;
  }
  sim::Simulator sim_;
  FakeHost host_;
  const BcpConfig config_ = small_config();
  BcpAgent::Stats stats_;
  std::unique_ptr<BcpAgent> agent_;
};

TEST_F(BcpReceiverTest, WakeupPowersRadioAndAcksWithGrant) {
  agent_->on_low_message(wakeup(0, 7, 10 * bytes(32)));
  EXPECT_TRUE(host_.radio_on);
  ASSERT_EQ(host_.low_sent.size(), 1u);
  const auto& ack = std::get<net::WakeupAck>(host_.low_sent[0].body);
  EXPECT_EQ(ack.responder, 5);
  EXPECT_EQ(ack.requester, 0);
  EXPECT_EQ(ack.handshake_id, 7u);
  EXPECT_EQ(ack.granted_bits, 10 * bytes(32));
  EXPECT_TRUE(agent_->has_receiver_session(0));
}

TEST_F(BcpReceiverTest, GrantClampedToFreeBuffer) {
  // Pre-fill 95 of 100 packet slots through the sender path.
  host_.routes[9] = 9;
  for (int i = 0; i < 95; ++i)
    agent_->submit(pkt(5, 9, static_cast<std::uint32_t>(i)));
  host_.low_sent.clear();
  agent_->on_low_message(wakeup(0, 7, 50 * bytes(32)));
  ASSERT_FALSE(host_.low_sent.empty());
  const auto& ack = std::get<net::WakeupAck>(host_.low_sent.back().body);
  EXPECT_EQ(ack.granted_bits, 5 * bytes(32));  // only 5 slots free
}

TEST_F(BcpReceiverTest, FullBufferStaysSilent) {
  for (int i = 0; i < 100; ++i)
    agent_->submit(pkt(5, 9, static_cast<std::uint32_t>(i)));
  host_.low_sent.clear();
  const int power_on_before = host_.power_on_calls;
  agent_->on_low_message(wakeup(0, 7, bytes(32)));
  EXPECT_TRUE(host_.low_sent.empty());  // §3: no ack when full
  EXPECT_EQ(host_.power_on_calls, power_on_before);
  EXPECT_FALSE(agent_->has_receiver_session(0));
  EXPECT_EQ(agent_->stats().acks_suppressed_full, 1);
}

TEST_F(BcpReceiverTest, DuplicateWakeupReAcksIdempotently) {
  agent_->on_low_message(wakeup(0, 7, 10 * bytes(32)));
  agent_->on_low_message(wakeup(0, 7, 10 * bytes(32)));
  EXPECT_EQ(host_.low_sent.size(), 2u);
  const auto& a0 = std::get<net::WakeupAck>(host_.low_sent[0].body);
  const auto& a1 = std::get<net::WakeupAck>(host_.low_sent[1].body);
  EXPECT_EQ(a0.granted_bits, a1.granted_bits);
  EXPECT_EQ(a0.handshake_id, a1.handshake_id);
  // Only one session and one grant reservation exist.
  EXPECT_EQ(agent_->stats().acks_sent, 1);  // re-ack is not a new grant
}

TEST_F(BcpReceiverTest, CompletedBurstDeliversAndTurnsRadioOff) {
  agent_->on_low_message(wakeup(0, 7, 8 * bytes(32)));
  agent_->on_bulk_frame(frame(0, 7, 0, 2, 4));
  agent_->on_bulk_frame(frame(0, 7, 1, 2, 4));
  EXPECT_EQ(host_.delivered.size(), 8u);
  EXPECT_FALSE(agent_->has_receiver_session(0));
  EXPECT_EQ(agent_->stats().receiver_sessions_completed, 1);
  sim_.run_until(1.0);
  EXPECT_FALSE(host_.radio_on);
}

TEST_F(BcpReceiverTest, ForwardedPacketsReenterTheBuffer) {
  // Frames whose packets are destined elsewhere are re-buffered toward
  // their own next hop (multi-hop over the high radio, §3).
  agent_->on_low_message(wakeup(0, 7, 8 * bytes(32)));
  agent_->on_bulk_frame(frame(0, 7, 0, 1, 4, /*dest=*/9));
  EXPECT_EQ(host_.delivered.size(), 0u);
  EXPECT_EQ(agent_->buffer().buffered_bits(9), 4 * bytes(32));
  EXPECT_EQ(agent_->stats().packets_forwarded, 4);
}

TEST_F(BcpReceiverTest, FirstDataTimeoutReleasesRadio) {
  agent_->on_low_message(wakeup(0, 7, 10 * bytes(32)));
  EXPECT_TRUE(host_.radio_on);
  sim_.run_until(2.0);  // first_data_timeout = 1 s
  EXPECT_FALSE(agent_->has_receiver_session(0));
  EXPECT_EQ(agent_->stats().receiver_sessions_timed_out, 1);
  EXPECT_FALSE(host_.radio_on);
}

TEST_F(BcpReceiverTest, InterFrameTimeoutAbortsPartialBurst) {
  agent_->on_low_message(wakeup(0, 7, 8 * bytes(32)));
  agent_->on_bulk_frame(frame(0, 7, 0, 3, 4));
  EXPECT_EQ(host_.delivered.size(), 4u);  // partial data still delivered
  sim_.run_until(5.0);                    // inter_frame_timeout = 0.5 s
  EXPECT_FALSE(agent_->has_receiver_session(0));
  EXPECT_EQ(agent_->stats().receiver_sessions_timed_out, 1);
  EXPECT_FALSE(host_.radio_on);
}

TEST_F(BcpReceiverTest, LateFrameFromAbortedSessionIgnored) {
  agent_->on_low_message(wakeup(0, 7, 8 * bytes(32)));
  sim_.run_until(2.0);  // session timed out
  agent_->on_bulk_frame(frame(0, 7, 0, 2, 4));
  EXPECT_TRUE(host_.delivered.empty());
  EXPECT_EQ(agent_->stats().frames_received, 0);
}

TEST_F(BcpReceiverTest, NewHandshakeReplacesStaleSession) {
  agent_->on_low_message(wakeup(0, 7, 10 * bytes(32)));
  agent_->on_low_message(wakeup(0, 8, 10 * bytes(32)));
  EXPECT_TRUE(agent_->has_receiver_session(0));
  // Frames for the new handshake are accepted, old ones ignored.
  agent_->on_bulk_frame(frame(0, 7, 0, 1, 4));
  EXPECT_TRUE(host_.delivered.empty());
  agent_->on_bulk_frame(frame(0, 8, 0, 1, 4));
  EXPECT_EQ(host_.delivered.size(), 4u);
}

TEST_F(BcpReceiverTest, GrantReservationReleasedOnTimeout) {
  // A timed-out grant must give its reservation back: a second wake-up
  // then sees the full buffer again.
  agent_->on_low_message(wakeup(0, 7, 100 * bytes(32)));
  const auto& a0 = std::get<net::WakeupAck>(host_.low_sent[0].body);
  EXPECT_EQ(a0.granted_bits, 100 * bytes(32));
  sim_.run_until(2.0);  // timeout, reservation released
  agent_->on_low_message(wakeup(0, 9, 100 * bytes(32)));
  const auto& a1 = std::get<net::WakeupAck>(host_.low_sent[1].body);
  EXPECT_EQ(a1.granted_bits, 100 * bytes(32));
}

TEST_F(BcpReceiverTest, ConcurrentGrantsShareTheBuffer) {
  agent_->on_low_message(wakeup(0, 1, 60 * bytes(32)));
  agent_->on_low_message(wakeup(1, 1, 60 * bytes(32)));
  ASSERT_EQ(host_.low_sent.size(), 2u);
  const auto& a0 = std::get<net::WakeupAck>(host_.low_sent[0].body);
  const auto& a1 = std::get<net::WakeupAck>(host_.low_sent[1].body);
  EXPECT_EQ(a0.granted_bits, 60 * bytes(32));
  EXPECT_EQ(a1.granted_bits, 40 * bytes(32));  // only 40 slots left
  // The radio serves both sessions; it powers off only after both end.
  sim_.run_until(0.6);
  agent_->on_bulk_frame(frame(0, 1, 0, 1, 4));
  EXPECT_TRUE(host_.radio_on);
  sim_.run_until(10.0);  // second session times out too
  EXPECT_FALSE(host_.radio_on);
  EXPECT_EQ(host_.power_off_calls, 1);
}

// ------------------------------------------------------------ shortcuts --

TEST(BcpShortcuts, OverheardForwardingLearnsFartherNextHop) {
  sim::Simulator sim;
  FakeHost host(sim, 0);
  host.routes[9] = 5;
  BcpConfig cfg = small_config();
  cfg.enable_shortcuts = true;
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;

  // Node 5 forwards our packets onward to node 7: learn 9 -> 7.
  net::BulkFrame f;
  f.sender = 5;
  f.receiver = 7;
  f.handshake_id = 1;
  f.index = 0;
  f.total = 1;
  f.packets.push_back(pkt(0, 9, 1));
  agent.on_bulk_frame_overheard(f);
  ASSERT_TRUE(agent.shortcut_for(9).has_value());
  EXPECT_EQ(*agent.shortcut_for(9), 7);
  EXPECT_EQ(agent.stats().shortcuts_learned, 1);

  // Routing now prefers the shortcut.
  agent.submit(pkt(0, 9, 2));
  EXPECT_EQ(agent.buffer().buffered_bits(7), bytes(32));
  EXPECT_EQ(agent.buffer().buffered_bits(5), 0);
}

TEST(BcpShortcuts, IgnoredWhenDisabledOrIrrelevant) {
  sim::Simulator sim;
  FakeHost host(sim, 0);
  host.routes[9] = 5;
  BcpConfig cfg = small_config();  // shortcuts disabled
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;

  net::BulkFrame f;
  f.sender = 5;
  f.receiver = 7;
  f.packets.push_back(pkt(0, 9, 1));
  agent.on_bulk_frame_overheard(f);
  EXPECT_FALSE(agent.shortcut_for(9).has_value());

  // Enabled, but the frame carries other nodes' packets: nothing learned.
  BcpConfig cfg2 = cfg;
  cfg2.enable_shortcuts = true;
  FakeHost host2(sim, 0);
  host2.routes[9] = 5;
  BcpAgent::Stats stats2;
  BcpAgent agent2(host2, cfg2, stats2);
  net::BulkFrame g;
  g.sender = 5;
  g.receiver = 7;
  g.packets.push_back(pkt(3, 9, 1));  // origin 3, not us
  agent2.on_bulk_frame_overheard(g);
  EXPECT_FALSE(agent2.shortcut_for(9).has_value());
}

}  // namespace
}  // namespace bcp::core
