// Tests: the protocol observer hooks and the TraceRecorder, exercised by
// running a full handshake between two agents over the prototype harness
// plus a scripted fake-host sequence.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/bcp_agent.hpp"
#include "core/bcp_host.hpp"
#include "core/trace_recorder.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bcp::core {
namespace {

using util::bytes;
using Kind = TraceRecorder::Kind;

class ScriptHost : public BcpHost {
 public:
  ScriptHost(sim::Simulator& sim, net::NodeId id) : sim_(sim), id_(id) {}
  net::NodeId self() const override { return id_; }
  util::Seconds now() const override { return sim_.now(); }
  TimerId set_timer(util::Seconds d, core::BcpHost::TimerCallback cb) override {
    return sim_.schedule_in(d, std::move(cb)).id;
  }
  void cancel_timer(TimerId id) override {
    sim_.cancel(sim::Simulator::EventHandle{id});
  }
  void send_low(net::MessageRef m) override { low.push_back(*m); }
  void send_high(net::MessageRef m, net::NodeId,
                 core::BcpHost::SendDone done) override {
    high.push_back(*m);
    sim_.schedule_in(0.001, [done = std::move(done)]() mutable {
      done(true);
    });
  }
  void high_radio_on() override {
    on = true;
    if (agent) agent->on_high_radio_ready();
  }
  void high_radio_off() override { on = false; }
  bool high_radio_ready() const override { return on; }
  net::NodeId high_next_hop(net::NodeId dest) const override {
    return dest == 9 ? 5 : net::kInvalidNode;
  }
  void deliver(const net::DataPacket&) override {}

  sim::Simulator& sim_;
  net::NodeId id_;
  BcpAgent* agent = nullptr;
  bool on = false;
  std::vector<net::Message> low;
  std::vector<net::Message> high;
};

BcpConfig tiny() {
  BcpConfig cfg;
  cfg.burst_threshold_bits = 4 * bytes(32);
  cfg.buffer_capacity_bits = 64 * bytes(32);
  cfg.frame_payload_bits = bytes(64);  // 2 packets per frame
  cfg.radio_off_linger = 0.01;
  return cfg;
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : host_(sim_, 0), agent_(host_, config_, stats_) {
    host_.agent = &agent_;
    agent_.set_observer(&trace_);
  }
  void run_full_handshake() {
    for (std::uint32_t i = 1; i <= 4; ++i)
      agent_.submit(net::DataPacket{0, 9, i, bytes(32), sim_.now()});
    const auto& req = std::get<net::WakeupRequest>(host_.low[0].body);
    net::Message ack;
    ack.src = 5;
    ack.dst = 0;
    ack.body = net::WakeupAck{5, 0, req.handshake_id, req.burst_bits};
    agent_.on_low_message(ack);
    sim_.run_until(1.0);
  }
  sim::Simulator sim_;
  ScriptHost host_;
  const BcpConfig config_ = tiny();
  BcpAgent::Stats stats_;
  BcpAgent agent_;
  TraceRecorder trace_;
};

TEST_F(TraceTest, SenderSideEventSequence) {
  run_full_handshake();
  EXPECT_EQ(trace_.count(Kind::kBuffered), 4);
  EXPECT_EQ(trace_.count(Kind::kWakeupSent), 1);
  EXPECT_EQ(trace_.count(Kind::kTransferStarted), 1);
  EXPECT_EQ(trace_.count(Kind::kFrameSent), 2);  // 4 pkts, 2 per frame
  EXPECT_EQ(trace_.count(Kind::kSenderEnded), 1);
  // Radio: one on request, one off request.
  EXPECT_EQ(trace_.count(Kind::kRadioRequest), 2);

  // Causal order: buffered -> wakeup -> transfer -> frames -> ended.
  std::vector<Kind> kinds;
  for (const auto& r : trace_.records()) kinds.push_back(r.kind);
  const auto pos = [&](Kind k) {
    for (std::size_t i = 0; i < kinds.size(); ++i)
      if (kinds[i] == k) return i;
    return kinds.size();
  };
  EXPECT_LT(pos(Kind::kBuffered), pos(Kind::kWakeupSent));
  EXPECT_LT(pos(Kind::kWakeupSent), pos(Kind::kTransferStarted));
  EXPECT_LT(pos(Kind::kTransferStarted), pos(Kind::kFrameSent));
  EXPECT_LT(pos(Kind::kFrameSent), pos(Kind::kSenderEnded));
}

TEST_F(TraceTest, TimesAreMonotonic) {
  run_full_handshake();
  double last = -1;
  for (const auto& r : trace_.records()) {
    EXPECT_GE(r.time, last);
    last = r.time;
  }
}

TEST_F(TraceTest, HandshakeFailureTraced) {
  for (std::uint32_t i = 1; i <= 4; ++i)
    agent_.submit(net::DataPacket{0, 9, i, bytes(32), sim_.now()});
  sim_.run_until(60.0);  // no ack ever arrives
  EXPECT_GE(trace_.count(Kind::kWakeupSent), 2);  // retries traced
  EXPECT_GE(trace_.count(Kind::kSenderEnded), 1);
  bool saw_failure = false;
  for (const auto& r : trace_.records())
    if (r.kind == Kind::kSenderEnded &&
        r.a == static_cast<int>(SessionEnd::kHandshakeFailed))
      saw_failure = true;
  EXPECT_TRUE(saw_failure);
}

TEST_F(TraceTest, ReceiverSideEventSequence) {
  net::Message wake;
  wake.src = 3;
  wake.dst = 0;
  wake.body = net::WakeupRequest{3, 0, 1, 4 * bytes(32)};
  agent_.on_low_message(wake);
  net::BulkFrame f;
  f.sender = 3;
  f.receiver = 0;
  f.handshake_id = 1;
  f.index = 0;
  f.total = 1;
  f.packets.push_back(net::DataPacket{3, 0, 1, bytes(32), 0.0});
  agent_.on_bulk_frame(f);
  sim_.run_until(1.0);
  EXPECT_EQ(trace_.count(Kind::kAckSent), 1);
  EXPECT_EQ(trace_.count(Kind::kFrameReceived), 1);
  EXPECT_EQ(trace_.count(Kind::kReceiverEnded), 1);
  bool completed = false;
  for (const auto& r : trace_.records())
    if (r.kind == Kind::kReceiverEnded &&
        r.a == static_cast<int>(SessionEnd::kCompleted))
      completed = true;
  EXPECT_TRUE(completed);
}

TEST_F(TraceTest, ReceiverTimeoutTraced) {
  net::Message wake;
  wake.src = 3;
  wake.dst = 0;
  wake.body = net::WakeupRequest{3, 0, 1, 4 * bytes(32)};
  agent_.on_low_message(wake);
  sim_.run_until(30.0);  // no data arrives
  bool timed_out = false;
  for (const auto& r : trace_.records())
    if (r.kind == Kind::kReceiverEnded &&
        r.a == static_cast<int>(SessionEnd::kTimedOut))
      timed_out = true;
  EXPECT_TRUE(timed_out);
}

TEST_F(TraceTest, TranscriptAndCsvRender) {
  run_full_handshake();
  const std::string text = trace_.transcript();
  EXPECT_NE(text.find("wakeup-sent"), std::string::npos);
  EXPECT_NE(text.find("transfer-started"), std::string::npos);
  const std::string csv = trace_.csv();
  EXPECT_EQ(csv.rfind("time,kind,peer,a,b\n", 0), 0u);
  // One CSV line per record plus the header.
  const auto lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, trace_.records().size() + 1);
  trace_.clear();
  EXPECT_TRUE(trace_.records().empty());
}

TEST_F(TraceTest, DetachStopsRecording) {
  agent_.set_observer(nullptr);
  run_full_handshake();
  EXPECT_TRUE(trace_.records().empty());
}

TEST(TraceNames, Stable) {
  EXPECT_STREQ(to_string(SessionEnd::kCompleted), "completed");
  EXPECT_STREQ(to_string(SessionEnd::kHandshakeFailed), "handshake-failed");
  EXPECT_STREQ(to_string(Kind::kWakeupSent), "wakeup-sent");
  EXPECT_STREQ(to_string(Kind::kRadioRequest), "radio-request");
}

}  // namespace
}  // namespace bcp::core
