// Unit + integration tests: delay-constrained buffering (§5 future work) —
// DelayPolicy::kFlushHigh and ::kFallbackLow against the fake host, plus a
// grid-scenario check that deadlines bound the buffering delay.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "app/scenario.hpp"
#include "core/bcp_agent.hpp"
#include "core/bcp_host.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bcp::core {
namespace {

using util::bytes;

// A minimal scripted host (mirrors the one in bcp_agent_test.cpp).
class Host : public BcpHost {
 public:
  Host(sim::Simulator& sim, net::NodeId id) : sim_(sim), id_(id) {}
  net::NodeId self() const override { return id_; }
  util::Seconds now() const override { return sim_.now(); }
  TimerId set_timer(util::Seconds d, core::BcpHost::TimerCallback cb) override {
    return sim_.schedule_in(d, std::move(cb)).id;
  }
  void cancel_timer(TimerId id) override {
    sim_.cancel(sim::Simulator::EventHandle{id});
  }
  void send_low(net::MessageRef m) override { low_sent.push_back(*m); }
  void send_high(net::MessageRef m, net::NodeId,
                 core::BcpHost::SendDone done) override {
    high_sent.push_back(*m);
    done_cbs.push_back(std::move(done));
  }
  void high_radio_on() override {
    radio_on = true;
    if (agent) agent->on_high_radio_ready();
  }
  void high_radio_off() override { radio_on = false; }
  bool high_radio_ready() const override { return radio_on; }
  net::NodeId high_next_hop(net::NodeId dest) const override {
    const auto it = routes.find(dest);
    return it == routes.end() ? net::kInvalidNode : it->second;
  }
  void deliver(const net::DataPacket& p) override { delivered.push_back(p); }

  sim::Simulator& sim_;
  net::NodeId id_;
  BcpAgent* agent = nullptr;
  bool radio_on = false;
  std::map<net::NodeId, net::NodeId> routes;
  std::vector<net::Message> low_sent;
  std::vector<net::Message> high_sent;
  std::deque<core::BcpHost::SendDone> done_cbs;
  std::vector<net::DataPacket> delivered;
};

BcpConfig policy_config(DelayPolicy policy, util::Seconds max_delay) {
  BcpConfig cfg;
  cfg.burst_threshold_bits = 10 * bytes(32);
  cfg.buffer_capacity_bits = 100 * bytes(32);
  cfg.frame_payload_bits = bytes(128);
  cfg.delay_policy = policy;
  cfg.max_buffering_delay = max_delay;
  cfg.wakeup_ack_timeout = 1.0;
  return cfg;
}

net::DataPacket pkt(std::uint32_t seq, util::Seconds created) {
  return net::DataPacket{0, 9, seq, bytes(32), created};
}

TEST(DelayPolicy, UnboundedNeverActsBelowThreshold) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kUnbounded, 5.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  agent.submit(pkt(1, 0.0));
  sim.run_until(100.0);
  EXPECT_TRUE(host.low_sent.empty());
  EXPECT_EQ(agent.buffer().total_packets(), 1u);
}

TEST(DelayPolicy, FlushHighWakesRadioAtDeadline) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kFlushHigh, 5.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  agent.submit(pkt(1, 0.0));
  agent.submit(pkt(2, 0.0));
  sim.run_until(4.9);
  EXPECT_TRUE(host.low_sent.empty());  // not expired yet
  sim.run_until(5.1);
  ASSERT_EQ(host.low_sent.size(), 1u);  // deadline fired a wake-up
  const auto& req = std::get<net::WakeupRequest>(host.low_sent[0].body);
  EXPECT_EQ(req.burst_bits, 2 * bytes(32));
  EXPECT_EQ(agent.stats().deadline_flushes, 1);
}

TEST(DelayPolicy, FlushHighDeadlineMeasuresOldestPacket) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kFlushHigh, 10.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  sim.schedule_at(3.0, [&] { agent.submit(pkt(1, 3.0)); });
  sim.run_until(12.9);  // oldest created at 3.0 -> deadline 13.0
  EXPECT_TRUE(host.low_sent.empty());
  sim.run_until(13.1);
  EXPECT_EQ(host.low_sent.size(), 1u);
}

TEST(DelayPolicy, FlushHighRechecksWithoutSpinningWhenSessionActive) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kFlushHigh, 2.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  agent.submit(pkt(1, 0.0));
  // No ack ever arrives: the handshake retries inside its own machinery;
  // the deadline must not busy-loop at one instant.
  sim.run_until(30.0);
  EXPECT_GT(agent.stats().deadline_flushes, 1);
  EXPECT_LT(agent.stats().deadline_flushes, 20);
  EXPECT_EQ(agent.buffer().total_packets(), 1u);  // data retained
}

TEST(DelayPolicy, FallbackLowSendsExpiredPacketsOverLowRadio) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kFallbackLow, 5.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  agent.submit(pkt(1, 0.0));
  agent.submit(pkt(2, 0.0));
  sim.run_until(5.1);
  ASSERT_EQ(host.low_sent.size(), 2u);
  for (const auto& m : host.low_sent) {
    EXPECT_TRUE(m.is_data());
    EXPECT_EQ(m.dst, 9);  // routed to the destination, not the next hop
  }
  EXPECT_EQ(agent.buffer().total_packets(), 0u);
  EXPECT_EQ(agent.stats().packets_sent_low, 2);
  EXPECT_FALSE(host.radio_on);  // the big radio never woke
}

TEST(DelayPolicy, FallbackLowKeepsUnexpiredPackets) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kFallbackLow, 5.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  agent.submit(pkt(1, 0.0));
  sim.schedule_at(4.0, [&] { agent.submit(pkt(2, 4.0)); });
  sim.run_until(5.5);  // only packet 1 expired
  EXPECT_EQ(agent.stats().packets_sent_low, 1);
  EXPECT_EQ(agent.buffer().total_packets(), 1u);
  sim.run_until(9.5);  // packet 2 expires at 9.0
  EXPECT_EQ(agent.stats().packets_sent_low, 2);
  EXPECT_EQ(agent.buffer().total_packets(), 0u);
}

TEST(DelayPolicy, ThresholdStillPreemptsDeadline) {
  sim::Simulator sim;
  Host host(sim, 0);
  host.routes[9] = 5;
  const BcpConfig cfg = policy_config(DelayPolicy::kFallbackLow, 50.0);
  BcpAgent::Stats stats;
  BcpAgent agent(host, cfg, stats);
  host.agent = &agent;
  for (std::uint32_t i = 1; i <= 10; ++i) agent.submit(pkt(i, 0.0));
  // Threshold (10 packets) reached immediately: normal wake-up handshake,
  // nothing sent over the low radio as data.
  ASSERT_EQ(host.low_sent.size(), 1u);
  EXPECT_TRUE(host.low_sent[0].is_control());
  sim.run_until(0.5);
  EXPECT_EQ(agent.stats().packets_sent_low, 0);
}

TEST(DelayPolicy, ValidationRejectsNonPositiveDeadline) {
  BcpConfig cfg = policy_config(DelayPolicy::kFlushHigh, 5.0);
  cfg.max_buffering_delay = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.delay_policy = DelayPolicy::kUnbounded;
  EXPECT_NO_THROW(cfg.validate());  // deadline unused
}

TEST(DelayPolicy, Names) {
  EXPECT_STREQ(to_string(DelayPolicy::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(DelayPolicy::kFlushHigh), "flush-high");
  EXPECT_STREQ(to_string(DelayPolicy::kFallbackLow), "fallback-low");
}

// ---- grid integration ----------------------------------------------------

TEST(DelayPolicyScenario, FlushHighBoundsDeliveryDelay) {
  // Big bursts at a slow rate would buffer for ~640 s; a 60 s deadline
  // must pull the mean delay down near the deadline.
  auto base = app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 5,
                                             500);
  base.rate_bps = 200.0;
  base.duration = 1200.0;
  base.seed = 3;
  const auto unbounded = app::run_scenario(base);

  auto bounded = base;
  bounded.bcp.delay_policy = DelayPolicy::kFlushHigh;
  bounded.bcp.max_buffering_delay = 60.0;
  const auto flushed = app::run_scenario(bounded);

  ASSERT_GT(unbounded.delivered, 0);
  ASSERT_GT(flushed.delivered, 0);
  EXPECT_LT(flushed.mean_delay, 100.0);
  EXPECT_GT(unbounded.mean_delay, 250.0);
  // The price: more wake-ups, worse energy.
  EXPECT_GT(flushed.wifi_wakeup_transitions,
            unbounded.wifi_wakeup_transitions);
  EXPECT_GT(flushed.normalized_energy, unbounded.normalized_energy);
}

TEST(DelayPolicyScenario, FallbackLowDeliversWithoutWifi) {
  auto cfg = app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 5,
                                            500);
  cfg.rate_bps = 200.0;
  cfg.duration = 1200.0;
  cfg.seed = 3;
  cfg.bcp.delay_policy = DelayPolicy::kFallbackLow;
  cfg.bcp.max_buffering_delay = 30.0;
  const auto m = app::run_scenario(cfg);
  ASSERT_GT(m.delivered, 0);
  EXPECT_GT(m.goodput, 0.5);
  EXPECT_LT(m.mean_delay, 60.0);
  // Data rode the sensor radio, so sensor tx energy is substantial
  // relative to the wifi energy (few bursts ever reach the threshold).
  EXPECT_GT(m.sensor_energy.tx, 0.0);
}

}  // namespace
}  // namespace bcp::core
