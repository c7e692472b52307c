// Tests: the sleep-cycled 802.11 node (§1 motivation baseline).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/duty_cycle.hpp"
#include "app/workload.hpp"
#include "energy/radio_model.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bcp::app {
namespace {

class DutyCycleTest : public ::testing::Test {
 protected:
  // Two nodes in range; node 1 sends to node 0.
  void build(double duty, double period = 1.0) {
    channel_ = std::make_unique<phy::Channel>(
        sim_, std::vector<net::Position>{{0, 0}, {30, 0}}, 50.0,
        phy::Channel::Params{0.0}, 5);
    routes_ = std::make_unique<net::RoutingTable>(
        net::ConnectivityGraph({{0, 0}, {30, 0}}, 50.0));
    delivery_.delivered = [this](const net::DataPacket& p) {
      delivered_.push_back(p);
      delay_sum_ += sim_.now() - p.created_at;
    };
    DutyCycledWifiNode::Schedule schedule{period, duty};
    for (net::NodeId id = 0; id < 2; ++id)
      nodes_.push_back(std::make_unique<DutyCycledWifiNode>(
          sim_, *channel_, *routes_, id, 0, energy::lucent_11mbps(),
          schedule, 7, &delivery_, mac_stats_));
  }
  net::DataPacket pkt(std::uint32_t seq) {
    return net::DataPacket{1, 0, seq, util::bytes(32), sim_.now()};
  }

  sim::Simulator sim_;
  std::unique_ptr<phy::Channel> channel_;
  std::unique_ptr<net::RoutingTable> routes_;
  DeliverySink delivery_;
  mac::Mac::Stats mac_stats_;  ///< shared by both nodes' MACs
  std::vector<std::unique_ptr<DutyCycledWifiNode>> nodes_;
  std::vector<net::DataPacket> delivered_;
  double delay_sum_ = 0;
};

TEST_F(DutyCycleTest, DeliversDuringOpenWindow) {
  build(0.5);
  sim_.schedule_at(0.1, [&] { nodes_[1]->send(pkt(1)); });
  sim_.run_until(0.3);
  EXPECT_EQ(delivered_.size(), 1u);
  EXPECT_LT(delay_sum_, 0.01);  // window open: near-immediate
}

TEST_F(DutyCycleTest, QueuesDuringSleepUntilNextWindow) {
  build(0.1);  // window 0..0.1, sleep until 1.0
  sim_.schedule_at(0.5, [&] { nodes_[1]->send(pkt(1)); });
  sim_.run_until(0.9);
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(nodes_[1]->queued(), 1u);
  sim_.run_until(1.2);
  ASSERT_EQ(delivered_.size(), 1u);
  // Delivered right after the 1.0 s wake-up (+ 100 ms radio wake).
  EXPECT_NEAR(delay_sum_, 0.6, 0.15);
}

TEST_F(DutyCycleTest, RadioSleepsBetweenWindows) {
  build(0.1);
  sim_.run_until(9.99);  // stop just before the 11th window opens
  auto& meter = nodes_[0]->radio().meter();
  meter.finalize(9.99);
  using energy::EnergyCategory;
  const double on_time = meter.duration(EnergyCategory::kIdle) +
                         meter.duration(EnergyCategory::kRx) +
                         meter.duration(EnergyCategory::kTx) +
                         meter.duration(EnergyCategory::kWaking);
  // 10 windows of 0.1 s usable + 0.1 s wake transition each.
  EXPECT_LT(on_time, 2.3);
  EXPECT_GT(meter.duration(EnergyCategory::kOff), 7.5);
  EXPECT_EQ(meter.wakeup_count(), 10);
}

double idle_world_energy(double duty) {
  // A fresh 2-node world with no traffic, 20 simulated seconds.
  sim::Simulator sim;
  phy::Channel channel(sim, {{0, 0}, {30, 0}}, 50.0,
                       phy::Channel::Params{0.0}, 5);
  net::RoutingTable routes{net::ConnectivityGraph({{0, 0}, {30, 0}}, 50.0)};
  DeliverySink delivery;
  delivery.delivered = [](const net::DataPacket&) {};
  mac::Mac::Stats mac_stats;
  DutyCycledWifiNode node(sim, channel, routes, 0, 0,
                          energy::lucent_11mbps(),
                          DutyCycledWifiNode::Schedule{1.0, duty}, 7,
                          &delivery, mac_stats);
  sim.run_until(20.0);
  node.radio().meter().finalize(20.0);
  return node.radio().meter().charged_total(energy::ChargingPolicy::full());
}

TEST(DutyCycleEnergy, ScalesWithDutyButNeverReachesZero) {
  const double high = idle_world_energy(0.5);
  const double low = idle_world_energy(0.05);
  EXPECT_GT(high, 4.0 * low);
  EXPECT_GT(low, 0.0);  // still pays wake-ups + idle every period
}

TEST_F(DutyCycleTest, SteadyTrafficAllDelivered) {
  build(0.2);
  CbrWorkload w(sim_, 1, 0, util::bytes(32), 2000.0, 3,
                [&](net::DataPacket p) { nodes_[1]->send(p); });
  w.start();
  sim_.run_until(30.0);
  // Everything generated at least one full period before the end arrives.
  EXPECT_GT(static_cast<double>(delivered_.size()),
            0.9 * static_cast<double>(w.generated()) - 10);
  const DeliverySink::Drops& drops = delivery_.drops;
  EXPECT_EQ(drops.queue_full, 0);
  EXPECT_EQ(drops.mac_failed, 0);
  EXPECT_EQ(drops.no_route, 0);
  EXPECT_EQ(drops.node_down, 0);
}

TEST_F(DutyCycleTest, InvalidScheduleThrows) {
  channel_ = std::make_unique<phy::Channel>(
      sim_, std::vector<net::Position>{{0, 0}}, 50.0,
      phy::Channel::Params{0.0}, 5);
  routes_ = std::make_unique<net::RoutingTable>(
      net::ConnectivityGraph({{0, 0}}, 50.0));
  delivery_.delivered = [](const net::DataPacket&) {};
  EXPECT_THROW(DutyCycledWifiNode(sim_, *channel_, *routes_, 0, 0,
                                  energy::lucent_11mbps(),
                                  DutyCycledWifiNode::Schedule{1.0, 0.0}, 1,
                                  &delivery_, mac_stats_),
               std::invalid_argument);
  EXPECT_THROW(DutyCycledWifiNode(sim_, *channel_, *routes_, 0, 0,
                                  energy::lucent_11mbps(),
                                  DutyCycledWifiNode::Schedule{0.0, 0.5}, 1,
                                  &delivery_, mac_stats_),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcp::app
