// Per-node footprint: size ceilings, and run-wide constants shared rather
// than copied.
//
// At 100k nodes every byte of a node assembly costs ~100 KB of RSS. The
// objects every node carries get sizeof ceilings here, each at the size
// measured on x86-64 with libstdc++; a change that grows one has to raise
// its ceiling on purpose. The values that are identical for every node of
// a run (radio energy models, the BCP configuration, the MAC parameters)
// are read in place, and the identity checks below pin that: a node that
// copied one again would hold a different address.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "app/nodes.hpp"
#include "app/partition.hpp"
#include "app/scenario.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_params.hpp"
#include "net/message_ref.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace bcp {
namespace {

// ---- sizeof ceilings -------------------------------------------------------

TEST(Footprint, PerNodeObjectsStayUnderTheirCeilings) {
  EXPECT_LE(sizeof(sim::Timer), 48u);         // measured 48
  EXPECT_LE(sizeof(phy::Radio), 384u);        // measured 384
  EXPECT_LE(sizeof(mac::CsmaCaMac), 456u);    // measured 456
  EXPECT_LE(sizeof(core::BcpAgent), 544u);    // measured 544
  // Both CSMA MACs live inline (app::MacSlot), so this is the whole
  // dual-radio assembly apart from buffered traffic.
  EXPECT_LE(sizeof(app::DualRadioNode), 2336u);  // measured 2336
}

// ---- shared constants ------------------------------------------------------

app::ScenarioConfig validated(app::ScenarioConfig cfg) {
  cfg.validate();
  return cfg;
}

/// One partition over the paper's 36-node grid, built the way the
/// single-queue engine builds it.
struct OnePartition {
  explicit OnePartition(app::ScenarioConfig cfg)
      : config(validated(std::move(cfg))), net(config, 1) {
    if (net.low.graph)
      low.emplace(sim, net.low.graph, net.low.params, net.low.seed);
    if (net.high.graph)
      high.emplace(sim, net.high.graph, net.high.params, net.high.seed);
    part.build(net, 0, sim, low ? &*low : nullptr, high ? &*high : nullptr,
               {}, [](const app::detail::PendingDelta&) {});
  }

  const app::ScenarioConfig config;
  const app::detail::SharedNet net;
  sim::Simulator sim;
  std::optional<phy::Channel> low;
  std::optional<phy::Channel> high;
  app::detail::Partition part;
};

const mac::CsmaCaMac& csma(const mac::Mac& m) {
  return dynamic_cast<const mac::CsmaCaMac&>(m);
}

TEST(Footprint, DualRadioNodesReadRunWideConstantsInPlace) {
  const OnePartition p(
      app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 4, 50));
  for (std::size_t l = 0; l < 36; ++l) {
    const app::DualRadioNode& node = p.part.dual_node(l);
    EXPECT_EQ(&node.sensor_radio().model(), &p.config.sensor_radio);
    EXPECT_EQ(&node.wifi_radio().model(), &p.config.wifi_radio);
    EXPECT_EQ(&node.sensor_radio().meter().model(), &p.config.sensor_radio);
    EXPECT_EQ(&node.agent().config(), &p.net.bcp);
    EXPECT_EQ(&csma(node.sensor_mac()).params(), &p.part.low_mac().csma);
    EXPECT_EQ(&csma(node.wifi_mac()).params(), &p.part.high_mac().csma);
  }
}

TEST(Footprint, EqualRangesShareOneGraphAndRouter) {
  // sh: Mica and Lucent-11 both reach 40 m, so one graph serves both.
  const OnePartition sh(
      app::ScenarioConfig::single_hop(app::EvalModel::kDualRadio, 4, 50));
  EXPECT_EQ(sh.net.low.graph, sh.net.high.graph);
  EXPECT_EQ(sh.net.low.routes, sh.net.high.routes);
  // Channel parameters and seeds stay per class.
  EXPECT_NE(sh.net.low.seed, sh.net.high.seed);
  EXPECT_NE(sh.net.low.params.capture.noise_floor_dbm,
            sh.net.high.params.capture.noise_floor_dbm);
  // mh: the 802.11 radio reaches 300 m and gets its own graph.
  const OnePartition mh(
      app::ScenarioConfig::multi_hop(app::EvalModel::kDualRadio, 4, 50));
  EXPECT_NE(mh.net.low.graph, mh.net.high.graph);
  EXPECT_NE(mh.net.low.routes, mh.net.high.routes);
}

// ---- the flat duplicate filter --------------------------------------------

net::MessageRef data(net::NodeId from, std::uint32_t seq) {
  net::Message m;
  m.src = from;
  m.dst = 0;
  m.body = net::DataPacket{from, 0, seq, util::bytes(32), 0.0};
  return net::make_message(std::move(m));
}

TEST(Footprint, DuplicateFilterTracksEachOfFiveNeighbours) {
  sim::Simulator sim;
  std::vector<net::Position> pos{{0, 0}};
  for (int k = 1; k <= 5; ++k) pos.push_back({5.0 * k, 0});
  phy::Channel channel(sim, pos, 45.0, phy::Channel::Params{0.0}, 11);
  const energy::RadioEnergyModel& model = energy::micaz();
  std::vector<std::unique_ptr<phy::Radio>> radios;
  for (net::NodeId id = 0; id <= 5; ++id)
    radios.push_back(std::make_unique<phy::Radio>(
        sim, channel, id, model, phy::OverhearMode::kNone, true));
  const mac::MacParams params = mac::sensor_mac_params();
  mac::CsmaCaMac rx(sim, *radios[0], params, 1);
  std::vector<std::pair<net::NodeId, std::uint32_t>> delivered;
  rx.set_rx_callback([&](const net::Message& m, net::NodeId from) {
    delivered.emplace_back(from, std::get<net::DataPacket>(m.body).seq);
  });
  // A clean unicast data frame from `from` with link sequence `seq`, then
  // the ack it triggers.
  const auto hear = [&](net::NodeId from, std::uint32_t seq) {
    phy::Frame f;
    f.tx_node = from;
    f.rx_node = 0;
    f.kind = phy::FrameKind::kData;
    f.mac_seq = seq;
    f.payload_bits = util::bytes(32);
    f.header_bits = params.header_bits;
    f.message = data(from, seq);
    radios[0]->callbacks().frame_received(f);
    sim.run();
  };

  for (net::NodeId k = 1; k <= 5; ++k) hear(k, 1);
  EXPECT_EQ(delivered.size(), 5u);
  EXPECT_EQ(rx.stats().acks_sent, 5);

  // Every ack was lost, so each neighbour retransmits seq 1: re-acked,
  // not delivered again.
  for (net::NodeId k = 1; k <= 5; ++k) hear(k, 1);
  EXPECT_EQ(delivered.size(), 5u);
  EXPECT_EQ(rx.stats().rx_duplicates, 5);
  EXPECT_EQ(rx.stats().acks_sent, 10);

  // Histories are per neighbour: 3's next frame passes, its retry does
  // not, and 4's old seq is still a duplicate.
  hear(3, 2);
  hear(3, 2);
  hear(4, 1);
  ASSERT_EQ(delivered.size(), 6u);
  EXPECT_EQ(delivered.back(), std::make_pair(net::NodeId{3}, 2u));
  EXPECT_EQ(rx.stats().rx_duplicates, 7);

  // A rebooted node forgets what it delivered.
  rx.reset_on_crash();
  hear(2, 1);
  ASSERT_EQ(delivered.size(), 7u);
  EXPECT_EQ(delivered.back(), std::make_pair(net::NodeId{2}, 1u));
  EXPECT_EQ(rx.stats().rx_duplicates, 7);
}

}  // namespace
}  // namespace bcp
