// Unit tests: CSMA/CA MAC — acks, retries, duplicate suppression, queue
// behaviour, contention.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "energy/radio_model.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_params.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace bcp::mac {
namespace {

using net::NodeId;

net::Message data_msg(NodeId src, NodeId dst, std::uint32_t seq = 1) {
  net::Message m;
  m.src = src;
  m.dst = dst;
  m.body = net::DataPacket{src, dst, seq, util::bytes(32), 0.0};
  return m;
}

struct Station {
  std::unique_ptr<phy::Radio> radio;
  std::unique_ptr<CsmaCaMac> mac;
  std::vector<net::Message> received;
  std::vector<bool> tx_results;
};

class MacTest : public ::testing::Test {
 protected:
  // Three stations in mutual range by default.
  void build(double loss, util::Metres spread = 10.0) {
    channel_ = std::make_unique<phy::Channel>(
        sim_, std::vector<net::Position>{{0, 0}, {spread, 0}, {2 * spread, 0}},
        45.0, phy::Channel::Params{loss}, 99);
    for (NodeId i = 0; i < 3; ++i) {
      auto& st = stations_[static_cast<std::size_t>(i)];
      st.radio = std::make_unique<phy::Radio>(sim_, *channel_, i,
                                              energy::micaz(),
                                              phy::OverhearMode::kNone, true);
      st.mac = std::make_unique<CsmaCaMac>(sim_, *st.radio, params_,
                                           1000 + static_cast<std::uint64_t>(i));
      st.mac->set_rx_callback([&st](const net::Message& m, NodeId) {
        st.received.push_back(m);
      });
      st.mac->set_tx_done_callback(
          [&st](const net::Message&, NodeId, bool ok) {
            st.tx_results.push_back(ok);
          });
    }
  }
  sim::Simulator sim_;
  const MacParams params_ = sensor_mac_params();
  std::unique_ptr<phy::Channel> channel_;
  Station stations_[3];
};

TEST_F(MacTest, UnicastDeliveredAndAcked) {
  build(0.0);
  EXPECT_TRUE(stations_[0].mac->enqueue(data_msg(0, 1), 1));
  sim_.run();
  ASSERT_EQ(stations_[1].received.size(), 1u);
  ASSERT_EQ(stations_[0].tx_results.size(), 1u);
  EXPECT_TRUE(stations_[0].tx_results[0]);
  EXPECT_EQ(stations_[0].mac->stats().tx_attempts, 1);
  EXPECT_EQ(stations_[1].mac->stats().acks_sent, 1);
  EXPECT_TRUE(stations_[0].mac->idle());
}

TEST_F(MacTest, FullyLossyLinkExhaustsEveryRetry) {
  // frame_loss_prob == 1.0 (now a valid, closed-interval config): nothing
  // ever arrives clean, so the sender burns first tx + every retry and
  // reports failure; the receiver delivers (and acks) nothing.
  build(1.0);
  EXPECT_TRUE(stations_[0].mac->enqueue(data_msg(0, 1), 1));
  sim_.run();
  EXPECT_TRUE(stations_[1].received.empty());
  ASSERT_EQ(stations_[0].tx_results.size(), 1u);
  EXPECT_FALSE(stations_[0].tx_results[0]);
  const auto& stats = stations_[0].mac->stats();
  EXPECT_EQ(stats.tx_failed, 1);
  EXPECT_EQ(stats.tx_attempts,
            1 + stations_[0].mac->params().retry_limit);
  EXPECT_EQ(stations_[1].mac->stats().acks_sent, 0);
}

TEST_F(MacTest, QueueDrainsInOrder) {
  build(0.0);
  for (std::uint32_t i = 1; i <= 5; ++i)
    EXPECT_TRUE(stations_[0].mac->enqueue(data_msg(0, 1, i), 1));
  sim_.run();
  ASSERT_EQ(stations_[1].received.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto& p = std::get<net::DataPacket>(
        stations_[1].received[i].body);
    EXPECT_EQ(p.seq, i + 1);
  }
}

TEST_F(MacTest, RetriesUntilSuccessUnderLoss) {
  build(0.4);  // 40% frame loss, both directions
  for (std::uint32_t i = 1; i <= 50; ++i)
    stations_[0].mac->enqueue(data_msg(0, 1, i), 1);
  sim_.run();
  // With 3 retransmissions the per-frame failure odds are tiny; most
  // frames arrive, and attempts clearly exceed successes.
  EXPECT_GT(stations_[1].received.size(), 40u);
  EXPECT_GT(stations_[0].mac->stats().tx_attempts, 55);
}

TEST_F(MacTest, GivesUpAfterRetryLimit) {
  build(0.0);
  // Receiver powered off: no acks ever come back.
  stations_[1].radio->power_off();
  stations_[0].mac->enqueue(data_msg(0, 1), 1);
  sim_.run();
  ASSERT_EQ(stations_[0].tx_results.size(), 1u);
  EXPECT_FALSE(stations_[0].tx_results[0]);
  // 1 initial + retry_limit retransmissions.
  EXPECT_EQ(stations_[0].mac->stats().tx_attempts,
            1 + sensor_mac_params().retry_limit);
  EXPECT_EQ(stations_[0].mac->stats().tx_failed, 1);
}

TEST_F(MacTest, DuplicatesSuppressedWhenAckLost) {
  // Force the data->ack direction to lose the ack once: use heavy loss and
  // verify the receiver never delivers the same seq twice.
  build(0.3);
  for (std::uint32_t i = 1; i <= 30; ++i)
    stations_[0].mac->enqueue(data_msg(0, 1, i), 1);
  sim_.run();
  std::vector<std::uint32_t> seqs;
  for (const auto& m : stations_[1].received)
    seqs.push_back(std::get<net::DataPacket>(m.body).seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_TRUE(std::adjacent_find(seqs.begin(), seqs.end()) == seqs.end())
      << "duplicate delivery";
  // The MAC itself observed duplicates (and re-acked them) if any ack was
  // lost; that is allowed — we only assert the upper layer saw each once.
}

TEST_F(MacTest, BroadcastHasNoAckAndNoRetry) {
  build(0.0);
  net::Message m = data_msg(0, net::kBroadcastNode);
  EXPECT_TRUE(stations_[0].mac->enqueue(m, net::kBroadcastNode));
  sim_.run();
  EXPECT_EQ(stations_[0].mac->stats().tx_attempts, 1);
  EXPECT_EQ(stations_[0].mac->stats().tx_success, 1);
  // Both neighbours deliver it.
  EXPECT_EQ(stations_[1].received.size(), 1u);
  EXPECT_EQ(stations_[2].received.size(), 1u);
  EXPECT_EQ(stations_[1].mac->stats().acks_sent, 0);
}

TEST_F(MacTest, QueueFullDropsTail) {
  build(0.0);
  MacParams tiny = sensor_mac_params();
  tiny.max_queue = 2;
  // A tiny-queue MAC on station 0's radio (replaces its callbacks; fine —
  // this test only exercises enqueue admission).
  CsmaCaMac mac(sim_, *stations_[0].radio, tiny, 5);
  EXPECT_TRUE(mac.enqueue(data_msg(0, 1, 1), 1));
  EXPECT_TRUE(mac.enqueue(data_msg(0, 1, 2), 1));
  EXPECT_FALSE(mac.enqueue(data_msg(0, 1, 3), 1));
  EXPECT_EQ(mac.stats().queue_drops, 1);
}

TEST_F(MacTest, ContendingSendersBothSucceed) {
  build(0.0);
  // Stations 0 and 2 both send to 1 at the same instant; CSMA separates
  // them (or retries resolve the collision).
  stations_[0].mac->enqueue(data_msg(0, 1, 1), 1);
  stations_[2].mac->enqueue(data_msg(2, 1, 1), 1);
  sim_.run();
  EXPECT_EQ(stations_[1].received.size(), 2u);
}

TEST_F(MacTest, ManyFramesUnderContentionMostlyArrive) {
  build(0.0);
  for (std::uint32_t i = 1; i <= 40; ++i) {
    stations_[0].mac->enqueue(data_msg(0, 1, i), 1);
    stations_[2].mac->enqueue(data_msg(2, 1, i), 1);
  }
  sim_.run();
  EXPECT_GE(stations_[1].received.size(), 70u);  // near-lossless medium
}

TEST_F(MacTest, FlushQueueFailsEverythingPending) {
  build(0.0);
  stations_[1].radio->power_off();  // acks never come: frames linger
  for (std::uint32_t i = 1; i <= 4; ++i)
    stations_[0].mac->enqueue(data_msg(0, 1, i), 1);
  sim_.schedule_at(0.001, [&] { stations_[0].mac->flush_queue(); });
  sim_.run();
  EXPECT_EQ(stations_[0].tx_results.size(), 4u);
  for (const bool ok : stations_[0].tx_results) EXPECT_FALSE(ok);
  EXPECT_TRUE(stations_[0].mac->idle());
}

TEST_F(MacTest, RadioPoweredOffFailsFrameInsteadOfSpinning) {
  build(0.0);
  stations_[0].mac->enqueue(data_msg(0, 1), 1);
  stations_[0].radio->power_off();  // before backoff expires
  sim_.run();
  ASSERT_EQ(stations_[0].tx_results.size(), 1u);
  EXPECT_FALSE(stations_[0].tx_results[0]);
}

TEST_F(MacTest, EnqueueToSelfThrows) {
  build(0.0);
  EXPECT_THROW(stations_[0].mac->enqueue(data_msg(0, 0), 0),
               std::invalid_argument);
}

TEST(MacParams, SensorAndDcfShapes) {
  const auto s = sensor_mac_params();
  EXPECT_FALSE(s.exponential_backoff);
  EXPECT_EQ(s.cw_min, s.cw_max);
  EXPECT_EQ(s.retry_limit, 3);
  EXPECT_EQ(s.max_queue, 5000u);
  EXPECT_EQ(s.header_bits, util::bytes(11));

  const auto d = dcf_mac_params();
  EXPECT_TRUE(d.exponential_backoff);
  EXPECT_EQ(d.cw_min, 31);
  EXPECT_EQ(d.cw_max, 1023);
  EXPECT_EQ(d.retry_limit, 7);
  EXPECT_DOUBLE_EQ(d.slot, 20e-6);
  EXPECT_DOUBLE_EQ(d.sifs, 10e-6);
  EXPECT_DOUBLE_EQ(d.difs, 50e-6);
}

TEST(MacDcf, HighRateTransferIsFast) {
  // 80 frames of 1 KB at 11 Mb/s should take ~ 80 * (frame + overhead)
  // — well under 150 ms including DIFS/backoff/acks.
  sim::Simulator sim;
  phy::Channel ch(sim, {{0, 0}, {10, 0}}, 50.0, phy::Channel::Params{0.0},
                  3);
  phy::Radio r0(sim, ch, 0, energy::lucent_11mbps(),
                phy::OverhearMode::kNone, true);
  phy::Radio r1(sim, ch, 1, energy::lucent_11mbps(),
                phy::OverhearMode::kNone, true);
  const MacParams dcf = dcf_mac_params();
  CsmaCaMac m0(sim, r0, dcf, 1);
  CsmaCaMac m1(sim, r1, dcf, 2);
  int got = 0;
  m1.set_rx_callback([&](const net::Message&, NodeId) { ++got; });
  for (std::uint32_t i = 1; i <= 80; ++i) {
    net::Message m;
    m.src = 0;
    m.dst = 1;
    net::BulkFrame f;
    f.sender = 0;
    f.receiver = 1;
    f.index = static_cast<std::uint16_t>(i - 1);
    f.total = 80;
    for (int k = 0; k < 32; ++k)
      f.packets.push_back(net::DataPacket{0, 1, i * 100 + static_cast<std::uint32_t>(k),
                                          util::bytes(32), 0.0});
    m.body = f;
    m0.enqueue(m, 1);
  }
  sim.run();
  EXPECT_EQ(got, 80);
  EXPECT_LT(sim.now(), 0.15);
}

}  // namespace
}  // namespace bcp::mac
