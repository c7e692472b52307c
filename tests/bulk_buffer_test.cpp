// Unit tests: BulkBuffer (per-next-hop accumulation with shared capacity).
#include <gtest/gtest.h>

#include "core/bcp_config.hpp"
#include "core/bulk_buffer.hpp"
#include "energy/breakeven.hpp"
#include "util/units.hpp"

namespace bcp::core {
namespace {

using util::bytes;

net::DataPacket pkt(net::NodeId origin, std::uint32_t seq,
                    util::Bits bits = bytes(32)) {
  return net::DataPacket{origin, 0, seq, bits, 0.0};
}

TEST(BulkBuffer, StartsEmpty) {
  BulkBuffer b(bytes(1024));
  EXPECT_EQ(b.total_bits(), 0);
  EXPECT_EQ(b.total_packets(), 0u);
  EXPECT_EQ(b.free_bits(), bytes(1024));
  EXPECT_TRUE(b.active_next_hops().empty());
  EXPECT_EQ(b.buffered_bits(3), 0);
  EXPECT_EQ(b.queue_count(), 0u);
}

TEST(BulkBuffer, PushAccumulatesPerNextHop) {
  BulkBuffer b(bytes(1024));
  EXPECT_TRUE(b.push(1, pkt(0, 1)));
  EXPECT_TRUE(b.push(1, pkt(0, 2)));
  EXPECT_TRUE(b.push(2, pkt(0, 3)));
  EXPECT_EQ(b.buffered_bits(1), bytes(64));
  EXPECT_EQ(b.buffered_bits(2), bytes(32));
  EXPECT_EQ(b.total_bits(), bytes(96));
  EXPECT_EQ(b.packet_count(1), 2u);
  EXPECT_EQ(b.active_next_hops(), (std::vector<net::NodeId>{1, 2}));
}

TEST(BulkBuffer, CapacityIsSharedAcrossNextHops) {
  BulkBuffer b(bytes(64));
  EXPECT_TRUE(b.push(1, pkt(0, 1)));
  EXPECT_TRUE(b.push(2, pkt(0, 2)));
  EXPECT_FALSE(b.push(3, pkt(0, 3)));  // full: 64 B used of 64 B
  EXPECT_EQ(b.total_bits(), bytes(64));
  EXPECT_EQ(b.free_bits(), 0);
}

TEST(BulkBuffer, RejectedPushLeavesStateUntouched) {
  BulkBuffer b(bytes(32));
  EXPECT_TRUE(b.push(1, pkt(0, 1)));
  EXPECT_FALSE(b.push(1, pkt(0, 2)));
  EXPECT_EQ(b.packet_count(1), 1u);
  EXPECT_EQ(b.total_packets(), 1u);
}

TEST(BulkBuffer, PopUpToRespectsBudgetAndFifo) {
  BulkBuffer b(bytes(1024));
  for (std::uint32_t i = 1; i <= 8; ++i) b.push(1, pkt(0, i));
  const auto out = b.pop_up_to(1, bytes(100));  // fits 3 × 32 B
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].seq, 1u);
  EXPECT_EQ(out[2].seq, 3u);
  EXPECT_EQ(b.buffered_bits(1), bytes(160));
  // Popping frees capacity.
  EXPECT_EQ(b.free_bits(), bytes(1024) - bytes(160));
}

TEST(BulkBuffer, PopEverything) {
  BulkBuffer b(bytes(1024));
  for (std::uint32_t i = 1; i <= 4; ++i) b.push(1, pkt(0, i));
  const auto out = b.pop_up_to(1, bytes(4096));
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(b.buffered_bits(1), 0);
  EXPECT_EQ(b.total_packets(), 0u);
  EXPECT_TRUE(b.active_next_hops().empty());
}

TEST(BulkBuffer, PopFromUnknownNextHopIsEmpty) {
  BulkBuffer b(bytes(1024));
  EXPECT_TRUE(b.pop_up_to(9, bytes(100)).empty());
}

TEST(BulkBuffer, FirstPacketLargerThanBudgetStays) {
  BulkBuffer b(bytes(4096));
  b.push(1, pkt(0, 1, bytes(256)));
  EXPECT_TRUE(b.pop_up_to(1, bytes(100)).empty());
  EXPECT_EQ(b.buffered_bits(1), bytes(256));
}

TEST(BulkBuffer, InterleavedPushPopKeepsOrder) {
  BulkBuffer b(bytes(4096));
  for (std::uint32_t i = 1; i <= 4; ++i) b.push(1, pkt(0, i));
  auto first = b.pop_up_to(1, bytes(64));
  for (std::uint32_t i = 5; i <= 8; ++i) b.push(1, pkt(0, i));
  auto second = b.pop_up_to(1, bytes(4096));
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 6u);
  EXPECT_EQ(second.front().seq, 3u);
  EXPECT_EQ(second.back().seq, 8u);
}

TEST(BulkBuffer, ManyPopsCompactInternally) {
  // Regression guard for the head-compaction path: repeated small pops
  // must not corrupt accounting.
  BulkBuffer b(1 << 20);
  for (std::uint32_t i = 1; i <= 1000; ++i) b.push(1, pkt(0, i));
  std::uint32_t expect = 1;
  for (int round = 0; round < 100; ++round) {
    const auto out = b.pop_up_to(1, bytes(320));  // 10 packets
    ASSERT_EQ(out.size(), 10u);
    for (const auto& p : out) EXPECT_EQ(p.seq, expect++);
  }
  EXPECT_EQ(b.total_packets(), 0u);
  EXPECT_EQ(b.total_bits(), 0);
}

TEST(BulkBuffer, DrainedQueueReleasesItsEntry) {
  // A queue drained by either pop gives its entry back; the next burst to
  // the same hop starts a fresh queue that behaves exactly like the first.
  BulkBuffer b(bytes(1024));
  ASSERT_TRUE(b.push(2, pkt(0, 99)));  // another hop keeps its queue
  const auto burst = [&b](std::uint32_t first_seq) {
    for (std::uint32_t i = 0; i < 4; ++i)
      ASSERT_TRUE(b.push(1, pkt(0, first_seq + i)));
    EXPECT_EQ(b.queue_count(), 2u);
    EXPECT_EQ(b.buffered_bits(1), bytes(128));
    EXPECT_EQ(b.free_bits(), bytes(1024 - 160));
    EXPECT_EQ(b.oldest_created_at(1), 0.0);
  };
  const auto expect_released = [&b] {
    EXPECT_EQ(b.queue_count(), 1u);
    EXPECT_EQ(b.packet_count(1), 0u);
    EXPECT_EQ(b.buffered_bits(1), 0);
    EXPECT_EQ(b.free_bits(), bytes(1024 - 32));
    EXPECT_FALSE(b.oldest_created_at(1).has_value());
    EXPECT_EQ(b.active_next_hops(), (std::vector<net::NodeId>{2}));
  };

  burst(1);
  const auto out = b.pop_up_to(1, bytes(4096));
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].seq, 1 + i);
  expect_released();

  burst(11);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto p = b.pop_front(1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, 11 + i);
    EXPECT_EQ(p->payload_bits, bytes(32));
  }
  EXPECT_FALSE(b.pop_front(1).has_value());
  expect_released();

  burst(21);
  const auto again = b.pop_up_to(1, bytes(64));
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].seq, 21u);
  EXPECT_EQ(again[1].seq, 22u);
  EXPECT_EQ(b.queue_count(), 2u);  // part-drained: the entry stays
  EXPECT_EQ(b.pop_up_to(1, bytes(64)).size(), 2u);
  expect_released();
  EXPECT_EQ(b.pop_front(2)->seq, 99u);
  EXPECT_EQ(b.queue_count(), 0u);
  EXPECT_EQ(b.free_bits(), bytes(1024));
}

TEST(BulkBuffer, InvalidArgumentsThrow) {
  EXPECT_THROW(BulkBuffer(0), std::invalid_argument);
  BulkBuffer b(bytes(64));
  EXPECT_THROW(b.push(-1, pkt(0, 1)), std::invalid_argument);
  net::DataPacket zero = pkt(0, 1, 0);
  EXPECT_THROW(b.push(1, zero), std::invalid_argument);
  EXPECT_THROW(b.pop_up_to(1, -1), std::invalid_argument);
}

TEST(BcpConfig, ValidationCatchesBadCombos) {
  BcpConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.burst_threshold_bits = cfg.buffer_capacity_bits + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = BcpConfig{};
  cfg.frame_payload_bits = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = BcpConfig{};
  cfg.max_wakeup_retries = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(BcpConfig, BurstPacketsHelper) {
  BcpConfig cfg;
  cfg.set_burst_packets(500, util::bytes(32));
  EXPECT_EQ(cfg.burst_threshold_bits, 500 * util::bytes(32));
  EXPECT_THROW(cfg.set_burst_packets(0, util::bytes(32)),
               std::invalid_argument);
}

TEST(BcpConfig, FromAnalysisUsesAlphaTimesSStar) {
  auto analysis = energy::DualRadioAnalysis::standard(
      energy::mica(), energy::lucent_11mbps());
  const auto cfg = BcpConfig::from_analysis(analysis, 10.0);
  ASSERT_TRUE(analysis.break_even_bits().has_value());
  EXPECT_EQ(cfg.burst_threshold_bits, 10 * *analysis.break_even_bits());
}

TEST(BcpConfig, FromAnalysisRejectsInfeasiblePairs) {
  auto analysis = energy::DualRadioAnalysis::standard(
      energy::micaz(), energy::cabletron_2mbps());
  EXPECT_THROW(BcpConfig::from_analysis(analysis, 2.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace bcp::core
