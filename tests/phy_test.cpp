// Unit tests: channel semantics (range, collisions, losses, carrier sense)
// and the radio power/reception state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "energy/radio_model.hpp"
#include "net/topology.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "test_hosts.hpp"

namespace bcp::phy {
namespace {

using net::NodeId;
using net::Position;

Frame make_frame(NodeId from, NodeId to, util::Bits payload = 256,
                 util::Bits header = 88) {
  Frame f;
  f.tx_node = from;
  f.rx_node = to;
  f.kind = FrameKind::kData;
  f.mac_seq = 1;
  f.payload_bits = payload;
  f.header_bits = header;
  net::Message m;
  m.src = from;
  m.dst = to;
  m.body = net::DataPacket{from, to, 1, payload, 0.0};
  f.message = net::make_message(std::move(m));
  return f;
}

/// Records every channel callback for one node.
class Probe : public ChannelListener {
 public:
  struct Rx {
    std::uint64_t id;
    bool clean;
  };
  void on_rx_start(std::uint64_t, const Frame&, util::Seconds) override {
    ++starts;
  }
  void on_rx_end(std::uint64_t id, const Frame&, bool clean) override {
    ends.push_back(Rx{id, clean});
  }
  int starts = 0;
  std::vector<Rx> ends;
};

class ChannelTest : public ::testing::Test {
 protected:
  // Line topology: 0 -- 50m -- 1 -- 50m -- 2; range 60 m, so 0 and 2 are
  // hidden terminals with respect to each other.
  ChannelTest()
      : channel_(sim_, {{0, 0}, {50, 0}, {100, 0}}, 60.0,
                 Channel::Params{0.0}, 1) {
    for (auto& p : probes_) p = std::make_unique<Probe>();
    for (NodeId i = 0; i < 3; ++i) channel_.attach(i, probes_[i].get());
  }
  sim::Simulator sim_;
  Channel channel_;
  std::unique_ptr<Probe> probes_[3];
};

TEST_F(ChannelTest, DeliversCleanWithinRange) {
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  sim_.run();
  ASSERT_EQ(probes_[1]->ends.size(), 1u);
  EXPECT_TRUE(probes_[1]->ends[0].clean);
  EXPECT_EQ(probes_[2]->starts, 0);  // out of range of node 0
}

TEST_F(ChannelTest, NeighborsHearFramesNotAddressedToThem) {
  channel_.start_tx(1, make_frame(1, 2), 0.01);
  sim_.run();
  EXPECT_EQ(probes_[0]->starts, 1);  // in range — overhears
  EXPECT_EQ(probes_[2]->starts, 1);
}

TEST_F(ChannelTest, OverlappingTransmissionsCollideAtCommonReceiver) {
  // Hidden terminals 0 and 2 transmit simultaneously: node 1 hears both,
  // both corrupted.
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  channel_.start_tx(2, make_frame(2, 1), 0.01);
  sim_.run();
  ASSERT_EQ(probes_[1]->ends.size(), 2u);
  EXPECT_FALSE(probes_[1]->ends[0].clean);
  EXPECT_FALSE(probes_[1]->ends[1].clean);
}

TEST_F(ChannelTest, PartialOverlapAlsoCollides) {
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  sim_.schedule_at(0.009, [&] {
    channel_.start_tx(2, make_frame(2, 1), 0.01);
  });
  sim_.run();
  ASSERT_EQ(probes_[1]->ends.size(), 2u);
  EXPECT_FALSE(probes_[1]->ends[0].clean);
  EXPECT_FALSE(probes_[1]->ends[1].clean);
}

TEST_F(ChannelTest, BackToBackFramesDoNotCollide) {
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  sim_.schedule_at(0.0101, [&] {
    channel_.start_tx(2, make_frame(2, 1), 0.01);
  });
  sim_.run();
  ASSERT_EQ(probes_[1]->ends.size(), 2u);
  EXPECT_TRUE(probes_[1]->ends[0].clean);
  EXPECT_TRUE(probes_[1]->ends[1].clean);
}

TEST_F(ChannelTest, TransmitterCannotHearWhileTransmitting) {
  // Node 1 transmits; node 0's frame to 1 overlaps -> corrupted at 1.
  channel_.start_tx(1, make_frame(1, 2), 0.01);
  channel_.start_tx(0, make_frame(0, 1), 0.005);
  sim_.run();
  ASSERT_EQ(probes_[1]->ends.size(), 1u);  // hears only node 0's frame
  EXPECT_FALSE(probes_[1]->ends[0].clean);
}

TEST_F(ChannelTest, CollisionIsLocalNotGlobal) {
  // 0->1 and 2->1 collide at 1, but node 2's frame... use a different
  // pattern: 0 transmits, 2 transmits; node 1 sees collision. Node 0 and 2
  // hear nothing (out of range of each other), so no corruption there.
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  channel_.start_tx(2, make_frame(2, 1), 0.01);
  sim_.run();
  EXPECT_EQ(probes_[0]->starts, 0);
  EXPECT_EQ(probes_[2]->starts, 0);
}

TEST_F(ChannelTest, CarrierSenseTracksAudibleTraffic) {
  EXPECT_FALSE(channel_.busy_at(0));
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  EXPECT_TRUE(channel_.busy_at(0));  // own transmission
  EXPECT_TRUE(channel_.busy_at(1));
  EXPECT_FALSE(channel_.busy_at(2));  // hidden from node 0
  EXPECT_DOUBLE_EQ(channel_.clear_at(1), 0.01);
  sim_.run();
  EXPECT_FALSE(channel_.busy_at(1));
  EXPECT_DOUBLE_EQ(channel_.clear_at(1), sim_.now());
}

TEST_F(ChannelTest, StatsCountCleanAndCorrupt) {
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  sim_.run();
  EXPECT_EQ(channel_.stats().frames, 1);
  EXPECT_EQ(channel_.stats().deliveries_clean, 1);
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  channel_.start_tx(2, make_frame(2, 1), 0.01);
  sim_.run();
  EXPECT_EQ(channel_.stats().deliveries_corrupt, 2);
}

TEST_F(ChannelTest, DoubleTransmitFromSameNodeThrows) {
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  EXPECT_THROW(channel_.start_tx(0, make_frame(0, 1), 0.01),
               std::invalid_argument);
}

TEST(ChannelLoss, BernoulliLossDropsRoughlyTheConfiguredFraction) {
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {10, 0}}, 50.0, Channel::Params{0.3}, 42);
  Probe p;
  ch.attach(1, &p);
  int clean = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(i * 1.0, [&] { ch.start_tx(0, make_frame(0, 1), 0.01); });
  }
  sim.run();
  for (const auto& e : p.ends)
    if (e.clean) ++clean;
  EXPECT_NEAR(static_cast<double>(clean) / n, 0.7, 0.04);
}

TEST(ChannelLoss, InvalidLossProbabilityThrows) {
  sim::Simulator sim;
  EXPECT_THROW(Channel(sim, {{0, 0}}, 50.0, Channel::Params{-0.1}, 1),
               std::invalid_argument);
  EXPECT_THROW(Channel(sim, {{0, 0}}, 50.0, Channel::Params{1.01}, 1),
               std::invalid_argument);
  // The closed interval is valid: 1.0 is a fully lossy link, not an error.
  EXPECT_NO_THROW(Channel(sim, {{0, 0}}, 50.0, Channel::Params{1.0}, 1));
}

TEST(ChannelLoss, FullLossYieldsZeroCleanDeliveries) {
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {10, 0}}, 50.0, Channel::Params{1.0}, 42);
  Probe p;
  ch.attach(1, &p);
  const int n = 50;
  for (int i = 0; i < n; ++i)
    sim.schedule_at(i * 1.0, [&] { ch.start_tx(0, make_frame(0, 1), 0.01); });
  sim.run();
  ASSERT_EQ(p.ends.size(), static_cast<std::size_t>(n));
  for (const auto& e : p.ends) EXPECT_FALSE(e.clean);
  EXPECT_EQ(ch.stats().deliveries_clean, 0);
  EXPECT_EQ(ch.stats().deliveries_corrupt, n);
}

TEST(ChannelPartition, SlotsAreStripeSizedFromConstruction) {
  sim::Simulator sim;
  const auto graph = std::make_shared<const net::ConnectivityGraph>(
      std::vector<Position>{{0, 0}, {30, 0}, {60, 0}, {90, 0}, {120, 0}},
      40.0);
  // Stripe 1 of two owns nodes 3 and 4.
  const std::vector<std::int32_t> shard_of{0, 0, 0, 1, 1};
  const std::vector<std::int32_t> local_of{0, 1, 2, 0, 1};
  std::vector<std::pair<std::int32_t, NodeId>> exported;
  const auto spec = [&] {
    Channel::ShardingSpec s;
    s.stripe = net::Stripe{shard_of.data(), local_of.data(), 1, 2};
    s.shard_count = 2;
    s.emit = [&exported](std::int32_t dst, Channel::RemoteFrame&& rf) {
      exported.emplace_back(dst, rf.src);
    };
    return s;
  };
  Channel part(sim, graph, Channel::Params{}, 1, spec());
  EXPECT_EQ(part.node_slots(), 2u);
  EXPECT_EQ(Channel(sim, graph, Channel::Params{}, 1).node_slots(), 5u);

  // Owned hearers are served locally, the other stripe's once by export.
  Probe p4;
  part.attach(4, &p4);
  EXPECT_THROW(part.attach(1, &p4), std::invalid_argument);
  part.start_tx(3, make_frame(3, 4), 0.01);
  sim.run();
  EXPECT_EQ(p4.ends.size(), 1u);
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0], (std::pair<std::int32_t, NodeId>{0, 3}));

  Channel::ShardingSpec no_emit = spec();
  no_emit.emit = nullptr;
  EXPECT_THROW(Channel(sim, graph, Channel::Params{}, 1, std::move(no_emit)),
               std::invalid_argument);
  Channel::ShardingSpec bad_shard = spec();
  bad_shard.stripe.shard = 2;
  EXPECT_THROW(
      Channel(sim, graph, Channel::Params{}, 1, std::move(bad_shard)),
      std::invalid_argument);
}

// ---------------------------------------------------------- Propagation --

/// Neighbour index of `dst` in graph.neighbors(src) (asserts it exists).
std::size_t nbr_index(const net::ConnectivityGraph& graph, NodeId src,
                      NodeId dst) {
  const auto nbrs = graph.neighbors(src);
  for (std::size_t i = 0; i < nbrs.size(); ++i)
    if (nbrs[i] == dst) return i;
  ADD_FAILURE() << dst << " not a neighbour of " << src;
  return 0;
}

TEST(Propagation, AutoResolvesToUnitDiscWithTheExtraLossKnob) {
  const net::ConnectivityGraph graph({{0, 0}, {10, 0}, {35, 0}}, 40.0);
  const auto model =
      make_propagation_model(PropagationSpec{}, graph, 0.25, 1);
  EXPECT_EQ(model->kind(), PropagationKind::kUnitDisc);
  EXPECT_TRUE(model->uniform());
  EXPECT_DOUBLE_EQ(model->loss_prob(0, 0, 1), 0.25);
  EXPECT_DOUBLE_EQ(model->loss_prob(1, 1, 2), 0.25);  // every link alike
}

TEST(Propagation, LogDistancePerGrowsWithDistanceAndIsSymmetric) {
  const net::ConnectivityGraph graph({{0, 0}, {10, 0}, {35, 0}}, 40.0);
  PropagationSpec spec;
  spec.kind = PropagationKind::kLogDistance;
  spec.shadowing_sigma_db = 0.0;  // isolate the distance term
  const auto model = make_propagation_model(spec, graph, 0.0, 1);
  EXPECT_FALSE(model->uniform());
  const double near = model->loss_prob(0, nbr_index(graph, 0, 1), 1);
  const double far = model->loss_prob(0, nbr_index(graph, 0, 2), 2);
  EXPECT_GE(near, 0.0);
  EXPECT_LE(far, 1.0);
  EXPECT_LT(near, far);  // 10 m link beats the 35 m link
  // Symmetric per link.
  EXPECT_DOUBLE_EQ(model->loss_prob(1, nbr_index(graph, 1, 0), 0), near);
  EXPECT_DOUBLE_EQ(model->loss_prob(2, nbr_index(graph, 2, 0), 0), far);
}

TEST(Propagation, LogDistanceShadowingIsFrozenPerLinkAndSeed) {
  const net::ConnectivityGraph graph({{0, 0}, {30, 0}, {30, 30}}, 50.0);
  PropagationSpec spec;
  spec.kind = PropagationKind::kLogDistance;
  spec.shadowing_sigma_db = 6.0;
  const auto a = make_propagation_model(spec, graph, 0.0, 9);
  const auto b = make_propagation_model(spec, graph, 0.0, 9);
  const auto c = make_propagation_model(spec, graph, 0.0, 10);
  const std::size_t i01 = nbr_index(graph, 0, 1);
  // Same seed — identical frozen PER; different seed — different shadow.
  EXPECT_DOUBLE_EQ(a->loss_prob(0, i01, 1), b->loss_prob(0, i01, 1));
  EXPECT_NE(a->loss_prob(0, i01, 1), c->loss_prob(0, i01, 1));
  // Symmetric even under shadowing (one draw per unordered pair).
  EXPECT_DOUBLE_EQ(a->loss_prob(0, i01, 1),
                   a->loss_prob(1, nbr_index(graph, 1, 0), 0));
}

TEST(Propagation, DistancePerInterpolatesTheCurve) {
  // Range 100: knots at 0 %, 50 %, 100 % of the disc.
  const net::ConnectivityGraph graph({{0, 0}, {25, 0}, {75, 0}}, 100.0);
  PropagationSpec spec;
  spec.kind = PropagationKind::kDistancePer;
  spec.per_curve = {{0.0, 0.0}, {0.5, 0.2}, {1.0, 1.0}};
  const auto model = make_propagation_model(spec, graph, 0.0, 1);
  // d = 25 → halfway to the 0.5 knot → per 0.1; d = 50 (node 1→2) → 0.2;
  // d = 75 → halfway from 0.2 to 1.0 → 0.6.
  EXPECT_NEAR(model->loss_prob(0, nbr_index(graph, 0, 1), 1), 0.1, 1e-12);
  EXPECT_NEAR(model->loss_prob(1, nbr_index(graph, 1, 2), 2), 0.2, 1e-12);
  EXPECT_NEAR(model->loss_prob(0, nbr_index(graph, 0, 2), 2), 0.6, 1e-12);
}

TEST(Propagation, RxPowerFollowsTheLinkBudget) {
  // The dBm accessor is the human-facing face of the capture power model;
  // rx_power_mw is its precomputed linear twin the Channel's hot path
  // reads. Log-distance anchors the disc edge at edge_rx_power_dbm and
  // climbs 10·n·log10(range/d) toward the transmitter.
  const net::ConnectivityGraph graph({{0, 0}, {4, 0}, {36, 0}}, 40.0);
  PropagationSpec spec;
  spec.kind = PropagationKind::kLogDistance;
  spec.shadowing_sigma_db = 0.0;  // isolate the distance term
  const auto model = make_propagation_model(spec, graph, 0.0, 1);
  // 4 m link: -80 + 30·log10(40/4) = -50 dBm; 36 m link ≈ -78.6 dBm.
  EXPECT_NEAR(model->rx_power_dbm(0, nbr_index(graph, 0, 1), 1), -50.0,
              1e-9);
  EXPECT_NEAR(model->rx_power_dbm(0, nbr_index(graph, 0, 2), 2),
              -80.0 + 30.0 * std::log10(40.0 / 36.0), 1e-9);
  EXPECT_DOUBLE_EQ(model->rx_power_mw(0, nbr_index(graph, 0, 1), 1),
                   util::dbm_to_mw(model->rx_power_dbm(
                       0, nbr_index(graph, 0, 1), 1)));
  // Unit-disc (and distance-PER) links share one fixed on/off power.
  const auto disc = make_propagation_model(PropagationSpec{}, graph, 0.0, 1);
  EXPECT_DOUBLE_EQ(disc->rx_power_dbm(0, 0, 1), -60.0);
  EXPECT_DOUBLE_EQ(disc->rx_power_mw(0, 0, 1), util::dbm_to_mw(-60.0));
}

TEST(Propagation, ExtraLossComposesIndependently) {
  const net::ConnectivityGraph graph({{0, 0}, {50, 0}}, 100.0);
  PropagationSpec spec;
  spec.kind = PropagationKind::kDistancePer;
  spec.per_curve = {{0.0, 0.5}, {1.0, 0.5}};
  const auto model = make_propagation_model(spec, graph, 0.2, 1);
  // p = per + extra − per·extra = 0.5 + 0.2 − 0.1 = 0.6.
  EXPECT_NEAR(model->loss_prob(0, 0, 1), 0.6, 1e-12);
}

TEST(Propagation, InvalidSpecsThrow) {
  const net::ConnectivityGraph graph({{0, 0}, {10, 0}}, 40.0);
  PropagationSpec spec;
  spec.kind = PropagationKind::kLogDistance;
  spec.path_loss_exponent = 0.0;
  EXPECT_THROW(make_propagation_model(spec, graph, 0.0, 1),
               std::invalid_argument);
  spec = PropagationSpec{};
  spec.kind = PropagationKind::kDistancePer;
  spec.per_curve = {{0.0, 1.5}};  // per outside [0, 1]
  EXPECT_THROW(make_propagation_model(spec, graph, 0.0, 1),
               std::invalid_argument);
  spec.per_curve = {{0.5, 0.1}, {0.2, 0.1}};  // unsorted knots
  EXPECT_THROW(make_propagation_model(spec, graph, 0.0, 1),
               std::invalid_argument);
}

TEST(Propagation, LossyChannelStillConservesDeliveries) {
  // End-to-end through the Channel: per-link PER changes who receives
  // cleanly, never whether rx_end fires.
  sim::Simulator sim;
  Channel::Params params;
  params.propagation.kind = PropagationKind::kLogDistance;
  Channel ch(sim, {{0, 0}, {38, 0}, {76, 0}}, 40.0, params, 11);
  Probe p1;
  ch.attach(1, &p1);
  const int n = 200;
  for (int i = 0; i < n; ++i)
    sim.schedule_at(i * 1.0, [&] { ch.start_tx(0, make_frame(0, 1), 0.01); });
  sim.run();
  EXPECT_EQ(ch.stats().rx_starts,
            ch.stats().deliveries_clean + ch.stats().deliveries_corrupt);
  EXPECT_EQ(ch.live_arrivals(), 0);
  ASSERT_EQ(p1.ends.size(), static_cast<std::size_t>(n));
  // A 38 m link at the 40 m disc edge under log-distance loss: some but
  // not all deliveries survive.
  int clean = 0;
  for (const auto& e : p1.ends) clean += e.clean ? 1 : 0;
  EXPECT_GT(clean, 0);
  EXPECT_LT(clean, n);
}

// ------------------------------------------------------- SINR / capture --

/// Probe that also records *when* each rx_end arrived — the abort
/// regression below asserts truncation time, not just corruption.
class TimedProbe : public ChannelListener {
 public:
  struct Rx {
    std::uint64_t id;
    bool clean;
    util::Seconds at;
  };
  void on_rx_start(std::uint64_t, const Frame&, util::Seconds) override {
    ++starts;
  }
  void on_rx_end(std::uint64_t id, const Frame&, bool clean) override {
    ends.push_back(Rx{id, clean, sim->now()});
  }
  sim::Simulator* sim = nullptr;
  int starts = 0;
  std::vector<Rx> ends;
};

/// Log-distance spec with shadowing off and a huge fade margin: per-link
/// PER is ~0 (no Bernoulli luck), leaving rx powers as the only physics —
/// node distance alone decides who wins a collision.
Channel::Params capture_params(double threshold_db = 10.0) {
  Channel::Params params;
  params.propagation.kind = PropagationKind::kLogDistance;
  params.propagation.shadowing_sigma_db = 0.0;
  params.propagation.fade_margin_db = 40.0;
  params.capture.enabled = true;
  params.capture.threshold_db = threshold_db;
  return params;
}

TEST(ChannelCapture, StrongFrameSurvivesCollisionItDominates) {
  // Receiver at the origin; a 4 m and a 36 m sender collide. Log-distance
  // powers: near = -80 + 30·log10(40/4) = -50 dBm, far ≈ -78.6 dBm. The
  // near frame clears 10 dB of SINR over the far one (+28 dB margin) and
  // survives; the far frame (-28 dB) still corrupts.
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {4, 0}, {36, 0}}, 40.0, capture_params(), 3);
  Probe p0;
  ch.attach(0, &p0);
  ch.start_tx(1, make_frame(1, 0), 0.01);
  ch.start_tx(2, make_frame(2, 0), 0.01);
  sim.run();
  ASSERT_EQ(p0.ends.size(), 2u);
  EXPECT_TRUE(p0.ends[0].clean);    // near frame (started first)
  EXPECT_FALSE(p0.ends[1].clean);   // far frame
  // The only clean delivery anywhere: the two senders hear each other but
  // were transmitting (half-duplex is absolute, capture or not).
  EXPECT_EQ(ch.stats().deliveries_clean, 1);
  EXPECT_EQ(ch.stats().deliveries_corrupt, 3);
  EXPECT_EQ(ch.live_arrivals(), 0);
}

TEST(ChannelCapture, EqualPowerCollisionIsStillATie) {
  // Unit-disc powers are identical, so neither frame can dominate — the
  // capture switch reproduces all-overlaps-corrupt on equal-power ties.
  sim::Simulator sim;
  Channel::Params params;
  params.capture.enabled = true;
  Channel ch(sim, {{0, 0}, {50, 0}, {100, 0}}, 60.0, params, 1);
  Probe p1;
  ch.attach(1, &p1);
  ch.start_tx(0, make_frame(0, 1), 0.01);
  ch.start_tx(2, make_frame(2, 1), 0.01);
  sim.run();
  ASSERT_EQ(p1.ends.size(), 2u);
  EXPECT_FALSE(p1.ends[0].clean);
  EXPECT_FALSE(p1.ends[1].clean);
}

TEST(ChannelCapture, LenientThresholdNeverCorruptsCollisionFreeFrames) {
  // Collision-free reception must be untouched by the capture switch even
  // for weak edge links: the SINR gate applies to overlapped frames only
  // (the noise/SNR story of a lone frame is the propagation model's PER).
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {39, 0}}, 40.0, capture_params(), 3);
  Probe p1;
  ch.attach(1, &p1);
  for (int i = 0; i < 20; ++i)
    sim.schedule_at(i * 1.0, [&] { ch.start_tx(0, make_frame(0, 1), 0.01); });
  sim.run();
  ASSERT_EQ(p1.ends.size(), 20u);
  for (const auto& e : p1.ends) EXPECT_TRUE(e.clean);
}

TEST(ChannelCapture, ThreeWayCollisionCorruptsEachFrameExactlyOnce) {
  // Three hidden terminals (pairwise ~87 m apart, range 60 m) collide at
  // the centre node: every frame is overlapped by two others, yet each
  // (frame, hearer) increments deliveries_corrupt exactly once — in both
  // collision-resolution modes.
  for (const bool capture : {false, true}) {
    sim::Simulator sim;
    Channel::Params params;
    params.capture.enabled = capture;
    Channel ch(sim, {{0, 0}, {50, 0}, {-25, 43.3}, {-25, -43.3}}, 60.0,
               params, 9);
    Probe p0;
    ch.attach(0, &p0);
    ch.start_tx(1, make_frame(1, 0), 0.01);
    ch.start_tx(2, make_frame(2, 0), 0.01);
    ch.start_tx(3, make_frame(3, 0), 0.01);
    sim.run();
    ASSERT_EQ(p0.starts, 3) << "capture=" << capture;
    ASSERT_EQ(p0.ends.size(), 3u) << "capture=" << capture;
    std::vector<std::uint64_t> seen;
    for (const auto& e : p0.ends) {
      EXPECT_FALSE(e.clean) << "capture=" << capture;
      for (const std::uint64_t id : seen)
        EXPECT_NE(id, e.id) << "duplicate rx_end, capture=" << capture;
      seen.push_back(e.id);
    }
    // Exactly one corrupt delivery per (frame, hearer); only node 0 hears
    // anything (the senders are hidden from each other).
    EXPECT_EQ(ch.stats().rx_starts, 3) << "capture=" << capture;
    EXPECT_EQ(ch.stats().deliveries_corrupt, 3) << "capture=" << capture;
    EXPECT_EQ(ch.stats().deliveries_clean, 0) << "capture=" << capture;
    EXPECT_EQ(ch.live_arrivals(), 0) << "capture=" << capture;
  }
}

TEST(ChannelCapture, InvalidCaptureParamsThrow) {
  // Mirrors the frame_loss_prob range validation: NaN thresholds and
  // NaN / zero / infinite noise powers are configuration errors whether
  // or not the capture switch is on.
  sim::Simulator sim;
  const std::vector<net::Position> pos = {{0, 0}, {10, 0}};
  Channel::Params params;
  params.capture.threshold_db = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Channel(sim, pos, 50.0, params, 1), std::invalid_argument);
  params = Channel::Params{};
  params.capture.noise_floor_dbm = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Channel(sim, pos, 50.0, params, 1), std::invalid_argument);
  params = Channel::Params{};
  // -inf dBm would be a zero-noise receiver: rejected as non-positive
  // noise power.
  params.capture.noise_floor_dbm = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(Channel(sim, pos, 50.0, params, 1), std::invalid_argument);
  params = Channel::Params{};
  params.capture.noise_floor_dbm = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Channel(sim, pos, 50.0, params, 1), std::invalid_argument);
  // Finite values — including a deliberately lenient negative threshold —
  // are legal.
  params = Channel::Params{};
  params.capture.enabled = true;
  params.capture.threshold_db = -3.0;
  params.capture.noise_floor_dbm = -90.0;
  EXPECT_NO_THROW(Channel(sim, pos, 50.0, params, 1));
}

TEST(ChannelAbort, TruncationEndsDeliveryAndMediumAtAbortTime) {
  // Crash mid-overlap: node 0's long frame is aborted while node 2's
  // short frame overlaps it at node 1. The aborted frame's rx_end must
  // arrive AT the abort time (not its originally scheduled end), the
  // medium must free immediately, and the conservation counters must
  // still balance.
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {10, 0}, {20, 0}}, 50.0, Channel::Params{0.0}, 5);
  TimedProbe probes[3];
  for (net::NodeId i = 0; i < 3; ++i) {
    probes[i].sim = &sim;
    ch.attach(i, &probes[i]);
  }
  ch.start_tx(0, make_frame(0, 1), 0.1);                     // ends 0.1
  sim.schedule_at(0.02, [&] { ch.start_tx(2, make_frame(2, 1), 0.01); });
  sim.schedule_at(0.05, [&] {
    ch.abort_tx_of(0);
    // The aborted frame is gone from the air right now: delivered, and
    // node 1 no longer hears anything.
    EXPECT_EQ(ch.live_arrivals(), 0);
    EXPECT_FALSE(ch.busy_at(1));
    EXPECT_FALSE(ch.busy_at(0));
    // Aborting a node that is not transmitting is a no-op.
    ch.abort_tx_of(2);
  });
  sim.run();
  // Node 1 heard both frames; both overlapped, both corrupt. The aborted
  // frame's rx_end fired at 0.05, the overlapper's at its natural 0.03.
  ASSERT_EQ(probes[1].ends.size(), 2u);
  EXPECT_FALSE(probes[1].ends[0].clean);
  EXPECT_FALSE(probes[1].ends[1].clean);
  EXPECT_DOUBLE_EQ(probes[1].ends[0].at, 0.03);  // node 2's frame
  EXPECT_DOUBLE_EQ(probes[1].ends[1].at, 0.05);  // aborted frame, truncated
  // Node 2 heard only the aborted frame (it overlapped node 2's own
  // transmission — corrupt either way), truncated at 0.05 as well.
  ASSERT_EQ(probes[2].ends.size(), 1u);
  EXPECT_DOUBLE_EQ(probes[2].ends[0].at, 0.05);
  // Conservation: every rx_start got exactly one rx_end.
  EXPECT_EQ(ch.stats().rx_starts,
            ch.stats().deliveries_clean + ch.stats().deliveries_corrupt);
  EXPECT_EQ(ch.live_arrivals(), 0);
  EXPECT_EQ(ch.stats().deliveries_clean, 0);
  EXPECT_EQ(ch.stats().deliveries_corrupt, 4);
}

TEST(ChannelAbort, AbortedInterferenceDoesNotOutliveTheAbort) {
  // Capture mode: a strong frame is aborted, then a weak frame starts
  // AFTER the abort but BEFORE the strong frame's scheduled end. If the
  // aborted transmission's interference contribution leaked through to
  // its original rx_end, the weak frame would be judged against it and
  // corrupt; truncated correctly, the weak frame never overlaps anything
  // and is delivered clean.
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {4, 0}, {36, 0}}, 40.0, capture_params(), 3);
  TimedProbe p0;
  p0.sim = &sim;
  ch.attach(0, &p0);
  ch.start_tx(1, make_frame(1, 0), 0.1);                      // strong, -50 dBm
  sim.schedule_at(0.01, [&] { ch.abort_tx_of(1); });
  sim.schedule_at(0.02, [&] { ch.start_tx(2, make_frame(2, 0), 0.01); });
  sim.run();
  ASSERT_EQ(p0.ends.size(), 2u);
  EXPECT_FALSE(p0.ends[0].clean);              // the truncated strong frame
  EXPECT_DOUBLE_EQ(p0.ends[0].at, 0.01);
  EXPECT_TRUE(p0.ends[1].clean) << "aborted frame's interference leaked "
                                   "past the abort time";
  EXPECT_EQ(ch.stats().rx_starts,
            ch.stats().deliveries_clean + ch.stats().deliveries_corrupt);
}

// ---------------------------------------------------- Arrival list lease --

TEST(ChannelLease, ListReturnsWhenTheLastArrivalEnds) {
  // Two nodes in range: each frame leases the other node's list. The
  // second frame's hearer is another node, and it reuses the list the
  // first hearer returned instead of growing the pool.
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {10, 0}}, 50.0, Channel::Params{0.0}, 1);
  Probe p0, p1;
  ch.attach(0, &p0);
  ch.attach(1, &p1);
  EXPECT_EQ(ch.arrival_lists(), 0u);
  ch.start_tx(0, make_frame(0, 1), 0.01);
  EXPECT_EQ(ch.arrival_lists(), 1u);
  EXPECT_TRUE(ch.busy_at(1));
  EXPECT_DOUBLE_EQ(ch.clear_at(1), 0.01);
  sim.run();
  EXPECT_FALSE(ch.busy_at(1));
  EXPECT_DOUBLE_EQ(ch.clear_at(1), sim.now());
  EXPECT_EQ(ch.live_arrivals(), 0);
  ch.start_tx(1, make_frame(1, 0), 0.01);
  EXPECT_TRUE(ch.busy_at(0));
  sim.run();
  EXPECT_EQ(ch.arrival_lists(), 1u);
  ASSERT_EQ(p1.ends.size(), 1u);
  ASSERT_EQ(p0.ends.size(), 1u);
  EXPECT_TRUE(p1.ends[0].clean);
  EXPECT_TRUE(p0.ends[0].clean);
}

TEST(ChannelLease, AbortReturnsTheList) {
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {10, 0}}, 50.0, Channel::Params{0.0}, 1);
  Probe p0, p1;
  ch.attach(0, &p0);
  ch.attach(1, &p1);
  ch.start_tx(0, make_frame(0, 1), 0.1);
  sim.schedule_at(0.05, [&] {
    ch.abort_tx_of(0);
    EXPECT_FALSE(ch.busy_at(1));
    // The aborted frame's end still bounds carrier sense at node 1.
    EXPECT_DOUBLE_EQ(ch.clear_at(1), 0.1);
    ch.start_tx(1, make_frame(1, 0), 0.01);
  });
  sim.run();
  EXPECT_EQ(ch.arrival_lists(), 1u);
  ASSERT_EQ(p1.ends.size(), 1u);
  EXPECT_FALSE(p1.ends[0].clean);
  ASSERT_EQ(p0.ends.size(), 1u);
  EXPECT_TRUE(p0.ends[0].clean);
  EXPECT_EQ(ch.live_arrivals(), 0);
}

TEST(ChannelLease, LateRemoteFrameReturnsTheList) {
  // Stripe 1 of two owns nodes 3 and 4; node 2 (stripe 0) is in range of
  // node 3 only. A remote frame that already ended is begun and finished
  // at once, so node 3's list comes back before inject_remote returns.
  sim::Simulator sim;
  const auto graph = std::make_shared<const net::ConnectivityGraph>(
      std::vector<Position>{{0, 0}, {30, 0}, {60, 0}, {90, 0}, {120, 0}},
      40.0);
  const std::vector<std::int32_t> shard_of{0, 0, 0, 1, 1};
  const std::vector<std::int32_t> local_of{0, 1, 2, 0, 1};
  Channel::ShardingSpec spec;
  spec.stripe = net::Stripe{shard_of.data(), local_of.data(), 1, 2};
  spec.shard_count = 2;
  spec.emit = [](std::int32_t, Channel::RemoteFrame&&) {};
  Channel part(sim, graph, Channel::Params{}, 1, std::move(spec));
  Probe p3, p4;
  part.attach(3, &p3);
  part.attach(4, &p4);
  const auto remote = [](util::Seconds start, util::Seconds end) {
    Channel::RemoteFrame rf;
    rf.src = 2;
    rf.frame = make_frame(2, 3);
    rf.frame.message = net::MessageRef{};
    rf.start = start;
    rf.end = end;
    return rf;
  };
  sim.schedule_at(0.05, [&] {
    part.inject_remote(remote(0.0, 0.01));
    EXPECT_FALSE(part.busy_at(3));
    EXPECT_EQ(part.live_arrivals(), 0);
    EXPECT_EQ(part.arrival_lists(), 1u);
    // A frame still on the air re-leases the parked list.
    part.inject_remote(remote(0.04, 0.06));
    EXPECT_TRUE(part.busy_at(3));
    EXPECT_FALSE(part.busy_at(4));
  });
  sim.run();
  EXPECT_EQ(part.arrival_lists(), 1u);
  EXPECT_FALSE(part.busy_at(3));
  ASSERT_EQ(p3.ends.size(), 2u);
  EXPECT_TRUE(p3.ends[0].clean);
  EXPECT_TRUE(p3.ends[1].clean);
  EXPECT_TRUE(p4.ends.empty());
}

TEST(ChannelLease, HearerBehindADownLinkNeverLeases) {
  // Line 0 -- 1 -- 2: node 1 hears both ends. With link 0-1 down, node
  // 0's frame reaches nobody, so no list is leased and carrier sense at
  // node 1 stays clear.
  sim::Simulator sim;
  Channel ch(sim, {{0, 0}, {50, 0}, {100, 0}}, 60.0, Channel::Params{0.0},
             1);
  Probe probes[3];
  for (NodeId i = 0; i < 3; ++i) ch.attach(i, &probes[i]);
  net::LinkState links(3);
  links.set_link_up(0, 1, false);
  ch.set_link_state(&links);
  ch.start_tx(0, make_frame(0, 1), 0.01);
  EXPECT_EQ(ch.arrival_lists(), 0u);
  EXPECT_TRUE(ch.busy_at(0));
  EXPECT_FALSE(ch.busy_at(1));
  EXPECT_DOUBLE_EQ(ch.clear_at(1), 0.0);
  // Node 2's frame overlaps in time but not at node 1's ears: clean.
  ch.start_tx(2, make_frame(2, 1), 0.01);
  EXPECT_EQ(ch.arrival_lists(), 1u);
  sim.run();
  EXPECT_TRUE(probes[1].ends.size() == 1 && probes[1].ends[0].clean);
  EXPECT_EQ(ch.live_arrivals(), 0);
  EXPECT_EQ(ch.arrival_lists(), 1u);
}

TEST(ChannelLease, PoolPeaksAtTheBusyHearersNotTheNodeCount) {
  // A 10x10 grid at 10 m with a 12 m range: an interior node has four
  // neighbours. One frame at a time needs at most max-degree lists; two
  // far-apart interior frames at once need the sum of their degrees.
  sim::Simulator sim;
  std::vector<Position> pos;
  for (int y = 0; y < 10; ++y)
    for (int x = 0; x < 10; ++x) pos.push_back({10.0 * x, 10.0 * y});
  Channel ch(sim, pos, 12.0, Channel::Params{0.0}, 1);
  std::size_t max_degree = 0;
  for (NodeId n = 0; n < 100; ++n) {
    max_degree = std::max(max_degree, ch.graph().neighbors(n).size());
    ch.start_tx(n, make_frame(n, ch.graph().neighbors(n)[0]), 0.01);
    sim.run();
  }
  EXPECT_EQ(max_degree, 4u);
  EXPECT_EQ(ch.arrival_lists(), max_degree);
  ch.start_tx(11, make_frame(11, 12), 0.01);
  ch.start_tx(88, make_frame(88, 87), 0.01);
  sim.run();
  EXPECT_EQ(ch.arrival_lists(), 8u);
  EXPECT_EQ(ch.node_slots(), 100u);
  EXPECT_EQ(ch.live_arrivals(), 0);
  EXPECT_EQ(ch.stats().deliveries_corrupt, 0);
}

// ---------------------------------------------------------------- Radio --

class RadioTest : public ::testing::Test {
 protected:
  RadioTest()
      : channel_(sim_, {{0, 0}, {10, 0}, {20, 0}}, 50.0, Channel::Params{0.0},
                 7) {}
  sim::Simulator sim_;
  Channel channel_;
};

TEST_F(RadioTest, StartsOnWhenRequested) {
  Radio r(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  EXPECT_EQ(r.state(), RadioState::kIdle);
  EXPECT_TRUE(r.ready());
  EXPECT_EQ(r.meter().wakeup_count(), 0);
}

TEST_F(RadioTest, PowerOnTakesWakeupTimeAndChargesLump) {
  Radio r(sim_, channel_, 0, energy::lucent_11mbps(), OverhearMode::kNone,
          false);
  EXPECT_EQ(r.state(), RadioState::kOff);
  bool woke = false;
  testing_support::FnRadioOwner r_owner;
  r_owner.wake_complete = [&] { woke = true; };
  r.set_owner(&r_owner);
  r.power_on();
  EXPECT_EQ(r.state(), RadioState::kWaking);
  EXPECT_FALSE(r.ready());
  sim_.run();
  EXPECT_TRUE(woke);
  EXPECT_EQ(r.state(), RadioState::kIdle);
  EXPECT_DOUBLE_EQ(sim_.now(), 0.1);  // 100 ms wake-up
  EXPECT_EQ(r.meter().wakeup_count(), 1);
}

TEST_F(RadioTest, DuplicatePowerOnIsNoOp) {
  Radio r(sim_, channel_, 0, energy::lucent_11mbps(), OverhearMode::kNone,
          false);
  r.power_on();
  r.power_on();
  sim_.run();
  EXPECT_EQ(r.meter().wakeup_count(), 1);
}

TEST_F(RadioTest, PowerOffDuringWakeCancelsCompletion) {
  Radio r(sim_, channel_, 0, energy::lucent_11mbps(), OverhearMode::kNone,
          false);
  bool woke = false;
  testing_support::FnRadioOwner r_owner;
  r_owner.wake_complete = [&] { woke = true; };
  r.set_owner(&r_owner);
  r.power_on();
  r.power_off();
  sim_.run();
  EXPECT_FALSE(woke);
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST_F(RadioTest, TransmitDeliversToAddressee) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio rx(sim_, channel_, 1, energy::micaz(), OverhearMode::kNone, true);
  int got = 0;
  testing_support::FnRadioLink rx_link;
  rx_link.frame_received = [&](const Frame&) { ++got; };
  rx.set_link(&rx_link);
  bool tx_done = false;
  testing_support::FnRadioLink tx_link;
  tx_link.tx_done = [&] { tx_done = true; };
  tx.set_link(&tx_link);
  tx.transmit(make_frame(0, 1));
  EXPECT_EQ(tx.state(), RadioState::kTx);
  sim_.run();
  EXPECT_TRUE(tx_done);
  EXPECT_EQ(got, 1);
  EXPECT_EQ(tx.state(), RadioState::kIdle);
  EXPECT_EQ(rx.state(), RadioState::kIdle);
  // 344 bits at 250 Kb/s.
  EXPECT_NEAR(sim_.now(), 344.0 / 250e3, 1e-9);
}

TEST_F(RadioTest, OffRadioHearsNothing) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio rx(sim_, channel_, 1, energy::micaz(), OverhearMode::kNone, false);
  int got = 0;
  testing_support::FnRadioLink rx_link;
  rx_link.frame_received = [&](const Frame&) { ++got; };
  rx.set_link(&rx_link);
  tx.transmit(make_frame(0, 1));
  sim_.run();
  EXPECT_EQ(got, 0);
  EXPECT_DOUBLE_EQ(rx.meter().total(), 0.0);
}

TEST_F(RadioTest, PowerOffMidReceptionAbortsDelivery) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio rx(sim_, channel_, 1, energy::micaz(), OverhearMode::kNone, true);
  int got = 0;
  testing_support::FnRadioLink rx_link;
  rx_link.frame_received = [&](const Frame&) { ++got; };
  rx.set_link(&rx_link);
  tx.transmit(make_frame(0, 1));
  sim_.schedule_at(0.0005, [&] { rx.power_off(); });
  sim_.run();
  EXPECT_EQ(got, 0);
}

TEST_F(RadioTest, OverhearNonePaysNothingForOthersTraffic) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio other(sim_, channel_, 2, energy::micaz(), OverhearMode::kNone, true);
  tx.transmit(make_frame(0, 1));
  sim_.run();
  other.meter().finalize(sim_.now());
  EXPECT_DOUBLE_EQ(other.meter().energy(energy::EnergyCategory::kOverhear),
                   0.0);
  EXPECT_EQ(other.state(), RadioState::kIdle);
}

TEST_F(RadioTest, OverhearFullPaysWholeFrameAndSurfacesIt) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio other(sim_, channel_, 2, energy::micaz(), OverhearMode::kFull, true);
  int overheard = 0;
  testing_support::FnRadioOwner other_owner;
  other_owner.frame_overheard = [&](const Frame&) { ++overheard; };
  other.set_owner(&other_owner);
  tx.transmit(make_frame(0, 1));
  sim_.run();
  other.meter().finalize(sim_.now());
  EXPECT_EQ(overheard, 1);
  const double frame_time = 344.0 / 250e3;
  EXPECT_NEAR(other.meter().duration(energy::EnergyCategory::kOverhear),
              frame_time, 1e-9);
}

TEST_F(RadioTest, OverhearHeaderOnlyPaysJustTheHeader) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio other(sim_, channel_, 2, energy::micaz(), OverhearMode::kHeaderOnly,
              true);
  int overheard = 0;
  testing_support::FnRadioOwner other_owner;
  other_owner.frame_overheard = [&](const Frame&) { ++overheard; };
  other.set_owner(&other_owner);
  tx.transmit(make_frame(0, 1));
  sim_.run();
  other.meter().finalize(sim_.now());
  EXPECT_EQ(overheard, 0);  // header-only listeners never surface frames
  const double header_time = 88.0 / 250e3;
  EXPECT_NEAR(other.meter().duration(energy::EnergyCategory::kOverhear),
              header_time, 1e-9);
}

TEST_F(RadioTest, AbortMidHeaderDoesNotTruncateTheNextOverhear) {
  // Regression: an abort-truncated frame ends BEFORE its header-only
  // timer fires. The stale timer must die with the lock — otherwise its
  // expiry (which guards on state, not tx id) clears a LATER frame's
  // overhear lock and cuts that frame's header charge short.
  Radio other(sim_, channel_, 2, energy::micaz(), OverhearMode::kHeaderOnly,
              true);
  const double header_time = 88.0 / 250e3;  // 0.352 ms at 250 Kb/s
  channel_.start_tx(0, make_frame(0, 1), 0.01);
  sim_.schedule_at(0.0001, [&] { channel_.abort_tx_of(0); });
  // Frame B starts after the abort but before A's header timer would
  // have fired; its overhear must run its own full header.
  sim_.schedule_at(0.0002, [&] {
    channel_.start_tx(1, make_frame(1, 0), 0.01);
  });
  sim_.run();
  other.meter().finalize(sim_.now());
  EXPECT_EQ(other.state(), RadioState::kIdle);
  // A charged up to its truncation (0.1 ms), B its full header.
  EXPECT_NEAR(other.meter().duration(energy::EnergyCategory::kOverhear),
              0.0001 + header_time, 1e-9);
}

TEST_F(RadioTest, TransmitWhileNotReadyThrows) {
  Radio r(sim_, channel_, 0, energy::lucent_11mbps(), OverhearMode::kNone,
          false);
  EXPECT_THROW(r.transmit(make_frame(0, 1)), std::invalid_argument);
  r.power_on();
  EXPECT_THROW(r.transmit(make_frame(0, 1)), std::invalid_argument);
}

TEST_F(RadioTest, PowerOffWhileTransmittingThrows) {
  Radio r(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  r.transmit(make_frame(0, 1));
  EXPECT_THROW(r.power_off(), std::invalid_argument);
  sim_.run();
  EXPECT_NO_THROW(r.power_off());
}

TEST_F(RadioTest, EnergyAccountingAcrossAFullExchange) {
  Radio tx(sim_, channel_, 0, energy::micaz(), OverhearMode::kNone, true);
  Radio rx(sim_, channel_, 1, energy::micaz(), OverhearMode::kNone, true);
  tx.transmit(make_frame(0, 1));
  sim_.run();
  tx.meter().finalize(sim_.now());
  rx.meter().finalize(sim_.now());
  const double frame_time = 344.0 / 250e3;
  EXPECT_NEAR(tx.meter().energy(energy::EnergyCategory::kTx),
              0.051 * frame_time, 1e-12);
  EXPECT_NEAR(rx.meter().energy(energy::EnergyCategory::kRx),
              0.0591 * frame_time, 1e-12);
}

}  // namespace
}  // namespace bcp::phy
