// Property-based and parameterized sweeps across modules:
//  * BulkBuffer randomized ops against a reference model
//  * MAC delivery under a loss-probability sweep (TEST_P)
//  * full-scenario invariants across models × bursts (TEST_P)
//  * cross-model conservation laws across propagation models × fault
//    plans (TEST_P)
//  * channel delivery conservation
//  * shortcut-learning reachability gating
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "core/bulk_buffer.hpp"
#include "energy/radio_model.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_params.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "test_hosts.hpp"
#include "util/rng.hpp"

namespace bcp {
namespace {

using util::bytes;

// ---------------------------------------------------- BulkBuffer fuzzing --

TEST(BulkBufferFuzz, MatchesReferenceModelOverRandomOps) {
  util::Xoshiro256 rng(20240610);
  core::BulkBuffer buffer(bytes(4096));
  std::map<net::NodeId, std::deque<net::DataPacket>> model;
  std::int64_t model_bits = 0;
  std::uint32_t seq = 0;

  for (int op = 0; op < 20000; ++op) {
    const auto hop = static_cast<net::NodeId>(rng.uniform_int(4));
    const double dice = rng.uniform();
    if (dice < 0.5) {
      // push a packet of 8..64 bytes
      net::DataPacket p{0, 9, ++seq,
                        bytes(8 + static_cast<std::int64_t>(
                                      rng.uniform_int(57))),
                        static_cast<double>(op)};
      const bool accepted = buffer.push(hop, p);
      const bool expect = model_bits + p.payload_bits <= bytes(4096);
      ASSERT_EQ(accepted, expect) << "op " << op;
      if (accepted) {
        model[hop].push_back(p);
        model_bits += p.payload_bits;
      }
    } else if (dice < 0.8) {
      // pop a random budget
      const auto budget = bytes(static_cast<std::int64_t>(
          rng.uniform_int(513)));
      auto out = buffer.pop_up_to(hop, budget);
      util::Bits used = 0;
      auto& q = model[hop];
      std::vector<net::DataPacket> expect;
      while (!q.empty() && used + q.front().payload_bits <= budget) {
        used += q.front().payload_bits;
        expect.push_back(q.front());
        q.pop_front();
      }
      model_bits -= used;
      ASSERT_EQ(out.size(), expect.size()) << "op " << op;
      for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i].seq, expect[i].seq) << "op " << op;
    } else if (dice < 0.9) {
      // pop_front
      auto got = buffer.pop_front(hop);
      auto& q = model[hop];
      if (q.empty()) {
        ASSERT_FALSE(got.has_value()) << "op " << op;
      } else {
        ASSERT_TRUE(got.has_value());
        ASSERT_EQ(got->seq, q.front().seq) << "op " << op;
        model_bits -= q.front().payload_bits;
        q.pop_front();
      }
    } else {
      // invariants
      auto& q = model[hop];
      ASSERT_EQ(buffer.packet_count(hop), q.size());
      const util::Bits qbits = std::accumulate(
          q.begin(), q.end(), util::Bits{0},
          [](util::Bits acc, const net::DataPacket& p) {
            return acc + p.payload_bits;
          });
      ASSERT_EQ(buffer.buffered_bits(hop), qbits);
      if (!q.empty()) {
        auto oldest = buffer.oldest_created_at(hop);
        ASSERT_TRUE(oldest.has_value());
        ASSERT_EQ(*oldest, q.front().created_at);
      } else {
        ASSERT_FALSE(buffer.oldest_created_at(hop).has_value());
      }
    }
    ASSERT_EQ(buffer.total_bits(), model_bits) << "op " << op;
    ASSERT_LE(buffer.total_bits(), buffer.capacity_bits());
  }
}

// ------------------------------------------------------- MAC loss sweep --

class MacLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(MacLossSweep, DeliveryDegradesGracefullyNeverDuplicates) {
  const double loss = GetParam();
  sim::Simulator sim;
  phy::Channel channel(sim, {{0, 0}, {10, 0}}, 50.0,
                       phy::Channel::Params{loss}, 4242);
  phy::Radio r0(sim, channel, 0, energy::micaz(), phy::OverhearMode::kNone,
                true);
  phy::Radio r1(sim, channel, 1, energy::micaz(), phy::OverhearMode::kNone,
                true);
  const mac::MacParams params = mac::sensor_mac_params();
  mac::Mac::Stats s0, s1;
  mac::CsmaCaMac m0(sim, r0, params, 1, s0);
  mac::CsmaCaMac m1(sim, r1, params, 2, s1);
  std::vector<std::uint32_t> delivered;
  testing_support::FnMacHost host1;
  host1.rx = [&](const net::Message& m, net::NodeId) {
    delivered.push_back(std::get<net::DataPacket>(m.body).seq);
  };
  m1.set_host(&host1);
  const int n = 300;
  for (std::uint32_t i = 1; i <= n; ++i) {
    net::Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.body = net::DataPacket{0, 1, i, bytes(32), 0.0};
    m0.enqueue(msg, 1);
  }
  sim.run();
  // No duplicates, in order.
  for (std::size_t i = 1; i < delivered.size(); ++i)
    ASSERT_GT(delivered[i], delivered[i - 1]);
  // Success probability with r retries at per-frame loss p (ack loss
  // folded in conservatively): should beat 1-p^2 easily.
  const double frac =
      static_cast<double>(delivered.size()) / static_cast<double>(n);
  if (loss == 0.0) {
    EXPECT_EQ(delivered.size(), static_cast<std::size_t>(n));
  } else {
    EXPECT_GT(frac, 1.0 - 4.0 * loss * loss);
  }
  // Attempts grow with loss.
  EXPECT_GE(m0.stats().tx_attempts, n);
}

INSTANTIATE_TEST_SUITE_P(LossLevels, MacLossSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.3, 0.4),
                         [](const auto& param_info) {
                           return "loss" +
                                  std::to_string(static_cast<int>(
                                      param_info.param * 100));
                         });

// ------------------------------------------------ scenario invariants ----

struct ScenarioCase {
  app::EvalModel model;
  int burst;
  bool multi_hop;
};

std::string case_name(const ScenarioCase& c) {
  return std::string(app::to_string(c.model)[0] == '8'
                         ? "Wifi"
                         : app::to_string(c.model)) +
         "_b" + std::to_string(c.burst) + (c.multi_hop ? "_mh" : "_sh");
}

// gtest would otherwise print a case as its raw bytes, padding included,
// and ctest's discovered test names would change with every process.
void PrintTo(const ScenarioCase& c, std::ostream* os) { *os << case_name(c); }

class ScenarioInvariants : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(ScenarioInvariants, MetricsStayWithinPhysicalBounds) {
  const auto& param = GetParam();
  auto cfg = param.multi_hop
                 ? app::ScenarioConfig::multi_hop(param.model, 6, param.burst)
                 : app::ScenarioConfig::single_hop(param.model, 6,
                                                   param.burst);
  cfg.duration = param.multi_hop ? 250.0 : 1200.0;
  cfg.seed = 99;
  const auto m = app::run_scenario(cfg);

  EXPECT_GE(m.goodput, 0.0);
  EXPECT_LE(m.goodput, 1.0);
  EXPECT_LE(m.delivered, m.generated);
  EXPECT_GE(m.mean_delay, 0.0);
  EXPECT_LE(m.mean_delay, cfg.duration);
  EXPECT_GE(m.normalized_energy, 0.0);
  // Charged categories are individually non-negative.
  for (const double e :
       {m.sensor_energy.tx, m.sensor_energy.rx, m.sensor_energy.overhear,
        m.sensor_energy.idle, m.wifi_energy.tx, m.wifi_energy.rx,
        m.wifi_energy.overhear, m.wifi_energy.idle, m.wifi_energy.wakeup})
    EXPECT_GE(e, 0.0);
  // Radios that do not exist in a model must report zero energy.
  if (param.model == app::EvalModel::kSensor) {
    EXPECT_DOUBLE_EQ(m.wifi_energy.full(), 0.0);
  }
  if (param.model == app::EvalModel::kWifi) {
    EXPECT_DOUBLE_EQ(m.sensor_energy.full(), 0.0);
  }
  // Something must actually happen.
  EXPECT_GT(m.generated, 0);
  EXPECT_GT(m.delivered, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndBursts, ScenarioInvariants,
    ::testing::Values(ScenarioCase{app::EvalModel::kSensor, 100, true},
                      ScenarioCase{app::EvalModel::kWifi, 100, true},
                      ScenarioCase{app::EvalModel::kDualRadio, 10, true},
                      ScenarioCase{app::EvalModel::kDualRadio, 100, true},
                      ScenarioCase{app::EvalModel::kDualRadio, 500, true},
                      ScenarioCase{app::EvalModel::kDualRadio, 100, false},
                      ScenarioCase{app::EvalModel::kSensor, 100, false}),
    [](const auto& param_info) { return case_name(param_info.param); });

// ------------------------- propagation model × fault plan invariants ----

struct CrossModelCase {
  const char* name;
  phy::PropagationKind kind;
  double extra_loss;
  int crashes;
  int link_flaps;
  bool multi_hop;
  app::EvalModel model;
  bool capture = false;  ///< SINR/capture collision resolution on
  /// > 1 runs the case on the sharded parallel engine, which accepts
  /// fault plans and batteries like the single queue (membership changes
  /// reach the other stripes at window barriers). The conservation laws
  /// must hold per-shard and therefore summed.
  int shards = 0;
  /// > 0 enables finite batteries with this per-radio-class budget, on
  /// either engine (see the sharded4_dual_churn_lifetime golden cell).
  double sensor_j = 0;
  double wifi_j = 0;
};

// As for ScenarioCase: the raw bytes hold the name pointer.
void PrintTo(const CrossModelCase& c, std::ostream* os) { *os << c.name; }

class CrossModelInvariants
    : public ::testing::TestWithParam<CrossModelCase> {};

/// Conservation laws that must hold for EVERY channel model and fault
/// plan: rx_start/rx_end matching, delivery counting, goodput bounds, and
/// energy bounded by radio-on time at peak draw.
TEST_P(CrossModelInvariants, ConservationLawsHold) {
  const CrossModelCase& c = GetParam();
  auto cfg = c.multi_hop ? app::ScenarioConfig::multi_hop(c.model, 5, 50)
                         : app::ScenarioConfig::single_hop(c.model, 5, 50);
  cfg.duration = 250.0;
  cfg.seed = 77;
  cfg.propagation.kind = c.kind;
  cfg.frame_loss_prob = c.extra_loss;
  cfg.capture_enabled = c.capture;
  cfg.faults.node_crashes = c.crashes;
  cfg.faults.link_flaps = c.link_flaps;
  cfg.faults.mean_downtime = 40.0;
  cfg.faults.mean_link_downtime = 30.0;
  cfg.faults.seed = 3;
  if (c.shards > 1) cfg.shards = c.shards;
  const bool battery = c.sensor_j > 0 || c.wifi_j > 0;
  if (battery) {
    cfg.battery.enabled = true;
    cfg.battery.sensor_initial_j = c.sensor_j;
    cfg.battery.wifi_initial_j = c.wifi_j;
  }
  const auto m = app::run_scenario(cfg);
  const int n = cfg.topology.node_count();

  // Every rx_start gets exactly one rx_end (or is still on the air at the
  // horizon) — through collisions, per-link losses, crashes and flaps.
  EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end);
  // Deliveries cannot exceed frames × possible hearers.
  EXPECT_LE(m.chan_rx_ends, m.chan_frames * (n - 1));
  EXPECT_GE(m.chan_frames, 0);

  // Traffic accounting.
  EXPECT_GE(m.goodput, 0.0);
  EXPECT_LE(m.goodput, 1.0);
  EXPECT_LE(m.delivered, m.generated);
  EXPECT_GE(m.mean_delay, 0.0);
  EXPECT_LE(m.mean_delay, cfg.duration);
  EXPECT_GT(m.generated, 0);

  // Energy: every category non-negative…
  for (const double e :
       {m.sensor_energy.tx, m.sensor_energy.rx, m.sensor_energy.overhear,
        m.sensor_energy.idle, m.sensor_energy.wakeup, m.wifi_energy.tx,
        m.wifi_energy.rx, m.wifi_energy.overhear, m.wifi_energy.idle,
        m.wifi_energy.wakeup})
    EXPECT_GE(e, 0.0);
  // …and bounded by n nodes drawing peak power for the whole run plus the
  // charged wake-up lumps.
  const auto peak = [](const energy::RadioEnergyModel& r) {
    return std::max({r.p_tx, r.p_rx, r.p_idle});
  };
  EXPECT_LE(m.sensor_energy.full(),
            n * cfg.duration * peak(cfg.sensor_radio) + 1e-6);
  EXPECT_LE(m.wifi_energy.full(),
            n * cfg.duration * peak(cfg.wifi_radio) +
                static_cast<double>(m.wifi_wakeup_transitions) *
                    cfg.wifi_radio.e_wakeup +
                1e-6);

  // Fault bookkeeping: recoveries never exceed crashes; the fault-free
  // cases report zero.
  EXPECT_LE(m.fault_node_recoveries, m.fault_node_crashes);
  if (c.crashes == 0) {
    EXPECT_EQ(m.fault_node_crashes, 0);
  }
  // Battery deaths count as membership changes, so the zero-rebuild
  // contract only binds the battery-free fault-free cases.
  if (c.crashes == 0 && c.link_flaps == 0 && !battery) {
    EXPECT_EQ(m.route_rebuilds, 0);
  }

  // Battery laws: no node ever draws more than its budget (one wake-up
  // lump of overshoot is the indivisible-charge allowance); dead-node
  // accounting stays inside the horizon; batteries off means no deaths.
  if (battery) {
    EXPECT_LE(m.battery_max_drawn_fraction,
              1.0 + cfg.wifi_radio.e_wakeup /
                        std::max(c.wifi_j, c.sensor_j));
    EXPECT_GE(m.battery_deaths, 0);
    if (m.battery_deaths > 0) {
      EXPECT_GT(m.time_to_first_death, 0.0);
      EXPECT_LE(m.time_to_first_death, cfg.duration);
      EXPECT_LE(m.delivered_bits_until_first_death,
                m.delivered * cfg.packet_bits);
    } else {
      EXPECT_DOUBLE_EQ(m.time_to_first_death, -1);
    }
    if (m.time_to_sink_partition >= 0) {
      EXPECT_GE(m.time_to_sink_partition, m.time_to_first_death);
      EXPECT_GE(m.delivered_bits_until_partition,
                m.delivered_bits_until_first_death);
    }
  } else {
    EXPECT_EQ(m.battery_deaths, 0);
    EXPECT_DOUBLE_EQ(m.time_to_first_death, -1);
    EXPECT_DOUBLE_EQ(m.battery_max_drawn_fraction, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsTimesFaults, CrossModelInvariants,
    ::testing::Values(
        // UnitDisc: clean, lossy, churned, flapped.
        CrossModelCase{"disc_mh_dual", phy::PropagationKind::kUnitDisc, 0.0,
                       0, 0, true, app::EvalModel::kDualRadio},
        CrossModelCase{"disc_lossy_mh_dual", phy::PropagationKind::kUnitDisc,
                       0.2, 0, 0, true, app::EvalModel::kDualRadio},
        CrossModelCase{"disc_churn_mh_sensor",
                       phy::PropagationKind::kUnitDisc, 0.2, 3, 0, true,
                       app::EvalModel::kSensor},
        CrossModelCase{"disc_churn_sh_dual", phy::PropagationKind::kUnitDisc,
                       0.0, 3, 0, false, app::EvalModel::kDualRadio},
        CrossModelCase{"disc_flaps_mh_wifi", phy::PropagationKind::kUnitDisc,
                       0.0, 0, 3, true, app::EvalModel::kWifi},
        // LogDistance: shadowed links, with and without churn.
        CrossModelCase{"logd_mh_dual", phy::PropagationKind::kLogDistance,
                       0.0, 0, 0, true, app::EvalModel::kDualRadio},
        CrossModelCase{"logd_churn_mh_sensor",
                       phy::PropagationKind::kLogDistance, 0.0, 3, 2, true,
                       app::EvalModel::kSensor},
        CrossModelCase{"logd_lossy_sh_dual",
                       phy::PropagationKind::kLogDistance, 0.1, 0, 0, false,
                       app::EvalModel::kDualRadio},
        CrossModelCase{"logd_churn_mh_wifi",
                       phy::PropagationKind::kLogDistance, 0.0, 2, 0, true,
                       app::EvalModel::kWifi},
        CrossModelCase{"logd_churn_flaps_mh_dual",
                       phy::PropagationKind::kLogDistance, 0.0, 4, 2, true,
                       app::EvalModel::kDualRadio},
        // SINR/capture collision resolution, across all three models and
        // composed with churn — the conservation laws may not care HOW a
        // collision resolves.
        CrossModelCase{"disc_capture_mh_dual",
                       phy::PropagationKind::kUnitDisc, 0.0, 0, 0, true,
                       app::EvalModel::kDualRadio, true},
        CrossModelCase{"logd_capture_mh_dual",
                       phy::PropagationKind::kLogDistance, 0.0, 0, 0, true,
                       app::EvalModel::kDualRadio, true},
        CrossModelCase{"logd_capture_churn_mh_sensor",
                       phy::PropagationKind::kLogDistance, 0.0, 3, 2, true,
                       app::EvalModel::kSensor, true},
        CrossModelCase{"dper_capture_sh_dual",
                       phy::PropagationKind::kDistancePer, 0.0, 2, 0, false,
                       app::EvalModel::kDualRadio, true},
        // DistancePer: curve-driven PER.
        CrossModelCase{"dper_mh_dual", phy::PropagationKind::kDistancePer,
                       0.0, 0, 0, true, app::EvalModel::kDualRadio},
        CrossModelCase{"dper_churn_mh_sensor",
                       phy::PropagationKind::kDistancePer, 0.0, 2, 0, true,
                       app::EvalModel::kSensor},
        CrossModelCase{"dper_lossy_sh_sensor",
                       phy::PropagationKind::kDistancePer, 0.2, 0, 0, false,
                       app::EvalModel::kSensor},
        CrossModelCase{"dper_churn_sh_dual",
                       phy::PropagationKind::kDistancePer, 0.0, 2, 0, false,
                       app::EvalModel::kDualRadio},
        // Sharded parallel engine (fault-free): the same conservation laws
        // through cross-shard boundary frames, with and without capture.
        CrossModelCase{"sharded_disc_mh_dual",
                       phy::PropagationKind::kUnitDisc, 0.0, 0, 0, true,
                       app::EvalModel::kDualRadio, false, 4},
        CrossModelCase{"sharded_logd_lossy_sh_sensor",
                       phy::PropagationKind::kLogDistance, 0.1, 0, 0, false,
                       app::EvalModel::kSensor, false, 3},
        CrossModelCase{"sharded_disc_capture_mh_wifi",
                       phy::PropagationKind::kUnitDisc, 0.0, 0, 0, true,
                       app::EvalModel::kWifi, true, 2},
        // Finite batteries (single-queue engine): budgets that kill nodes
        // mid-run, across models, composed with loss and with churn.
        CrossModelCase{"battery_disc_mh_sensor",
                       phy::PropagationKind::kUnitDisc, 0.0, 0, 0, true,
                       app::EvalModel::kSensor, false, 0, 4.0, 0.0},
        CrossModelCase{"battery_disc_mh_wifi",
                       phy::PropagationKind::kUnitDisc, 0.0, 0, 0, true,
                       app::EvalModel::kWifi, false, 0, 0.0, 100.0},
        CrossModelCase{"battery_logd_mh_dual",
                       phy::PropagationKind::kLogDistance, 0.1, 0, 0, true,
                       app::EvalModel::kDualRadio, false, 0, 5.0, 50.0},
        CrossModelCase{"battery_churn_disc_mh_sensor",
                       phy::PropagationKind::kUnitDisc, 0.0, 3, 0, true,
                       app::EvalModel::kSensor, false, 0, 4.0, 0.0},
        CrossModelCase{"battery_generous_disc_sh_dual",
                       phy::PropagationKind::kUnitDisc, 0.0, 0, 0, false,
                       app::EvalModel::kDualRadio, false, 0, 1e6, 1e6}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

/// Goodput is monotonically non-increasing in the extra-loss knob under
/// EVERY propagation model — the composed per-link PER only adds to the
/// sweep's Bernoulli loss (deterministic seeds; a small slack absorbs
/// MAC-retry luck).
class GoodputMonotone
    : public ::testing::TestWithParam<phy::PropagationKind> {};

TEST_P(GoodputMonotone, NonIncreasingInExtraLoss) {
  double previous = 2.0;
  for (const double loss : {0.0, 0.3, 0.6}) {
    auto cfg =
        app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 5, 50);
    cfg.duration = 250.0;
    cfg.seed = 77;
    cfg.propagation.kind = GetParam();
    cfg.frame_loss_prob = loss;
    const auto m = app::run_scenario(cfg);
    EXPECT_LE(m.goodput, previous + 0.05) << "loss " << loss;
    previous = m.goodput;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPropagationModels, GoodputMonotone,
                         ::testing::Values(
                             phy::PropagationKind::kUnitDisc,
                             phy::PropagationKind::kLogDistance,
                             phy::PropagationKind::kDistancePer),
                         [](const auto& param_info) {
                           return std::string(
                               phy::to_string(param_info.param));
                         });

/// Goodput is monotonically non-decreasing in capture-threshold
/// *leniency* under every propagation model: lowering the threshold can
/// only move overlapped frames from corrupt to clean (the SINR test is
/// pointwise monotone; the same MAC-luck slack as GoodputMonotone
/// absorbs retry feedback). Unit-disc collisions are equal-power ties at
/// any positive threshold, so that model bounds the null case.
class CaptureLeniencyMonotone
    : public ::testing::TestWithParam<phy::PropagationKind> {};

TEST_P(CaptureLeniencyMonotone, GoodputNonDecreasingAsThresholdDrops) {
  double previous = -1.0;
  for (const double threshold_db : {14.0, 8.0, 2.0}) {
    auto cfg =
        app::ScenarioConfig::multi_hop(app::EvalModel::kSensor, 5, 50);
    cfg.duration = 250.0;
    cfg.seed = 77;
    cfg.propagation.kind = GetParam();
    cfg.capture_enabled = true;
    cfg.capture_threshold_db = threshold_db;
    const auto m = app::run_scenario(cfg);
    EXPECT_GE(m.goodput, previous - 0.05) << "threshold " << threshold_db;
    // Conservation holds at every threshold: deliveries never exceed
    // frames × possible hearers.
    const int n = cfg.topology.node_count();
    EXPECT_EQ(m.chan_rx_starts, m.chan_rx_ends + m.chan_rx_live_at_end);
    EXPECT_LE(m.chan_rx_ends, m.chan_frames * (n - 1));
    previous = m.goodput;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPropagationModels, CaptureLeniencyMonotone,
                         ::testing::Values(
                             phy::PropagationKind::kUnitDisc,
                             phy::PropagationKind::kLogDistance,
                             phy::PropagationKind::kDistancePer),
                         [](const auto& param_info) {
                           return std::string(
                               phy::to_string(param_info.param));
                         });

// ------------------------------------------------ channel conservation ---

TEST(ChannelConservation, EveryHearerGetsExactlyOneEndPerFrame) {
  sim::Simulator sim;
  phy::Channel channel(sim, {{0, 0}, {30, 0}, {60, 0}, {90, 0}}, 45.0,
                       phy::Channel::Params{0.1}, 7);
  struct Counter : phy::ChannelListener {
    int starts = 0, ends = 0;
    void on_rx_start(std::uint64_t, const phy::Frame&,
                     util::Seconds) override {
      ++starts;
    }
    void on_rx_end(std::uint64_t, const phy::Frame&, bool) override {
      ++ends;
    }
  };
  Counter counters[4];
  for (net::NodeId i = 0; i < 4; ++i) channel.attach(i, &counters[i]);

  util::Xoshiro256 rng(5);
  int sent = 0;
  for (int i = 0; i < 500; ++i) {
    const double at = static_cast<double>(i) * 0.004;
    sim.schedule_at(at, [&channel, &rng, &sent] {
      const auto src = static_cast<net::NodeId>(rng.uniform_int(4));
      if (channel.busy_at(src)) return;  // half-duplex guard
      phy::Frame f;
      f.tx_node = src;
      f.rx_node = static_cast<net::NodeId>((src + 1) % 4);
      f.payload_bits = 256;
      f.header_bits = 88;
      net::Message m;
      m.src = src;
      m.dst = f.rx_node;
      m.body = net::DataPacket{src, f.rx_node, 1, 256, 0.0};
      f.message = net::make_message(std::move(m));
      channel.start_tx(src, f, 0.003);
      ++sent;
    });
  }
  sim.run();
  ASSERT_GT(sent, 100);
  int total_starts = 0, total_ends = 0;
  for (const auto& c : counters) {
    EXPECT_EQ(c.starts, c.ends);  // every start has exactly one end
    total_starts += c.starts;
    total_ends += c.ends;
  }
  // Channel stats account every per-hearer delivery exactly once.
  EXPECT_EQ(channel.stats().deliveries_clean +
                channel.stats().deliveries_corrupt,
            total_ends);
  EXPECT_EQ(channel.stats().frames, sent);
}

// ---------------------------------------------- shortcut gating e2e ------

TEST(ShortcutScenario, LearnsOnlyReachableNextHops) {
  // SH topology (40 m wifi): shortcuts would tempt nodes to jump to the
  // sink directly, which is out of range for everyone but its neighbours.
  // With the reachability gate, enabled shortcuts must never reduce
  // goodput below the no-shortcut baseline (they can only pick peers one
  // hop away, which is what routing already does on the grid).
  auto cfg = app::ScenarioConfig::single_hop(app::EvalModel::kDualRadio, 6,
                                             100);
  cfg.duration = 1500.0;
  cfg.seed = 11;
  const auto baseline = app::run_scenario(cfg);
  cfg.bcp.enable_shortcuts = true;
  const auto with_shortcuts = app::run_scenario(cfg);
  ASSERT_GT(baseline.delivered, 0);
  ASSERT_GT(with_shortcuts.delivered, 0);
  EXPECT_GT(with_shortcuts.goodput, 0.8 * baseline.goodput);
}

}  // namespace
}  // namespace bcp
