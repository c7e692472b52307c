// Unit/property tests: the break-even analysis (Eqs. 1-5, Figs. 1-4).
//
// These tests pin the *paper's qualitative claims* to the implementation:
// which radio pairs have a crossover, where it roughly lies, how it moves
// with idle time and forward progress, and the burst-amortization knee.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "energy/breakeven.hpp"
#include "energy/radio_model.hpp"
#include "util/units.hpp"

namespace bcp::energy {
namespace {

using util::Bits;
using util::bytes;
using util::kilobytes;

TEST(BreakEven, Eq1MatchesHandComputedValue) {
  // E_L(s) for Micaz, one 32 B packet with an 11 B header:
  // (Ptx+Prx)/R * (ps+hs) = (0.051+0.0591)/250e3 * 344 bits.
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  const double expected = (0.051 + 0.0591) / 250e3 * 344.0;
  EXPECT_NEAR(a.energy_low(bytes(32)), expected, 1e-12);
}

TEST(BreakEven, Eq1QuantizesToWholePackets) {
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  // 33 bytes needs two 32 B packets — same cost as 64 bytes.
  EXPECT_DOUBLE_EQ(a.energy_low(bytes(33)), a.energy_low(bytes(64)));
  EXPECT_LT(a.energy_low(bytes(32)), a.energy_low(bytes(33)));
  EXPECT_DOUBLE_EQ(a.energy_low(0), 0.0);
}

TEST(BreakEven, Eq2IncludesWakeupOverheads) {
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  // At s=0 the high radio still pays the full wake-up overhead.
  EXPECT_NEAR(a.energy_high(0), a.wakeup_overhead(), 1e-15);
  // Overhead = 2*Ewakeup(high) + handshake over the low radio (idle = 0).
  const double handshake =
      (0.051 + 0.0591) / 250e3 * (2 * 27 * 8);  // two 27 B messages
  EXPECT_NEAR(a.wakeup_overhead(), 2 * 0.6e-3 + handshake, 1e-12);
  EXPECT_DOUBLE_EQ(a.idle_energy(), 0.0);
}

TEST(BreakEven, IdleEnergyChargesBothRadios) {
  auto cfg = DualRadioAnalysis::standard(micaz(), lucent_11mbps()).config();
  cfg.idle_time = 0.5;
  DualRadioAnalysis a(cfg);
  EXPECT_NEAR(a.idle_energy(), 2 * 0.7394 * 0.5, 1e-12);
}

TEST(BreakEven, CrossoverConsistentWithEnergyCurves) {
  // Eq. 3's s* is derived from the smooth per-bit costs; the quantized
  // curves (whole 1024 B high-radio frames) cross somewhat later. Scan for
  // the actual crossing and check it brackets s* within one frame's worth
  // of slack.
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  const auto s_star = a.break_even_bits();
  ASSERT_TRUE(s_star.has_value());
  util::Bits crossing = 0;
  for (util::Bits s = bytes(32); s <= kilobytes(16); s += bytes(32)) {
    if (a.energy_high(s) <= a.energy_low(s)) {
      crossing = s;
      break;
    }
  }
  ASSERT_GT(crossing, 0) << "quantized curves never crossed";
  EXPECT_GE(crossing, *s_star);
  EXPECT_LE(crossing, *s_star + kilobytes(1));  // one frame of slack
  EXPECT_GT(a.energy_high(*s_star / 2), a.energy_low(*s_star / 2));
}

// ---- Fig. 1 claims -------------------------------------------------------

TEST(Fig1, CabletronAndLucent2NeverBeatMicaz) {
  // "Both Cabletron and Lucent (2 Mb/s) do not provide any energy savings
  // with Micaz since Micaz has a better energy-per-bit performance."
  EXPECT_FALSE(DualRadioAnalysis::standard(micaz(), cabletron_2mbps())
                   .break_even_bits()
                   .has_value());
  EXPECT_FALSE(DualRadioAnalysis::standard(micaz(), lucent_2mbps())
                   .break_even_bits()
                   .has_value());
}

TEST(Fig1, Lucent11BeatsMicazBelowOneKB) {
  // "While s* is typically low (i.e., below 1 KB)..."
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  const auto s_star = a.break_even_bits();
  ASSERT_TRUE(s_star.has_value());
  EXPECT_GT(*s_star, 0);
  EXPECT_LT(*s_star, kilobytes(1));
}

TEST(Fig1, Lucent11SavesRoughlyHalfAtFourKB) {
  // "Lucent (11 Mbps) achieves a 50% energy savings compared to Micaz at
  // around 4 KB."
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  const double savings = a.savings_fraction(kilobytes(4));
  EXPECT_GT(savings, 0.40);
  EXPECT_LT(savings, 0.65);
}

TEST(Fig1, AllWifiRadiosEventuallyBeatMicaAndMica2) {
  // Mica/Mica2 have worse per-bit energy than every 802.11 radio in Table 1.
  for (const auto* low : {&mica(), &mica2()}) {
    for (const auto* high :
         {&cabletron_2mbps(), &lucent_2mbps(), &lucent_11mbps()}) {
      auto a = DualRadioAnalysis::standard(*low, *high);
      ASSERT_TRUE(a.break_even_bits().has_value())
          << low->name << " + " << high->name;
      EXPECT_LT(*a.break_even_bits(), kilobytes(2))
          << low->name << " + " << high->name;
    }
  }
}

TEST(Fig1, SavingsGrowWithDataSize) {
  auto a = DualRadioAnalysis::standard(mica(), lucent_11mbps());
  double prev = a.savings_fraction(bytes(128));
  for (Bits s = bytes(256); s <= kilobytes(64); s *= 2) {
    const double cur = a.savings_fraction(s);
    EXPECT_GE(cur, prev - 1e-9);
    prev = cur;
  }
  EXPECT_GT(prev, 0.5);  // large transfers save a lot on Mica
}

// ---- Fig. 2 claims -------------------------------------------------------

// A (low-power, high-power) radio pair. PrintTo names the radios, so the
// test names gtest prints (and ctest discovers) do not carry addresses.
struct RadioPair {
  const RadioEnergyModel* low;
  const RadioEnergyModel* high;
};

void PrintTo(const RadioPair& pair, std::ostream* os) {
  *os << pair.low->name << "/" << pair.high->name;
}

class Fig2Pairs : public ::testing::TestWithParam<RadioPair> {};

TEST_P(Fig2Pairs, BreakEvenGrowsMonotonicallyWithIdleTime) {
  auto cfg =
      DualRadioAnalysis::standard(*GetParam().low, *GetParam().high)
          .config();
  Bits prev = 0;
  for (const double idle : {0.001, 0.01, 0.1, 1.0, 10.0}) {
    cfg.idle_time = idle;
    DualRadioAnalysis a(cfg);
    const auto s = a.break_even_bits();
    ASSERT_TRUE(s.has_value());
    EXPECT_GT(*s, prev);
    prev = *s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFeasiblePairs, Fig2Pairs,
    ::testing::Values(RadioPair{&mica(), &cabletron_2mbps()},
                      RadioPair{&mica(), &lucent_2mbps()},
                      RadioPair{&mica(), &lucent_11mbps()},
                      RadioPair{&mica2(), &cabletron_2mbps()},
                      RadioPair{&mica2(), &lucent_2mbps()},
                      RadioPair{&mica2(), &lucent_11mbps()},
                      RadioPair{&micaz(), &lucent_11mbps()}),
    [](const ::testing::TestParamInfo<RadioPair>& param_info) {
      return param_info.param.low->name + "_" +
             std::string(param_info.param.high->name).substr(0, 6) +
             std::to_string(param_info.index);
    });

TEST(Fig2, OneSecondIdleLandsInTensToHundredsOfKB) {
  // "when the total idle time is around 1 s, s* is 66-480 KB."
  for (const auto* low : {&mica(), &mica2(), &micaz()}) {
    for (const auto* high :
         {&cabletron_2mbps(), &lucent_2mbps(), &lucent_11mbps()}) {
      auto cfg = DualRadioAnalysis::standard(*low, *high).config();
      cfg.idle_time = 1.0;
      DualRadioAnalysis a(cfg);
      const auto s = a.break_even_bits();
      if (!s.has_value()) continue;  // infeasible pairs stay infeasible
      EXPECT_GT(*s, kilobytes(30)) << low->name << "+" << high->name;
      EXPECT_LT(*s, kilobytes(600)) << low->name << "+" << high->name;
    }
  }
}

// ---- Fig. 3 claims -------------------------------------------------------

TEST(Fig3, BreakEvenShrinksWithForwardProgress) {
  auto a = DualRadioAnalysis::standard(mica(), cabletron_2mbps());
  Bits prev = *a.break_even_bits_multihop(1);
  for (int fp = 2; fp <= 6; ++fp) {
    const auto s = a.break_even_bits_multihop(fp);
    ASSERT_TRUE(s.has_value());
    EXPECT_LT(*s, prev);
    prev = *s;
  }
}

TEST(Fig3, MicazCombosBecomeFeasibleAtAFewHops) {
  // "the Cabletron-Micaz and the Lucent (2 Mbps)-Micaz combinations become
  // feasible with 4 hops and 3 hops, respectively" — the exact onset
  // depends on header constants; assert it is in {2..5} and that Lucent-2
  // turns feasible no later than Cabletron (it has better per-bit cost).
  auto cab = DualRadioAnalysis::standard(micaz(), cabletron_2mbps());
  auto luc = DualRadioAnalysis::standard(micaz(), lucent_2mbps());
  int cab_onset = 0, luc_onset = 0;
  for (int fp = 1; fp <= 8; ++fp) {
    if (cab_onset == 0 && cab.break_even_bits_multihop(fp)) cab_onset = fp;
    if (luc_onset == 0 && luc.break_even_bits_multihop(fp)) luc_onset = fp;
  }
  EXPECT_GE(cab_onset, 2);
  EXPECT_LE(cab_onset, 5);
  EXPECT_GE(luc_onset, 2);
  EXPECT_LE(luc_onset, 5);
  EXPECT_LE(luc_onset, cab_onset);
}

TEST(Fig3, MultihopBreakEvenIsSubKBForMicaPairs) {
  // "s* for Cabletron and Lucent (2 Mbps) radios is lower for the
  // multi-hop case (i.e., 0.15-0.75 KB)" at 5 hops with Mica-class radios.
  for (const auto* high : {&cabletron_2mbps(), &lucent_2mbps()}) {
    auto a = DualRadioAnalysis::standard(mica(), *high);
    const auto s = a.break_even_bits_multihop(5);
    ASSERT_TRUE(s.has_value());
    EXPECT_LT(*s, kilobytes(1)) << high->name;
  }
}

TEST(Fig3, MultihopEnergiesMatchEquations4And5) {
  auto a = DualRadioAnalysis::standard(mica(), cabletron_2mbps());
  const Bits s = kilobytes(4);
  EXPECT_DOUBLE_EQ(a.energy_low_multihop(s, 5), 5 * a.energy_low(s));
  EXPECT_NEAR(a.energy_high_multihop(s, 5),
              a.energy_high(s) + 4 * a.low_wakeup_energy(), 1e-15);
  EXPECT_DOUBLE_EQ(a.energy_low_multihop(s, 1), a.energy_low(s));
  EXPECT_DOUBLE_EQ(a.energy_high_multihop(s, 1), a.energy_high(s));
  EXPECT_THROW(a.energy_low_multihop(s, 0), std::invalid_argument);
}

// ---- Fig. 4 claims -------------------------------------------------------

TEST(Fig4, NoSavingsForSinglePacketBursts) {
  for (const auto* high :
       {&cabletron_2mbps(), &lucent_2mbps(), &lucent_11mbps()}) {
    auto a = DualRadioAnalysis::standard(micaz(), *high);
    EXPECT_DOUBLE_EQ(a.burst_savings_fraction(1, 0.0), 0.0) << high->name;
    EXPECT_DOUBLE_EQ(a.burst_savings_fraction(1, 0.1), 0.0) << high->name;
  }
}

TEST(Fig4, SavingsIncreaseMonotonicallyWithBurstSize) {
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  double prev = -1;
  for (const int n : {1, 2, 5, 10, 50, 100, 1000}) {
    const double s = a.burst_savings_fraction(n, 0.0);
    EXPECT_GT(s, prev);
    EXPECT_LT(s, 1.0);
    prev = s;
  }
}

TEST(Fig4, MajorityOfSavingsReachedByTenPackets) {
  // "Since, in both cases, the majority of savings are obtained when
  // n = 10, this can be used as the rule of thumb."
  for (const double idle : {0.0, 0.1}) {
    auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
    const double at_10 = a.burst_savings_fraction(10, idle);
    const double at_1000 = a.burst_savings_fraction(1000, idle);
    EXPECT_GT(at_10, 0.85 * at_1000);
  }
}

TEST(Fig4, IdlingBeforeOffIncreasesSavings) {
  // "The energy savings are greater when nodes idle 100 ms before turning
  // off."
  for (const auto* high :
       {&cabletron_2mbps(), &lucent_2mbps(), &lucent_11mbps()}) {
    auto a = DualRadioAnalysis::standard(micaz(), *high);
    for (const int n : {2, 10, 100}) {
      EXPECT_GT(a.burst_savings_fraction(n, 0.1),
                a.burst_savings_fraction(n, 0.0))
          << high->name << " n=" << n;
    }
  }
}

TEST(Fig4, IdleCurvesApproachUnityForLargeBursts) {
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  EXPECT_GT(a.burst_savings_fraction(1000, 0.1), 0.9);
}

// ---- misc ---------------------------------------------------------------

TEST(BreakEven, RetransmissionsShiftTheBalance) {
  // More low-radio retransmissions make the high radio attractive sooner.
  auto base = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  auto cfg = base.config();
  cfg.low_link.retransmissions = 2.0;
  DualRadioAnalysis noisy(cfg);
  EXPECT_LT(*noisy.break_even_bits(), *base.break_even_bits());

  // And high-radio retransmissions can destroy feasibility entirely.
  auto cfg2 = base.config();
  cfg2.high_link.retransmissions = 3.0;
  DualRadioAnalysis bad(cfg2);
  EXPECT_FALSE(bad.break_even_bits().has_value());
}

TEST(BreakEven, FromAnalysisAlphaScalesThreshold) {
  auto a = DualRadioAnalysis::standard(mica(), lucent_11mbps());
  ASSERT_TRUE(a.break_even_bits().has_value());
  const auto s = *a.break_even_bits();
  EXPECT_GT(a.energy_low(s), 0.0);
}

TEST(BreakEven, ConfigValidation) {
  auto cfg = DualRadioAnalysis::standard(micaz(), lucent_11mbps()).config();
  cfg.low_link.retransmissions = 0.5;
  EXPECT_THROW(DualRadioAnalysis{cfg}, std::invalid_argument);
  cfg = DualRadioAnalysis::standard(micaz(), lucent_11mbps()).config();
  cfg.idle_time = -1;
  EXPECT_THROW(DualRadioAnalysis{cfg}, std::invalid_argument);
  cfg = DualRadioAnalysis::standard(micaz(), lucent_11mbps()).config();
  cfg.high_link.payload_bits = 0;
  EXPECT_THROW(DualRadioAnalysis{cfg}, std::invalid_argument);
}

TEST(BreakEven, BurstSavingsRejectsBadArguments) {
  auto a = DualRadioAnalysis::standard(micaz(), lucent_11mbps());
  EXPECT_THROW(a.burst_savings_fraction(0, 0.0), std::invalid_argument);
  EXPECT_THROW(a.burst_savings_fraction(5, -0.1), std::invalid_argument);
}

}  // namespace
}  // namespace bcp::energy
