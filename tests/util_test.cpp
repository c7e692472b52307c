// Unit tests: util module (rng, units, options, contracts).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/sysinfo.hpp"
#include "util/units.hpp"

namespace bcp::util {
namespace {

TEST(Units, ByteConversionsRoundTrip) {
  EXPECT_EQ(bytes(1), 8);
  EXPECT_EQ(bytes(32), 256);
  EXPECT_EQ(kilobytes(1), 8192);
  EXPECT_DOUBLE_EQ(to_bytes(bytes(1024)), 1024.0);
  EXPECT_DOUBLE_EQ(to_kilobytes(kilobytes(7)), 7.0);
}

TEST(Units, PowerAndEnergyScaling) {
  EXPECT_DOUBLE_EQ(milliwatts(1400), 1.4);
  EXPECT_DOUBLE_EQ(millijoules(0.6), 0.0006);
  EXPECT_DOUBLE_EQ(microjoules(250), 0.00025);
}

TEST(Units, RateHelpers) {
  EXPECT_DOUBLE_EQ(kbps(250), 250e3);
  EXPECT_DOUBLE_EQ(mbps(11), 11e6);
}

TEST(Units, TxDurationMatchesHandComputation) {
  // 1024 B at 2 Mb/s = 4.096 ms.
  EXPECT_NEAR(tx_duration(bytes(1024), mbps(2)), 4.096e-3, 1e-12);
  // 32 B at 40 Kb/s = 6.4 ms.
  EXPECT_NEAR(tx_duration(bytes(32), kbps(40)), 6.4e-3, 1e-12);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(milliseconds(100), 0.1);
  EXPECT_DOUBLE_EQ(microseconds(20), 2e-5);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.5);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIntCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntMeanIsCentred) {
  Xoshiro256 rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(rng.uniform_int(100));
  EXPECT_NEAR(sum / n, 49.5, 0.5);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyApproximatesP) {
  Xoshiro256 rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Xoshiro256 rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialIsPositive) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, SubstreamsAreIndependentOfSiblingCount) {
  // The stream for (seed, id, salt) must not depend on other streams.
  const auto s1 = substream(99, 5, 1);
  const auto s2 = substream(99, 5, 1);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(substream(99, 5, 1), substream(99, 6, 1));
  EXPECT_NE(substream(99, 5, 1), substream(99, 5, 2));
  EXPECT_NE(substream(99, 5, 1), substream(100, 5, 1));
}

TEST(Rng, InvalidArgumentsThrow) {
  Xoshiro256 rng(1);
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
  EXPECT_THROW(rng.chance(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.chance(1.1), std::invalid_argument);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Contracts, RequireAndEnsureThrowDistinctTypes) {
  EXPECT_THROW(BCP_REQUIRE(false), std::invalid_argument);
  EXPECT_THROW(BCP_ENSURE(false), std::logic_error);
  EXPECT_NO_THROW(BCP_REQUIRE(true));
  EXPECT_NO_THROW(BCP_ENSURE(true));
}

TEST(Options, DefaultsAndParsing) {
  Options opt("prog", "test");
  opt.add_flag("full", "run full scale")
      .add_int("runs", 3, "replications")
      .add_double("rate", 0.2, "kbps")
      .add_string("mode", "sh", "case");
  const char* argv[] = {"prog", "--runs", "20", "--full", "--rate=2.0"};
  ASSERT_TRUE(opt.parse(5, argv));
  EXPECT_TRUE(opt.flag("full"));
  EXPECT_EQ(opt.get_int("runs"), 20);
  EXPECT_DOUBLE_EQ(opt.get_double("rate"), 2.0);
  EXPECT_EQ(opt.get_string("mode"), "sh");
}

TEST(Options, UnknownOptionFails) {
  Options opt("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(opt.parse(2, argv));
}

TEST(Options, MissingValueFails) {
  Options opt("prog", "test");
  opt.add_int("runs", 3, "replications");
  const char* argv[] = {"prog", "--runs"};
  EXPECT_FALSE(opt.parse(2, argv));
}

TEST(Options, BadNumberFails) {
  Options opt("prog", "test");
  opt.add_int("runs", 3, "replications");
  const char* argv[] = {"prog", "--runs", "abc"};
  EXPECT_FALSE(opt.parse(3, argv));
}

TEST(Options, HelpReturnsFalse) {
  Options opt("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(opt.parse(2, argv));
}

TEST(Options, UndeclaredLookupThrows) {
  Options opt("prog", "test");
  EXPECT_THROW(opt.get_int("zzz"), std::invalid_argument);
}

TEST(Options, DuplicateDeclarationThrows) {
  Options opt("prog", "test");
  opt.add_int("runs", 1, "x");
  EXPECT_THROW(opt.add_flag("runs", "y"), std::invalid_argument);
}

TEST(Options, UsageMentionsEveryOption) {
  Options opt("prog", "summary");
  opt.add_flag("full", "everything").add_int("runs", 3, "count");
  const std::string u = opt.usage();
  EXPECT_NE(u.find("--full"), std::string::npos);
  EXPECT_NE(u.find("--runs"), std::string::npos);
  EXPECT_NE(u.find("summary"), std::string::npos);
}

TEST(Sysinfo, PeakRssIsPositiveAndMonotone) {
  const double first = peak_rss_mib();
  EXPECT_GT(first, 0.0);  // a running test binary has resident pages
  // ru_maxrss is a high-water mark: it can only grow.
  EXPECT_GE(peak_rss_mib(), first);
}

TEST(FlatMap, MatchesStdMapUnderRandomInsertEraseFind) {
  // Differential: every operation on FlatMap and std::map gives the same
  // answer, and after each step both iterate the same (key, value) pairs
  // in the same ascending-key order (the determinism contract the BCP
  // tables rely on).
  Xoshiro256 rng(20261017);
  FlatMap<int, int> flat;
  std::map<int, int> ref;
  const auto same_contents = [&] {
    std::vector<std::pair<int, int>> a(flat.begin(), flat.end());
    std::vector<std::pair<int, int>> b(ref.begin(), ref.end());
    return a == b;
  };
  for (int step = 0; step < 4000; ++step) {
    const int key = static_cast<int>(rng.uniform_int(64)) - 16;
    const int value = static_cast<int>(rng.uniform_int(1000));
    switch (rng.uniform_int(5)) {
      case 0: {
        const auto [fit, finserted] = flat.try_emplace(key, value);
        const auto [rit, rinserted] = ref.emplace(key, value);
        ASSERT_EQ(finserted, rinserted) << "step " << step;
        ASSERT_EQ(fit->second, rit->second) << "step " << step;
        break;
      }
      case 1:
        flat[key] = value;
        ref[key] = value;
        break;
      case 2:
        ASSERT_EQ(flat.erase(key), ref.erase(key)) << "step " << step;
        break;
      case 3: {
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end()) << "step " << step;
        if (fit != flat.end()) {
          ASSERT_EQ(fit->second, rit->second) << "step " << step;
          // Erase through the iterator too.
          flat.erase(fit);
          ref.erase(rit);
        }
        break;
      }
      default:
        ASSERT_EQ(flat.count(key), ref.count(key)) << "step " << step;
        if (step % 500 == 499) {
          flat.clear();
          ref.clear();
        }
        break;
    }
    ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
    ASSERT_EQ(flat.empty(), ref.empty()) << "step " << step;
    ASSERT_TRUE(same_contents()) << "step " << step;
  }
}

TEST(FlatMap, EmptyMapIsJustOneVector) {
  FlatMap<int, int> m;
  EXPECT_EQ(sizeof(m), sizeof(std::vector<std::pair<int, int>>));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(3), m.end());
  EXPECT_EQ(m.erase(3), 0u);
}

}  // namespace
}  // namespace bcp::util
