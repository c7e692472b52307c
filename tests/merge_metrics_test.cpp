// Rule test for detail::merge_metrics, the sharded engine's per-shard
// metric fold, and for app::first_metric_difference. Both are generated
// from the BCP_RUN_METRICS field table in scenario.hpp, where a new metric
// is one line carrying its merge rule; this test walks the same table
// instead of listing fields. It pins, as a literal list, every field whose
// rule is not kSum (so a field tagged with the wrong rule fails here), then
// checks each rule over every scalar: sums add, time_to_first_death takes
// the earliest non-sentinel value, the drawn fraction takes the max, and
// kAfterFold fields are left for finalize_metrics. standard_metrics and
// perfbench's print_counts are curated views outside the table and do not
// pick a new field up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "app/scenario.hpp"
#include "app/scenario_detail.hpp"

namespace bcp {
namespace {

using app::MergeRule;

/// Calls f(name, rule, scalar) for every scalar of `m` in table order:
/// energy components ("wifi_energy.idle") and shard_events entries
/// ("shard_events[]") carry their field's rule.
template <class M, class F>
void for_each_scalar(M& m, F&& f) {
  app::for_each_metric(m, [&f](const char* name, MergeRule rule,
                               auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, app::RadioEnergyTotals>) {
      app::for_each_energy(field, [&](const char* part, auto& j) {
        f(std::string(name) + "." + part, rule, j);
      });
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
      for (auto& e : field) f(std::string(name) + "[]", rule, e);
    } else {
      f(std::string(name), rule, field);
    }
  });
}

/// A RunMetrics with every scalar set to a distinct value above `base`
/// (and one shard_events entry), so a dropped or cross-wired merge rule
/// shows up as a wrong total.
app::RunMetrics filled(std::int64_t base) {
  app::RunMetrics m;
  m.shard_events.resize(1);
  std::int64_t v = base;
  for_each_scalar(m, [&v](const std::string&, MergeRule, auto& x) {
    x = static_cast<std::decay_t<decltype(x)>>(++v);
  });
  return m;
}

struct Scalar {
  std::string name;
  MergeRule rule;
  double value;
};

std::vector<Scalar> scalars(const app::RunMetrics& m) {
  std::vector<Scalar> out;
  for_each_scalar(m, [&out](const std::string& name, MergeRule rule,
                            auto x) {
    out.push_back({name, rule, static_cast<double>(x)});
  });
  return out;
}

TEST(MergeMetrics, OnlyThePinnedFieldsAreNotSummed) {
  const std::vector<std::pair<std::string, MergeRule>> expected = {
      {"goodput", MergeRule::kAfterFold},
      {"mean_delay", MergeRule::kAfterFold},
      {"normalized_energy", MergeRule::kAfterFold},
      {"normalized_energy_sensor_ideal", MergeRule::kAfterFold},
      {"normalized_energy_sensor_header", MergeRule::kAfterFold},
      {"time_to_first_death", MergeRule::kEarliest},
      {"time_to_sink_partition", MergeRule::kAfterFold},
      {"delivered_bits_until_first_death", MergeRule::kAfterFold},
      {"delivered_bits_until_partition", MergeRule::kAfterFold},
      {"battery_max_drawn_fraction", MergeRule::kMax},
      {"shard_events", MergeRule::kAfterFold},
      {"boundary_frames", MergeRule::kAfterFold},
  };
  std::vector<std::pair<std::string, MergeRule>> actual;
  const app::RunMetrics m;
  app::for_each_metric(m, [&actual](const char* name, MergeRule rule,
                                    const auto&) {
    if (rule != MergeRule::kSum) actual.emplace_back(name, rule);
  });
  EXPECT_EQ(actual, expected);
}

TEST(MergeMetrics, EveryFieldHasTheRightRule) {
  const app::RunMetrics a = filled(100);
  const app::RunMetrics b = filled(1000);
  app::RunMetrics total = a;
  app::detail::merge_metrics(total, b);

  const std::vector<Scalar> sa = scalars(a);
  const std::vector<Scalar> sb = scalars(b);
  const std::vector<Scalar> st = scalars(total);
  // A fold that touched shard_events would change the scalar count.
  ASSERT_EQ(st.size(), sa.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    const double x = sa[i].value;
    const double y = sb[i].value;
    double want = x;  // kAfterFold: the fold leaves the total alone
    switch (st[i].rule) {
      case MergeRule::kSum:
        want = x + y;
        break;
      case MergeRule::kEarliest:
        want = std::min(x, y);
        break;
      case MergeRule::kMax:
        want = std::max(x, y);
        break;
      case MergeRule::kAfterFold:
        break;
    }
    EXPECT_EQ(st[i].value, want) << st[i].name;
  }
}

TEST(MergeMetrics, TimeToFirstSentinelsNeverWin) {
  // -1 means "never happened": it must lose to any real value in either
  // direction and survive only when both sides are sentinels.
  app::RunMetrics total;
  app::RunMetrics part;
  part.time_to_first_death = 42.0;
  part.time_to_sink_partition = 43.0;
  app::detail::merge_metrics(total, part);
  EXPECT_EQ(total.time_to_first_death, 42.0);
  // time_to_sink_partition is assigned after the fold: the fold leaves
  // the total's sentinel alone.
  EXPECT_EQ(total.time_to_sink_partition, -1.0);

  app::RunMetrics sentinel_part;
  app::detail::merge_metrics(total, sentinel_part);
  EXPECT_EQ(total.time_to_first_death, 42.0);

  app::RunMetrics earlier;
  earlier.time_to_first_death = 7.0;
  app::detail::merge_metrics(total, earlier);
  EXPECT_EQ(total.time_to_first_death, 7.0);

  app::RunMetrics never_total;
  app::RunMetrics never_part;
  app::detail::merge_metrics(never_total, never_part);
  EXPECT_EQ(never_total.time_to_first_death, -1.0);
}

TEST(FirstMetricDifference, NamesTheFieldOfEveryChangedScalar) {
  const app::RunMetrics a = filled(100);
  EXPECT_EQ(app::first_metric_difference(a, a), nullptr);
  const std::size_t n = scalars(a).size();
  for (std::size_t i = 0; i < n; ++i) {
    app::RunMetrics b = a;
    std::size_t k = 0;
    std::string changed;
    for_each_scalar(b, [&](const std::string& name, MergeRule, auto& x) {
      if (k++ != i) return;
      x += 1;
      changed = name;
    });
    const char* diff = app::first_metric_difference(a, b);
    ASSERT_NE(diff, nullptr) << changed;
    EXPECT_EQ(diff, changed.substr(0, changed.find_first_of(".["))) << changed;
  }
  app::RunMetrics longer = a;
  longer.shard_events.push_back(0);
  EXPECT_STREQ(app::first_metric_difference(a, longer), "shard_events");
}

}  // namespace
}  // namespace bcp
