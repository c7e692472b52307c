// Unit tests: the parallel sweep engine (grid enumeration, deterministic
// fan-out, result aggregation).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "app/sweep.hpp"
#include "stats/result_sink.hpp"

namespace bcp::app {
namespace {

TEST(SweepGrid, EnumeratesLastAxisFastest) {
  SweepGrid grid;
  grid.axis("a", {1, 2}).axis("b", {10, 20, 30});
  ASSERT_EQ(grid.size(), 6u);
  // Expected order: (1,10) (1,20) (1,30) (2,10) (2,20) (2,30).
  const double expect[][2] = {{1, 10}, {1, 20}, {1, 30},
                              {2, 10}, {2, 20}, {2, 30}};
  for (std::size_t i = 0; i < 6; ++i) {
    const SweepPoint p = grid.point(i);
    EXPECT_EQ(p.index(), i);
    EXPECT_DOUBLE_EQ(p.get("a"), expect[i][0]);
    EXPECT_DOUBLE_EQ(p.get("b"), expect[i][1]);
  }
}

TEST(SweepGrid, IndexOfInvertsEnumeration) {
  SweepGrid grid;
  grid.axis_ints("x", {1, 2, 3}).axis_ints("y", {4, 5}).constant("z", 9);
  for (std::size_t xi = 0; xi < 3; ++xi)
    for (std::size_t yi = 0; yi < 2; ++yi) {
      const std::size_t i = grid.index_of({xi, yi, 0});
      const SweepPoint p = grid.point(i);
      EXPECT_DOUBLE_EQ(p.get("x"), 1.0 + static_cast<double>(xi));
      EXPECT_DOUBLE_EQ(p.get("y"), 4.0 + static_cast<double>(yi));
      EXPECT_DOUBLE_EQ(p.get("z"), 9.0);
    }
}

TEST(SweepGrid, PointAccessors) {
  SweepGrid grid;
  grid.axis("rate", {2.5});
  const SweepPoint p = grid.point(0);
  EXPECT_DOUBLE_EQ(p.get("rate"), 2.5);
  EXPECT_EQ(p.get_int("rate"), 3);  // rounds to nearest
  EXPECT_THROW(p.get("missing"), std::invalid_argument);
}

TEST(SweepGrid, RejectsBadDefinitions) {
  SweepGrid grid;
  grid.axis("a", {1});
  EXPECT_THROW(grid.axis("a", {2}), std::invalid_argument);  // duplicate
  EXPECT_THROW(grid.axis("b", {}), std::invalid_argument);   // empty
  EXPECT_EQ(SweepGrid().size(), 0u);
}

stats::ResultSink::Metrics synthetic_metrics(const SweepJob& job) {
  const double x = job.point.get("x");
  const double y = job.point.get("y");
  return {{"sum", x + y + static_cast<double>(job.seed)},
          {"prod", x * y * static_cast<double>(job.replication + 1)}};
}

TEST(SweepRunner, OutputIsByteIdenticalAcrossThreadCounts) {
  // >= 100 points, as the sweep engine's contract demands.
  SweepGrid grid;
  std::vector<int> xs, ys;
  for (int i = 0; i < 12; ++i) xs.push_back(i);
  for (int i = 0; i < 10; ++i) ys.push_back(100 + i);
  grid.axis_ints("x", xs).axis_ints("y", ys);
  ASSERT_GE(grid.size(), 100u);

  SweepOptions base;
  base.replications = 3;
  base.base_seed = 42;

  std::string reference;
  for (const int threads : {1, 2, 4, 7}) {
    SweepOptions opts = base;
    opts.threads = threads;
    const stats::ResultSink sink =
        SweepRunner(opts).run(grid, synthetic_metrics);
    EXPECT_EQ(sink.point_count(), grid.size());
    const std::string json = sink.to_json("determinism");
    if (reference.empty())
      reference = json;
    else
      EXPECT_EQ(json, reference) << "thread count " << threads
                                 << " changed the output";
  }
}

TEST(SweepRunner, UsesRequestedWorkerCount) {
  SweepGrid grid;
  grid.axis_ints("x", {1, 2, 3, 4}).axis_ints("y", {1, 2, 3, 4});

  std::mutex mu;
  std::set<std::thread::id> seen;
  SweepOptions opts;
  opts.threads = 4;
  opts.replications = 4;
  SweepRunner(opts).run(grid, [&](const SweepJob& job) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(std::this_thread::get_id());
    }
    return synthetic_metrics(job);
  });
  // The pool is bounded by the request (a fast worker may drain the queue
  // before its peers start, so only the upper bound is exact).
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 4u);
  EXPECT_EQ(SweepRunner(opts).effective_threads(64), 4);
  // Thread count never exceeds the job count.
  EXPECT_EQ(SweepRunner(opts).effective_threads(2), 2);
}

TEST(SweepRunner, ReplicationSeedsClimbFromBase) {
  SweepGrid grid;
  grid.axis_ints("x", {0, 1}).constant("y", 0);
  SweepOptions opts;
  opts.replications = 3;
  opts.base_seed = 100;
  opts.threads = 1;
  std::vector<std::uint64_t> seeds;
  SweepRunner(opts).run(grid, [&](const SweepJob& job) {
    seeds.push_back(job.seed);
    return synthetic_metrics(job);
  });
  ASSERT_EQ(seeds.size(), 6u);
  // Per point: replications 0,1,2 -> seeds 100,101,102.
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{100, 101, 102, 100, 101,
                                               102}));
}

TEST(SweepRunner, PropagatesJobExceptions) {
  SweepGrid grid;
  grid.axis_ints("x", {0, 1, 2, 3}).constant("y", 0);
  SweepOptions opts;
  opts.threads = 2;
  EXPECT_THROW(SweepRunner(opts).run(grid,
                                     [](const SweepJob& job)
                                         -> stats::ResultSink::Metrics {
                                       if (job.point.get_int("x") == 2)
                                         throw std::runtime_error("boom");
                                       return synthetic_metrics(job);
                                     }),
               std::runtime_error);
}

TEST(SweepRunner, AggregatesReplicationsPerPoint) {
  SweepGrid grid;
  grid.axis("x", {1.0}).axis("y", {2.0});
  SweepOptions opts;
  opts.replications = 5;
  opts.base_seed = 0;
  const stats::ResultSink sink =
      SweepRunner(opts).run(grid, [](const SweepJob& job) {
        return stats::ResultSink::Metrics{
            {"value", static_cast<double>(job.seed)}};
      });
  const stats::Summary& s = sink.metric(0, "value");
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);  // mean of 0..4
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(ResultSink, GuardsMetricSchemaAcrossReplications) {
  stats::ResultSink sink;
  sink.add(0, {{"x", 1}}, {{"a", 1.0}, {"b", 2.0}});
  EXPECT_THROW(sink.add(0, {{"x", 1}}, {{"a", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(sink.add(0, {{"x", 1}}, {{"a", 1.0}, {"c", 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(sink.metric(0, "nope"), std::invalid_argument);
  EXPECT_THROW(sink.metric(9, "a"), std::invalid_argument);
}

TEST(ResultSink, GuardsSchemaAcrossPoints) {
  stats::ResultSink sink;
  sink.add(0, {{"x", 1}}, {{"a", 1.0}});
  // A second point must carry the same param/metric names — the table
  // header comes from the first point.
  EXPECT_THROW(sink.add(1, {{"x", 2}}, {{"b", 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(sink.add(1, {{"y", 2}}, {{"a", 1.0}}),
               std::invalid_argument);
  sink.add(1, {{"x", 2}}, {{"a", 3.0}});
  EXPECT_EQ(sink.point_count(), 2u);
}

TEST(ResultSink, JsonCarriesLabelsParamsAndStats) {
  stats::ResultSink sink;
  sink.add(0, {{"senders", 5}}, {{"goodput", 0.5}});
  sink.add(0, {{"senders", 5}}, {{"goodput", 1.0}});
  sink.set_label(0, "DualRadio-500");
  const std::string json = sink.to_json("demo");
  EXPECT_NE(json.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"DualRadio-500\""), std::string::npos);
  EXPECT_NE(json.find("\"senders\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"n\": 2"), std::string::npos);
}

TEST(ResultSinkMeta, EmittedInJsonWhenSet) {
  stats::ResultSink sink;
  sink.add(0, {{"x", 1}}, {{"m", 2.0}});
  // No meta: no "meta" key (the historical byte-identical format).
  EXPECT_EQ(sink.to_json("plain").find("\"meta\""), std::string::npos);
  sink.set_meta("topology", "grid");
  sink.set_meta("node_count", 36.0);
  sink.set_meta("seed", 1.0);
  const std::string json = sink.to_json("demo");
  EXPECT_NE(json.find("\"meta\": {\"topology\": \"grid\", "
                      "\"node_count\": 36, \"seed\": 1}"),
            std::string::npos)
      << json;
  // Overwrite keeps insertion order and the latest value.
  sink.set_meta("topology", "rand");
  EXPECT_NE(sink.to_json("demo").find("\"topology\": \"rand\", "
                                      "\"node_count\": 36"),
            std::string::npos);
}

TEST(ResultSinkMeta, ShardedExportsCarryPeakRss) {
  // Any sharded meta key triggers the automatic peak-RSS sample — the
  // memory-model audit trail every sharded BENCH_*.json must carry.
  for (const char* key : {"shards", "headline_shards"}) {
    stats::ResultSink sink;
    sink.add(0, {{"x", 1}}, {{"m", 2.0}});
    sink.set_meta(key, 4.0);
    const std::string json = sink.to_json("demo");
    EXPECT_NE(json.find("\"peak_rss_mib\": "), std::string::npos)
        << key << ": " << json;
  }
  // An explicitly set value wins over the automatic sample.
  stats::ResultSink sink;
  sink.add(0, {{"x", 1}}, {{"m", 2.0}});
  sink.set_meta("shards", 4.0);
  sink.set_meta("peak_rss_mib", 123.5);
  const std::string json = sink.to_json("demo");
  EXPECT_NE(json.find("\"peak_rss_mib\": 123.5"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"peak_rss_mib\": 123.5"),
            json.rfind("\"peak_rss_mib\""));
  // Unsharded meta exports exactly the entries that were set.
  stats::ResultSink plain;
  plain.add(0, {{"x", 1}}, {{"m", 2.0}});
  plain.set_meta("seed", 1.0);
  EXPECT_EQ(plain.to_json("demo").find("peak_rss_mib"), std::string::npos);
}

TEST(SweepRunner, ScenarioSweepIdenticalAcrossThreadCounts) {
  // A real (tiny) simulation sweep: identical output at 1 and 4 threads.
  SweepGrid grid;
  grid.axis_ints("senders", {3, 5});
  const SweepFn fn = [](const SweepJob& job) {
    ScenarioConfig cfg = ScenarioConfig::multi_hop(
        EvalModel::kDualRadio, job.point.get_int("senders"), 10);
    cfg.duration = 30;
    cfg.seed = job.seed;
    return standard_metrics(run_scenario(cfg));
  };

  SweepOptions opts;
  opts.replications = 2;
  opts.threads = 1;
  const std::string j1 =
      SweepRunner(opts).run(grid, fn).to_json("scenario");
  opts.threads = 4;
  const std::string j4 =
      SweepRunner(opts).run(grid, fn).to_json("scenario");
  EXPECT_EQ(j1, j4);
  EXPECT_NE(j1.find("goodput"), std::string::npos);
}

}  // namespace
}  // namespace bcp::app
