// Sweep result aggregation and export.
//
// A ResultSink collects one Metrics row per (grid point, replication) and
// folds them into per-point, per-metric Summary statistics — the
// mean ± 95% CI numbers the paper's figures plot. Two exports:
//
//   to_table()  — a diffable text table (one row per point: params, then
//                 mean±ci per metric), the format every bench prints;
//   to_json()   — a machine-readable document the benches write as
//                 BENCH_<name>.json:
//
//   {
//     "bench": "<name>",
//     "meta": {"topology": "grid", "node_count": 36, "seed": 1, ...},
//     "points": [
//       {"params": {"senders": 5, ...},
//        "metrics": {"goodput": {"mean": ..., "ci95": ..., "stddev": ...,
//                                "min": ..., "max": ..., "n": N}, ...}},
//       ...
//     ]
//   }
//
// "meta" carries run-level scenario metadata (set_meta); the scenario
// benches record at least topology, node_count and seed there. The key is
// omitted entirely when no metadata was set, so metadata-free exports are
// byte-identical to the historical format.
//
// Rows must be added in deterministic order (the SweepRunner feeds them in
// job order after the parallel phase); given that, both exports are
// byte-identical across thread counts.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace bcp::stats {

class ResultSink {
 public:
  /// Named values; order is preserved into the exports.
  using Params = std::vector<std::pair<std::string, double>>;
  using Metrics = std::vector<std::pair<std::string, double>>;

  /// Folds one replication's metrics into the aggregate for grid point
  /// `point_index`. The first row of the whole sink fixes the param and
  /// metric name sets; every later row — same point or new — must match
  /// (same names, same order). Points may arrive in any order but each
  /// new point allocates its slot on first sight, so feed rows in job
  /// order for stable output.
  void add(std::size_t point_index, const Params& params,
           const Metrics& metrics);

  /// Attaches a human-readable label to a point (e.g. "DualRadio-500");
  /// emitted as "label" in the JSON and as the first table column. The
  /// point must have been added already.
  void set_label(std::size_t point_index, std::string label);

  /// One run-level metadata entry; `quoted` distinguishes string values
  /// from numbers in the export.
  struct MetaEntry {
    std::string key;
    std::string value;
    bool quoted = true;
  };

  /// Records one run-level metadata entry, emitted under "meta" in the
  /// JSON in insertion order (numbers unquoted, strings quoted). Setting
  /// an existing key overwrites its value.
  void set_meta(const std::string& key, std::string value);
  void set_meta(const std::string& key, double value);

  /// Metadata entries in insertion order.
  const std::vector<MetaEntry>& meta() const { return meta_; }

  /// Distinct grid points seen so far.
  std::size_t point_count() const { return points_.size(); }

  /// Aggregate for one metric of one point; throws if absent.
  const Summary& metric(std::size_t point_index,
                        const std::string& name) const;

  /// Params recorded for a point; throws if the point was never added.
  const Params& params(std::size_t point_index) const;

  /// One row per point: params, then "mean±ci" per metric.
  TextTable to_table() const;

  /// Exports with one automatic addition: when the meta names a sharded
  /// run ("shards" or "headline_shards") and no explicit "peak_rss_mib"
  /// was set, the process peak RSS is sampled at export time and appended
  /// to the meta — the memory-model audit trail for every sharded cell.
  /// Meta without those keys exports exactly the entries that were set.
  std::string to_json(const std::string& bench_name) const;

  /// Writes to_json() to `path`. Returns false, with an "[ERROR]" line on
  /// stderr, on I/O failure.
  bool write_json(const std::string& bench_name,
                  const std::string& path) const;

 private:
  struct PointAgg {
    std::size_t point_index = 0;
    std::string label;
    Params params;
    std::vector<std::pair<std::string, Summary>> metrics;
  };

  PointAgg* find(std::size_t point_index);
  const PointAgg* find(std::size_t point_index) const;
  void set_meta_entry(MetaEntry entry);

  std::vector<PointAgg> points_;  // in first-seen order
  std::vector<MetaEntry> meta_;   // in insertion order
};

}  // namespace bcp::stats
