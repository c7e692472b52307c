// Parallel scenario-sweep engine.
//
// The paper's results are parameter sweeps (senders x burst size x radio
// pair x ...; Figs. 1-12), and the bench harnesses all share the same
// shape: enumerate a cartesian grid, run each point `replications` times
// with consecutive seeds, aggregate per-point statistics. This module
// makes that shape first-class:
//
//   SweepGrid    — named axes, cartesian product, stable point ordering
//                  (first axis slowest, last axis fastest);
//   SweepRunner  — fans (point, replication) jobs out across a thread
//                  pool; every job gets a deterministic seed, every worker
//                  builds its own Simulator (the sim kernel itself is
//                  single-threaded by design), and results are merged into
//                  a stats::ResultSink in job order, so the output is
//                  byte-identical at any thread count.
//
// The job function is generic — simulation points call app::run_scenario,
// the analytic figures evaluate closed forms, the prototype figures call
// emul::run_prototype — so every bench driver is a declarative grid plus a
// point-evaluator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "stats/result_sink.hpp"

namespace bcp::app {

/// One point of a cartesian parameter grid: named double values, one per
/// axis, in axis declaration order.
class SweepPoint {
 public:
  using Params = std::vector<std::pair<std::string, double>>;

  SweepPoint(std::size_t index, Params params)
      : index_(index), params_(std::move(params)) {}

  /// Position in the grid's enumeration order.
  std::size_t index() const { return index_; }

  const Params& params() const { return params_; }

  /// Value of the named axis; throws if the grid has no such axis.
  double get(const std::string& name) const;

  /// get() rounded to the nearest integer (axes often carry counts).
  int get_int(const std::string& name) const;

 private:
  std::size_t index_;
  Params params_;
};

/// A cartesian parameter grid. Axes enumerate in declaration order with
/// the last-declared axis varying fastest, so point(i) is a stable
/// function of the grid definition alone.
class SweepGrid {
 public:
  /// Appends an axis. Name must be unique, values non-empty.
  SweepGrid& axis(std::string name, std::vector<double> values);

  /// Convenience: integer axis values.
  SweepGrid& axis_ints(std::string name, const std::vector<int>& values);

  /// Convenience: a one-value axis (a constant recorded in every point).
  SweepGrid& constant(std::string name, double value);

  /// Number of grid points (product of axis sizes); 0 for an empty grid.
  std::size_t size() const;

  /// The i-th point in enumeration order.
  SweepPoint point(std::size_t i) const;

  /// Point index from one value-index per axis (declaration order).
  std::size_t index_of(const std::vector<std::size_t>& digits) const;

 private:
  struct Axis {
    std::string name;
    std::vector<double> values;
  };
  std::vector<Axis> axes_;
};

/// One unit of work: a grid point plus a replication number and the seed
/// that replication must use. Seeds are `base_seed + replication`, the
/// same ladder app::run_replications climbs, so engine results match the
/// legacy hand-rolled loops run for run.
struct SweepJob {
  SweepPoint point;
  int replication = 0;
  std::uint64_t seed = 1;
};

struct SweepOptions {
  /// Replications per grid point (seeded base_seed, base_seed+1, ...).
  int replications = 1;
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int threads = 0;
};

/// Evaluates one job to a set of named metric values.
using SweepFn = std::function<stats::ResultSink::Metrics(const SweepJob&)>;

/// Runs every (point, replication) job of a grid across a thread pool.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  const SweepOptions& options() const { return options_; }

  /// Executes the full grid and merges all rows into the returned sink in
  /// (point, replication) order — independent of thread count or
  /// completion order. A job that throws aborts the sweep and rethrows on
  /// the calling thread.
  stats::ResultSink run(const SweepGrid& grid, const SweepFn& fn) const;

  /// Worker count actually used for a grid of `jobs` jobs.
  int effective_threads(std::size_t jobs) const;

 private:
  SweepOptions options_;
};

}  // namespace bcp::app
