// Internal piece of the scenario harness shared with its tests; not part
// of the public app API.
#pragma once

#include "app/scenario.hpp"

namespace bcp::app::detail {

/// Folds one shard's metrics into the run total, one MergeRule per
/// field as tagged in the BCP_RUN_METRICS table (scenario.hpp): counters
/// and energies sum, time_to_first_death takes the earliest non-sentinel
/// value, battery_max_drawn_fraction takes the max, and kAfterFold fields
/// (the derived ratios, the lifetime marks, shard_events, boundary_frames)
/// are left for run_sharded and finalize_metrics to assign. The table
/// gives every field a rule, so a new metric cannot be dropped silently.
void merge_metrics(RunMetrics& total, const RunMetrics& part);

}  // namespace bcp::app::detail
