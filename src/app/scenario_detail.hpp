// Internal piece of the scenario harness shared with its tests; not part
// of the public app API.
#pragma once

#include "app/scenario.hpp"

namespace bcp::app::detail {

/// Folds one shard's metrics into the run total: counters sum,
/// time-to-first-* fields take the earliest non-sentinel value,
/// battery_max_drawn_fraction takes the max, per-shard event vectors
/// concatenate, and the derived ratios (goodput, delays, normalized
/// energies) are left for finalize_metrics to recompute from the merged
/// sums. A static_assert on sizeof(RunMetrics) at the definition plus the
/// field-coverage test pin that every RunMetrics field has a merge rule —
/// a new metric cannot be dropped silently.
void merge_metrics(RunMetrics& total, const RunMetrics& part);

}  // namespace bcp::app::detail
