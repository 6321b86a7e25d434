// Observability exports over the analysis layer: population gauges computed
// from an AnalysisResult, per-unit metric records, the versioned JSONL
// metrics stream (`psa_cli --metrics-out`), and the human-readable
// `--profile` summary table. See docs/OBSERVABILITY.md for the metric
// taxonomy, the JSONL schema field by field, and the counter-to-paper-
// concept mapping.
//
// The raw counters live in support/metrics.hpp (process-global registry);
// this header is the read side that turns captured snapshots into reports.
// Everything here is deterministic given its inputs except the *_ns timer
// counters and wall_seconds, which measure real time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/engine.hpp"

namespace psa::analysis {

/// Point-in-time shape of one unit's converged state: how many RSGs stayed
/// live, how big they are, and how dense the SHARED / CYCLELINKS property
/// annotations run. Densities are fractions of total_nodes in [0, 1].
/// Complements the monotonic operation counters: counters say how much work
/// the fixpoint did, gauges say how big the answer is (the paper's Table-1
/// "space" column in structural rather than byte terms).
struct PopulationGauges {
  /// Sum of RSRSG cardinalities over every CFG node (live RSGs at fixpoint).
  std::uint64_t live_rsgs = 0;
  /// Sum of node counts over all live RSGs.
  std::uint64_t total_nodes = 0;
  /// Largest RSRSG cardinality of any single statement.
  std::uint64_t max_rsgs_per_stmt = 0;
  /// Node count of the largest single RSG.
  std::uint64_t max_nodes_per_rsg = 0;
  /// total_nodes / live_rsgs (0 when there are no graphs).
  double avg_nodes_per_rsg = 0.0;
  /// Nodes with SHARED = true, and the fraction of total_nodes they make up.
  std::uint64_t shared_nodes = 0;
  double shared_density = 0.0;
  /// Nodes carrying at least one CYCLELINKS pair, and their fraction.
  std::uint64_t cyclelink_nodes = 0;
  double cyclelinks_density = 0.0;
};

/// Walk result.per_node and tally the gauges. O(total nodes); cheap next to
/// the fixpoint that produced the result.
[[nodiscard]] PopulationGauges collect_gauges(const AnalysisResult& result);

/// One analysis unit's full metric record: identity, outcome, cost, the
/// operation-counter snapshot, and the population gauges. This is the unit
/// of the JSONL stream and the input to aggregation.
struct UnitMetrics {
  std::string unit;      // file path or corpus unit name
  std::string function;  // analyzed function
  std::string level;     // "L1" | "L2" | "L3" ("-" in aggregate records)
  std::string status;    // analysis::to_string(AnalysisStatus)
  double wall_seconds = 0.0;
  std::uint64_t node_visits = 0;
  bool degraded = false;
  /// Worst governor rung applied ("none" when not degraded).
  std::string worst_rung = "none";
  support::MemorySnapshot memory;
  /// Operation counters + phase timers. For single units this is either the
  /// fixpoint-only AnalysisResult::ops or a whole-unit region delta — the
  /// caller decides; for aggregates it is the element-wise sum.
  support::MetricsSnapshot ops;
  PopulationGauges gauges;
};

/// Build a unit record from an AnalysisResult. `ops` defaults to result.ops
/// (fixpoint only); pass a wider region delta to include frontend/checker
/// phases, e.g. driver::UnitPayload::metrics in batch mode.
[[nodiscard]] UnitMetrics collect_unit_metrics(
    std::string unit, std::string function, std::string level,
    const AnalysisResult& result);

/// Element-wise sum over units: counters, gauges, memory, visits and
/// wall_seconds add; max_* gauges and densities are recomputed from the
/// summed totals; status is "aggregate", level "-". The batch supervisor's
/// merged record must equal the sum of its per-unit records — asserted by
/// tests/analysis/profile_test.cpp and the CLI integration test.
[[nodiscard]] UnitMetrics aggregate_metrics(
    const std::vector<UnitMetrics>& units);

/// One JSONL record (single line, trailing '\n', RFC 8259). `kind` is
/// "unit" or "aggregate"; every record carries `"schema": "psa.metrics.v1"`.
/// Counters are emitted under "ops" keyed by support::counter_name; gauges
/// under "gauges"; memory under "memory".
[[nodiscard]] std::string to_metrics_json(const UnitMetrics& m,
                                          std::string_view kind);

/// Human-readable `--profile` table: phase timers (zero phases skipped),
/// operation counters grouped by subsystem, gauges. Multi-line, '\n'
/// terminated.
[[nodiscard]] std::string format_profile(const UnitMetrics& m);

/// Escape a string for embedding in a JSON string literal (quotes not
/// included; control characters as lowercase \u00xx, per RFC 8259). Shared
/// by the metrics JSONL, the SARIF writer and the bench report writer.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace psa::analysis
