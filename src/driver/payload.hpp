// The worker -> supervisor result payload.
//
// Everything a batch supervisor needs from one completed unit, serialized
// with the rsg/serialize.hpp wire format: the scalar record of the
// AnalysisResult (status, resource accounting, degradation report, fixpoint
// counters), the exit RSRSG, the population gauges, the checker findings and
// the whole-unit counters. The report, SARIF, exit code and metrics read
// nothing else, so per-statement states never leave the process that ran the
// fixpoint. A forked worker writes these bytes to its result pipe; the
// supervisor validates them with deserialize_unit_payload and, under
// --checkpoint, writes the same bytes as the unit's snapshot, so a resumed
// batch replays them instead of re-analyzing. The result cache stores the
// same bytes too.
//
// A payload is self-contained: deserialization re-interns every symbol into
// a fresh Interner owned by the payload, so the supervisor can hold results
// from many workers (each with its own frontend interner) side by side.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/profile.hpp"
#include "analysis/snapshot.hpp"
#include "checker/checker.hpp"
#include "driver/unit.hpp"

namespace psa::driver {

struct UnitPayload {
  /// Echo of the unit identity; a --resume serves a checkpoint snapshot
  /// only to the unit it names (Checkpoint::load_payload).
  std::string unit_name;
  std::string function;

  /// Frontend verdict. When false, only `frontend_error` is meaningful.
  bool frontend_ok = true;
  std::string frontend_error;

  /// Fixpoint result (frontend_ok only). Only its scalars and the state at
  /// `exit_node` are serialized: a loaded result holds no per-statement
  /// state. Its per_node keeps the CFG's size, every set empty but the exit
  /// state, so exit_graphs(), exit_nodes(), converged() and degraded() read
  /// a built and a loaded payload alike.
  analysis::AnalysisResult result;
  /// cfg::Cfg::exit() of the analyzed function — index into
  /// result.per_node, validated on load.
  std::uint32_t exit_node = 0;
  /// Population gauges of every statement's state (analysis::collect_gauges),
  /// computed by the worker that ran the fixpoint, since a loaded result has
  /// no states to walk. A cache-served payload keeps the cold run's gauges:
  /// they describe the answer, not this run's cost.
  analysis::PopulationGauges gauges;

  /// Salvage-mode degradation summary (frontend_ok only; all zero on a
  /// clean run). Mirrors analysis::SalvageInfo — nonzero degradation maps
  /// the unit outcome to UnitOutcomeKind::kPartial.
  std::uint32_t skipped_decls = 0;
  std::uint32_t havoc_sites = 0;
  std::uint32_t unsupported_count = 0;
  std::uint32_t functions_analyzable = 0;
  std::uint32_t functions_total = 0;
  /// Rendered kUnsupported diagnostics explaining every degradation.
  std::string salvage_diagnostics;

  /// Checker findings (present when the batch ran with --check).
  bool checked = false;
  std::vector<checker::Finding> findings;

  /// Whole-unit operation counters and phase timers (frontend + fixpoint +
  /// checkers), captured as a support::MetricsRegion delta around the
  /// worker's run. Superset of result.ops, which covers the fixpoint only.
  support::MetricsSnapshot metrics;

  /// Owns the symbols referenced by `result` after deserialization. Null for
  /// payloads built in place (their symbols belong to the live frontend).
  std::shared_ptr<support::Interner> interner;

  /// The frontend degraded (salvage mode); the supervisor maps this to
  /// UnitOutcomeKind::kPartial.
  [[nodiscard]] bool degraded() const {
    return frontend_ok && (skipped_decls != 0 || havoc_sites != 0 ||
                           unsupported_count != 0);
  }

  /// Exit-state shape of the unit (deterministic report fields).
  [[nodiscard]] std::size_t exit_graphs() const {
    return frontend_ok ? result.per_node[exit_node].size() : 0;
  }
  [[nodiscard]] std::size_t exit_nodes() const {
    return frontend_ok ? result.per_node[exit_node].total_nodes() : 0;
  }
};

/// Serialize (envelope + string table + records). `interner` must span every
/// symbol of the exit state — the frontend interner of the run, or a loaded
/// payload's own. The bytes depend on no state but the exit state.
[[nodiscard]] std::string serialize_unit_payload(
    const UnitPayload& payload, const support::Interner& interner);

/// Validate + materialize. Throws rsg::SnapshotError on any corruption; the
/// returned payload owns a fresh interner.
[[nodiscard]] UnitPayload deserialize_unit_payload(std::string_view bytes);

}  // namespace psa::driver
