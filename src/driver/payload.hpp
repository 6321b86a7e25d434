// The worker -> supervisor result payload.
//
// Everything a batch supervisor needs from one completed unit, serialized
// with the rsg/serialize.hpp wire format: the full AnalysisResult (every
// per-statement RSRSG, degradation report, resource accounting), the checker
// findings, and the CFG exit node id so reports can quote exit-state sizes
// without re-running the frontend. The same bytes are the on-disk checkpoint
// of the unit, so a resumed batch replays them instead of re-analyzing.
//
// A payload is self-contained: deserialization re-interns every symbol into
// a fresh Interner owned by the payload, so the supervisor can hold results
// from many workers (each with its own frontend interner) side by side.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/snapshot.hpp"
#include "checker/checker.hpp"
#include "driver/unit.hpp"

namespace psa::driver {

struct UnitPayload {
  /// Echo of the unit identity, validated against the checkpoint key.
  std::string unit_name;
  std::string function;

  /// Frontend verdict. When false, only `frontend_error` is meaningful.
  bool frontend_ok = true;
  std::string frontend_error;

  /// Fixpoint result (frontend_ok only).
  analysis::AnalysisResult result;
  /// cfg::Cfg::exit() of the analyzed function — index into
  /// result.per_node, validated on load.
  std::uint32_t exit_node = 0;

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
  /// The serialize phase itself cannot be timed here (the payload is closed
  /// before serialization finishes), so phase_serialize_* is measured by the
  /// caller of serialize_unit_payload — see docs/OBSERVABILITY.md.
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
/// symbol `payload.result` references — the frontend interner of the run.
[[nodiscard]] std::string serialize_unit_payload(
    const UnitPayload& payload, const support::Interner& interner);

/// Validate + materialize. Throws rsg::SnapshotError on any corruption; the
/// returned payload owns a fresh interner.
[[nodiscard]] UnitPayload deserialize_unit_payload(std::string_view bytes);

}  // namespace psa::driver
