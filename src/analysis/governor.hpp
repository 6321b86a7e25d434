// The resource governor: deadlines and the graceful-degradation ladder that
// replaces hard budget aborts.
//
// The paper's own compiler dies on real inputs (Table 1: out-of-memory on
// Sparse LU at L2/L3, 17-minute L1 runs on Barnes-Hut). Production shape
// analyzers — TVLA's bounded abstraction, Infer's per-procedure timeouts —
// never abort: they degrade to a coarser *sound* answer and keep going. The
// governor implements that discipline for the worklist engine:
//
//   * a wall-clock deadline (Options::deadline_ms), polled in the worklist
//     loop and before each per-RSG transfer of a visit;
//   * a three-rung widening ladder applied to the offending statement's
//     RSRSG whenever a budget (node visits, memory, RSRSG cardinality)
//     trips — every rung only merges nodes, widens may-information, or drops
//     must-information, so each rung is an over-approximation of the one
//     below it and the degraded fixpoint stays sound;
//   * a DegradationReport recording which nodes degraded, to which rung, how
//     often, and the wall-clock spent per rung.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/rsrsg.hpp"
#include "cfg/cfg.hpp"
#include "support/timer.hpp"

namespace psa::analysis {

enum class AnalysisStatus : std::uint8_t;  // engine.hpp
struct Options;                            // engine.hpp

/// The widening ladder, harshest last. Every rung keeps the set's ALIAS
/// patterns intact (the concrete-soundness oracle matches alias/null
/// patterns per graph) and only merges nodes, grows may-information, or
/// shrinks must-information — see DESIGN.md "Resource governor".
enum class DegradationRung : std::uint8_t {
  kNone = 0,
  /// Widen the set (coarsen every member to its (TYPE, SPATH0) skeleton,
  /// force-join ALIAS-equal members) and keep it in widened mode.
  kWiden = 1,
  /// Additionally drop all must-information (SELIN/SELOUT demoted to
  /// possible, CYCLELINKS and TOUCH cleared), then force-join ALIAS-equal
  /// members down to one per ALIAS pattern.
  kForceJoin = 2,
  /// Collapse to the ⊤-like summary: all SHARED/SHSEL bits set, reference
  /// patterns fully widened, non-pvar nodes summarized — one minimal graph
  /// per ALIAS pattern.
  kSummarize = 3,
};

[[nodiscard]] std::string_view to_string(DegradationRung rung);

/// One application of a ladder rung to one statement's RSRSG.
struct DegradationEvent {
  cfg::NodeId node = 0;
  DegradationRung rung = DegradationRung::kNone;
  AnalysisStatus trigger;  // which budget tripped
  std::size_t graphs_before = 0;
  std::size_t graphs_after = 0;
};

/// What the governor had to do to keep a run alive. Empty when no budget
/// tripped (the common case: the governor then costs only its poll checks).
struct DegradationReport {
  std::vector<DegradationEvent> events;
  /// Escalations per rung, indexed by DegradationRung.
  std::array<std::uint32_t, 4> rung_applications{};
  /// Wall-clock seconds spent applying each rung.
  std::array<double, 4> rung_seconds{};
  /// The deadline tripped and the engine drained at the top rung.
  bool deadline_drain = false;
  /// The memory budget proved unreachable even at the top rung; the engine
  /// finished over budget (still sound, maximally coarse).
  bool memory_budget_unreachable = false;
  /// The floor rung every statement was held to at the end of the run —
  /// states born after a global exhaustion never appear in `events`, so the
  /// floor is reported separately (worst_rung() accounts for it).
  DegradationRung floor = DegradationRung::kNone;

  [[nodiscard]] bool empty() const noexcept {
    return events.empty() && !deadline_drain && !memory_budget_unreachable &&
           floor == DegradationRung::kNone;
  }
  [[nodiscard]] std::size_t degraded_node_count() const;
  [[nodiscard]] DegradationRung worst_rung() const;
  /// One-paragraph human summary for reports and the CLI.
  [[nodiscard]] std::string summary() const;
};

/// Per-run budget bookkeeping and ladder state. Owned by the engine; one
/// instance per analyze_cfg call. Not thread-safe.
class ResourceGovernor {
 public:
  /// `selectors` is the function's selector universe (every selector some
  /// statement mentions); not owned, it must outlive the governor.
  ResourceGovernor(const Options& options, const cfg::Cfg& cfg,
                   const std::vector<rsg::Symbol>& selectors);

  /// Cooperative poll for the worklist loop: the (current, possibly
  /// drain-extended) deadline has passed.
  [[nodiscard]] bool deadline_expired() const;

  /// Enter the drain phase after a deadline trip: the allowance is extended
  /// to 2x the original deadline so a maximally-coarse fixpoint can finish.
  /// Returns false when already draining — the caller must stop.
  bool begin_drain();

  /// Escalate `node` one rung and apply the transform to `set`. Returns the
  /// rung applied, or kNone when the node is already at the top.
  DegradationRung escalate(cfg::NodeId node, Rsrsg& set,
                           AnalysisStatus trigger);

  /// Escalate `node` straight to the top rung (deadline drain).
  void collapse(cfg::NodeId node, Rsrsg& set, AnalysisStatus trigger);

  /// Re-apply the node's current rung after new graphs were inserted, so a
  /// degraded statement can never re-accumulate precision (and cost) past
  /// its rung.
  void reapply(cfg::NodeId node, Rsrsg& set);

  /// Raise the floor rung every statement is held to (global exhaustion:
  /// visit ladder exhausted, memory budget unreachable, deadline drain).
  void raise_floor(DegradationRung rung);

  [[nodiscard]] DegradationRung rung(cfg::NodeId node) const {
    return std::max(rungs_[node], floor_);
  }

  void note_memory_unreachable() { report_.memory_budget_unreachable = true; }

  /// Move the accumulated report out (end of run).
  [[nodiscard]] DegradationReport take_report() { return std::move(report_); }

 private:
  /// Apply `rung`'s transform to `set`.
  void degrade(DegradationRung rung, Rsrsg& set);
  /// Escalation: degrade() and record the event in the report.
  void apply(cfg::NodeId node, DegradationRung rung, Rsrsg& set,
             AnalysisStatus trigger);

  rsg::LevelPolicy policy_;
  /// Struct table for typed ⊤ saturation (may be null — see Options::types).
  const lang::TypeTable* types_ = nullptr;
  support::WallTimer timer_;
  double deadline_seconds_ = 0.0;        // 0 = no deadline
  double deadline_allowance_ = 0.0;      // current allowance (drain extends)
  bool draining_ = false;
  /// Selector universe of the analyzed function — the kSummarize rung sets
  /// SHSEL for all of them.
  const std::vector<rsg::Symbol>& selectors_;
  std::vector<DegradationRung> rungs_;   // per CFG node
  DegradationRung floor_ = DegradationRung::kNone;
  DegradationReport report_;
};

}  // namespace psa::analysis
