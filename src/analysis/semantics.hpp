// Abstract semantics of the six simple pointer statements (§2 of the paper;
// the per-property updates are reconstructed from the ICPP'01 definitions —
// see DESIGN.md §4 for the reconstruction rules).
//
// Each transfer maps one RSG to a *set* of RSGs: DIVIDE introduces one graph
// per possible x->sel target (§4.1), and materialization introduces the
// "exactly one location remained" / "more remain" variants. Every produced
// graph is pruned and compressed; infeasible graphs (null dereference on
// this configuration, or contradictory properties after division) are
// dropped.
#pragma once

#include <vector>

#include "cfg/cfg.hpp"
#include "cfg/induction.hpp"
#include "ipa/summary.hpp"
#include "rsg/level.hpp"
#include "rsg/ops.hpp"

namespace psa::analysis {

struct TransferContext {
  rsg::LevelPolicy policy;
  rsg::PruneOptions prune;
  const cfg::Cfg* cfg = nullptr;
  const cfg::InductionInfo* induction = nullptr;
  /// Struct table for the kHavoc transfer's typed ⊤ saturation (may be null:
  /// the fresh summary node is then unsaturated — still sound, coarser).
  /// Set by the engine from Options::types.
  const lang::TypeTable* types = nullptr;
  /// Selector universe of the analyzed function (every selector some
  /// statement mentions) for the global-havoc summarize_top collapse; may be
  /// null (treated as empty). Set by the engine.
  const std::vector<support::Symbol>* selectors = nullptr;
  /// Function summaries for the kCall transfer (docs/ALGORITHMS.md). Null or
  /// missing/unanalyzed entries make call sites fall back to the sound havoc
  /// transfer. Set by the engine from Options::summaries.
  const ipa::SummaryTable* summaries = nullptr;
};

/// Abstractly execute the statement of `node` over `in`.
[[nodiscard]] std::vector<rsg::Rsg> execute_statement(const rsg::Rsg& in,
                                                      const cfg::CfgNode& node,
                                                      const TransferContext& ctx);

/// True when `stmt` has no shape effect under `policy`: execute_statement
/// returns `{in}` for every input. These are kNop, kBranch, kScalar,
/// kFieldRead, kFieldWrite, and kTouchClear below L3 (TOUCH is an L3
/// property). The engine lets such a statement with one predecessor hold
/// that predecessor's RSRSG.
[[nodiscard]] bool is_identity_statement(const cfg::SimpleStmt& stmt,
                                         const rsg::LevelPolicy& policy);

/// The heap region a callee can observe or mutate through the pointer
/// arguments `args`: every node reachable from their bindings over
/// may-links, ascending. The subset has no globals, so this is
/// reachability-closed and complete: an abstract link exists whenever the
/// corresponding concrete link is possible, hence every concrete cell the
/// callee can reach is represented by a node in this set. The kCall
/// transfer widens it; the summary projection (src/ipa) asks whether it
/// holds caller-derived cells.
[[nodiscard]] std::vector<rsg::NodeRef> callee_region(
    const rsg::Rsg& g, const std::vector<support::Symbol>& args);

/// Entry abstraction for the summary computation (src/ipa): bind `param` to
/// an unknown caller value of struct type `type`. Produces the same three
/// variant families as the kHavoc rebind transfer — NULL, alias with an
/// existing pvar target, fresh saturated ⊤ node — but WITHOUT the
/// graph-level havoc taint: an unknown entry state is not a degradation.
/// The node-level havoc marks stay and double as "argument-region" markers
/// inside the summary run (they are OR-sticky under every merge, join and
/// materialization, so an exit-state cell may derive from caller memory iff
/// its node carries the mark).
[[nodiscard]] std::vector<rsg::Rsg> bind_unknown_param(
    const rsg::Rsg& in, support::Symbol param, lang::StructId type,
    const TransferContext& ctx);

}  // namespace psa::analysis
