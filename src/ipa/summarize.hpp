// Bottom-up summary computation over the call-graph SCCs (docs/ALGORITHMS.md).
//
// The functions the target's call sites reach — its direct callees and
// everything they call — are analyzed once (non-recursive case) or
// Kleene-iterated to a stable summary table (recursive SCCs, capped at
// Options::max_summary_iters) in callee-first order, so each analysis run
// already has final summaries for every call that leaves its SCC. No other
// function is summarized: nothing could consult its summary. The per-callee
// run starts from the entry abstraction of its struct-pointer parameters
// (analysis::bind_unknown_param) and is budgeted by a fixed node-visit
// count; a run that fails to converge — or an SCC whose iteration cap trips
// — leaves `analyzed == false`, and the kCall transfer havoc-falls-back at
// those sites.
//
// The incremental cache tier (docs/CACHING.md) plugs in through
// SummaryReuse: because SCCs are processed callee-first, a reuse provider is
// always offered a function *after* its direct callees' summaries are final
// in the table — exactly the information a content-addressed per-function
// key needs. Recursive SCCs are never offered for reuse: their summaries are
// a property of the whole SCC's Kleene fixpoint, so the SCC is the recompute
// unit and its member entries are not cached.
#pragma once

#include <optional>
#include <vector>

#include "analysis/analyzer.hpp"
#include "ipa/summary.hpp"

namespace psa::ipa {

/// Cache hook for per-function summary reuse. Implemented by the driver's
/// incremental layer (driver/incremental.hpp); compute_summaries only
/// guarantees the call discipline documented above.
class SummaryReuse {
 public:
  virtual ~SummaryReuse() = default;

  /// Offered before `fn`'s summary fixpoint runs; `table` already holds the
  /// final summaries of every function processed so far (in particular all
  /// of `fn`'s direct callees outside its SCC). Returning a summary skips
  /// the computation entirely.
  [[nodiscard]] virtual std::optional<FunctionSummary> lookup(
      const analysis::FunctionCfg& fn, const SummaryTable& table) = 0;

  /// Offered after `fn`'s summary was computed (only for functions that were
  /// eligible for lookup). `table` is the same callee context the lookup
  /// saw — NOT yet including `fn` itself.
  virtual void store(const analysis::FunctionCfg& fn,
                     const SummaryTable& table,
                     const FunctionSummary& summary) = 0;
};

/// Compute the summaries the analysis of `program.cfg` can consult: those of
/// its direct callees (ipa::direct_callees) and of every function they
/// reach. `options` provides the analysis level and IPA knobs; its
/// `summaries`/`entry_states` fields are ignored (they are outputs of this
/// pass, not inputs). When `reuse` is non-null, each non-recursive function
/// is first offered to it. Books the `ipa` phase timers only when some
/// function is demanded.
[[nodiscard]] SummaryTable compute_summaries(
    const analysis::ProgramAnalysis& program, const analysis::Options& options,
    SummaryReuse* reuse = nullptr);

}  // namespace psa::ipa
