// The function-granular incremental tier of the result cache
// (docs/CACHING.md).
//
// The unit-level cache entry (cache/key.hpp) folds every sibling CFG into
// its key, so any edit anywhere in a unit invalidates the whole unit. This
// module is the finer tier consulted on a unit miss: it reuses the two kinds
// of per-function work a unit analysis performs —
//
//   * summary entries: one per non-recursive function the target's call
//     sites (transitively) demand, keyed on the function's own CFG and its
//     direct callees' summary content hashes. Loaded summaries skip that
//     function's summary fixpoint entirely (counter: summary_reuse).
//   * the result entry: the full UnitPayload bytes keyed on the target's
//     own CFG plus its direct callees' summary hashes — the unit key with
//     the sibling-CFG clause replaced by summary identities.
//
// The IPA bottom-up pass is the invalidation oracle: summaries resolve
// callee-first, so by the time a function is probed, its callees' summary
// hashes are known. An edited leaf whose recomputed summary hashes the same
// leaves every caller's key unchanged — the cascade stops at the leaf, and a
// one-line edit re-runs exactly one fixpoint.
//
// Counting: probes here go to func_cache_hits / func_cache_misses /
// func_cache_stores (never the unit-level cache_* counters); a summary
// loaded instead of computed counts summary_reuse; corrupt entries are
// evicted-and-recomputed like unit entries and count cache_self_heals.
#pragma once

#include <optional>
#include <vector>

#include "analysis/analyzer.hpp"
#include "cache/cache.hpp"
#include "cache/key.hpp"
#include "ipa/summarize.hpp"

namespace psa::driver {

/// `cfg`'s direct callees (ipa::direct_callees) as function-tier key deps:
/// sorted by spelling, each resolved against `table` (absent or unanalyzed
/// entries still carry their identity — an extern gaining a summary must
/// change the key).
[[nodiscard]] std::vector<cache::CalleeDep> callee_deps(
    const cfg::Cfg& cfg, const support::Interner& interner,
    const ipa::SummaryTable& table);

/// ipa::SummaryReuse backed by the result cache's function tier: lookup
/// probes the summary entry for (function CFG, callee summary hashes) and
/// store writes it back after a computation. All failure modes degrade to
/// "recompute": corrupt entries are quarantined via the cache's own
/// validation, entries naming symbols this unit does not intern are evicted
/// as payload skew.
class CachedSummaries final : public ipa::SummaryReuse {
 public:
  CachedSummaries(cache::ResultCache& cache,
                  const analysis::ProgramAnalysis& program,
                  const analysis::Options& options, bool salvage)
      : cache_(cache), program_(program), options_(options),
        salvage_(salvage) {}

  [[nodiscard]] std::optional<ipa::FunctionSummary> lookup(
      const analysis::FunctionCfg& fn, const ipa::SummaryTable& table) override;
  void store(const analysis::FunctionCfg& fn, const ipa::SummaryTable& table,
             const ipa::FunctionSummary& summary) override;

 private:
  cache::ResultCache& cache_;
  const analysis::ProgramAnalysis& program_;
  analysis::Options options_;
  bool salvage_;
};

}  // namespace psa::driver
