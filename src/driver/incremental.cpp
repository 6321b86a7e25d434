#include "driver/incremental.hpp"

#include <algorithm>

#include "ipa/callgraph.hpp"
#include "ipa/summary_io.hpp"
#include "rsg/serialize.hpp"
#include "support/metrics.hpp"

namespace psa::driver {

std::vector<cache::CalleeDep> callee_deps(const cfg::Cfg& cfg,
                                          const support::Interner& interner,
                                          const ipa::SummaryTable& table) {
  std::vector<cache::CalleeDep> deps;
  for (const support::Symbol callee : ipa::direct_callees(cfg)) {
    cache::CalleeDep dep;
    dep.name = interner.spelling(callee);
    const auto it = table.find(callee);
    if (it != table.end()) {
      dep.has_summary = true;
      dep.summary_hash = ipa::summary_hash(it->second, interner);
    }
    deps.push_back(std::move(dep));
  }
  std::sort(deps.begin(), deps.end(),
            [](const cache::CalleeDep& a, const cache::CalleeDep& b) {
              return a.name < b.name;
            });
  return deps;
}

std::optional<ipa::FunctionSummary> CachedSummaries::lookup(
    const analysis::FunctionCfg& fn, const ipa::SummaryTable& table) {
  const support::Interner& interner = program_.interner();
  const cache::CacheKey key = cache::function_summary_key(
      program_, fn, options_, salvage_, callee_deps(fn.cfg, interner, table));
  bool self_heal = false;
  cache::ResultCache::Lookup found =
      cache_.lookup(key, cache::EntryTier::kFunction);
  if (found.status == cache::ResultCache::Lookup::Status::kHit) {
    try {
      ipa::FunctionSummary summary =
          ipa::deserialize_summary(found.bytes, interner);
      if (summary.function == fn.name) {
        PSA_COUNT(support::Counter::kSummaryReuse);
        return summary;
      }
      // Envelope-valid bytes for a different function: a key collision or
      // hostile entry. Evict and recompute, like any payload skew.
      cache_.evict(key, "summary entry names a different function");
      self_heal = true;
    } catch (const rsg::SnapshotError& e) {
      cache_.evict(key, e.what());
      self_heal = true;
    }
  } else if (found.status == cache::ResultCache::Lookup::Status::kEvicted) {
    self_heal = true;
  }
  if (self_heal) PSA_COUNT(support::Counter::kCacheSelfHeals);
  return std::nullopt;
}

void CachedSummaries::store(const analysis::FunctionCfg& fn,
                            const ipa::SummaryTable& table,
                            const ipa::FunctionSummary& summary) {
  const support::Interner& interner = program_.interner();
  const cache::CacheKey key = cache::function_summary_key(
      program_, fn, options_, salvage_, callee_deps(fn.cfg, interner, table));
  // Summary runs are deterministic by construction (visit-budgeted, no
  // wall-clock deadline — see summarize.cpp), so even an `analyzed == false`
  // summary is worth caching: the next run would only recompute the same
  // degradation. Store failure degrades to "no cache".
  (void)cache_.store(key, ipa::serialize_summary(summary, interner),
                     cache::StoreFault::kNone, cache::EntryTier::kFunction);
}

}  // namespace psa::driver
