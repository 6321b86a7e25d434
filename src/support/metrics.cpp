#include "support/metrics.hpp"

#include <chrono>
#include <ctime>

namespace psa::support {

std::string_view counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kCompressCalls: return "compress_calls";
    case Counter::kCompressMerges: return "compress_merges";
    case Counter::kCoarsenCalls: return "coarsen_calls";
    case Counter::kSummarizeTopCalls: return "summarize_top_calls";
    case Counter::kJoinAttempts: return "join_attempts";
    case Counter::kJoinAccepts: return "join_accepts";
    case Counter::kJoinRejectedAlias: return "join_rejected_alias";
    case Counter::kJoinRejectedCompat: return "join_rejected_compat";
    case Counter::kForceJoins: return "force_joins";
    case Counter::kPruneCalls: return "prune_calls";
    case Counter::kPruneIterations: return "prune_iterations";
    case Counter::kPruneLinksRemoved: return "prune_links_removed";
    case Counter::kPruneNodesRemoved: return "prune_nodes_removed";
    case Counter::kPruneInfeasible: return "prune_infeasible";
    case Counter::kDivideCalls: return "divide_calls";
    case Counter::kDivideVariants: return "divide_variants";
    case Counter::kMaterializeCalls: return "materialize_calls";
    case Counter::kMaterializeVariants: return "materialize_variants";
    case Counter::kWorklistVisits: return "worklist_visits";
    case Counter::kWorklistRevisits: return "worklist_revisits";
    case Counter::kSharedVisits: return "shared_visits";
    case Counter::kTransferCacheHits: return "transfer_cache_hits";
    case Counter::kTransferCacheMisses: return "transfer_cache_misses";
    case Counter::kWidenings: return "widenings";
    case Counter::kCanonFallbacks: return "canon_fallbacks";
    case Counter::kGovernorEscalations: return "governor_escalations";
    case Counter::kGovernorCollapses: return "governor_collapses";
    case Counter::kGovernorReapplies: return "governor_reapplies";
    case Counter::kGovernorDrains: return "governor_drains";
    case Counter::kHavocSites: return "havoc_sites";
    case Counter::kSkippedDecls: return "skipped_decls";
    case Counter::kSalvagedUnits: return "salvaged_units";
    case Counter::kSummaryComputed: return "summary_computed";
    case Counter::kSummaryApplied: return "summary_applied";
    case Counter::kSummaryFixpointIters: return "summary_fixpoint_iters";
    case Counter::kCallHavocFallback: return "call_havoc_fallback";
    case Counter::kCacheHits: return "cache_hits";
    case Counter::kCacheMisses: return "cache_misses";
    case Counter::kCacheStores: return "cache_stores";
    case Counter::kCacheEvictions: return "cache_evictions";
    case Counter::kCacheSelfHeals: return "cache_self_heals";
    case Counter::kCacheSweepRuns: return "cache_sweep_runs";
    case Counter::kCacheSweepEvictions: return "cache_sweep_evictions";
    case Counter::kCacheSweepBytes: return "cache_sweep_bytes";
    case Counter::kFuncCacheHits: return "func_cache_hits";
    case Counter::kFuncCacheMisses: return "func_cache_misses";
    case Counter::kFuncCacheStores: return "func_cache_stores";
    case Counter::kSummaryReuse: return "summary_reuse";
    case Counter::kIoWrites: return "io_writes";
    case Counter::kIoFsyncs: return "io_fsyncs";
    case Counter::kIoFaultsInjected: return "io_faults_injected";
    case Counter::kIoDegradations: return "io_degradations";
    case Counter::kPhaseParseWallNs: return "phase_parse_wall_ns";
    case Counter::kPhaseParseCpuNs: return "phase_parse_cpu_ns";
    case Counter::kPhaseCfgWallNs: return "phase_cfg_wall_ns";
    case Counter::kPhaseCfgCpuNs: return "phase_cfg_cpu_ns";
    case Counter::kPhaseIpaWallNs: return "phase_ipa_wall_ns";
    case Counter::kPhaseIpaCpuNs: return "phase_ipa_cpu_ns";
    case Counter::kPhaseFixpointL1WallNs: return "phase_fixpoint_l1_wall_ns";
    case Counter::kPhaseFixpointL1CpuNs: return "phase_fixpoint_l1_cpu_ns";
    case Counter::kPhaseFixpointL2WallNs: return "phase_fixpoint_l2_wall_ns";
    case Counter::kPhaseFixpointL2CpuNs: return "phase_fixpoint_l2_cpu_ns";
    case Counter::kPhaseFixpointL3WallNs: return "phase_fixpoint_l3_wall_ns";
    case Counter::kPhaseFixpointL3CpuNs: return "phase_fixpoint_l3_cpu_ns";
    case Counter::kPhaseConsiderWallNs: return "phase_consider_wall_ns";
    case Counter::kPhaseTransferWallNs: return "phase_transfer_wall_ns";
    case Counter::kPhaseJoinWallNs: return "phase_join_wall_ns";
    case Counter::kPhaseWidenWallNs: return "phase_widen_wall_ns";
    case Counter::kPhaseCheckerWallNs: return "phase_checker_wall_ns";
    case Counter::kPhaseCheckerCpuNs: return "phase_checker_cpu_ns";
    case Counter::kPhaseCacheLookupWallNs: return "phase_cache_lookup_wall_ns";
    case Counter::kPhaseCacheLookupCpuNs: return "phase_cache_lookup_cpu_ns";
    case Counter::kCount: break;
  }
  return "unknown";
}

std::uint64_t process_cpu_ns() noexcept {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  // Portable fallback; clock() wraps, but deltas inside one phase are fine.
  return static_cast<std::uint64_t>(std::clock()) *
         (1'000'000'000ull / CLOCKS_PER_SEC);
}

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

PhaseTimer::PhaseTimer(Counter wall, Counter cpu) noexcept
    : wall_(wall),
      cpu_(cpu),
      wall_start_ns_(steady_now_ns()),
      cpu_start_ns_(process_cpu_ns()) {}

PhaseTimer::~PhaseTimer() {
  auto& registry = MetricsRegistry::instance();
  const std::uint64_t wall_now = steady_now_ns();
  const std::uint64_t cpu_now = process_cpu_ns();
  registry.add(wall_, wall_now >= wall_start_ns_ ? wall_now - wall_start_ns_
                                                 : 0);
  registry.add(cpu_, cpu_now >= cpu_start_ns_ ? cpu_now - cpu_start_ns_ : 0);
}

}  // namespace psa::support
