// The observability layer: monotonic operation counters and phase timers.
//
// The paper's evaluation is a cost story — which statements trigger
// expensive COMPRESS/JOIN/PRUNE/materialization work, how node populations
// grow per level, where the progressive ladder pays off. This registry makes
// that cost first-class: the RSG kernel, the fixpoint engine and the
// governor count every operation here, and the analysis layer
// (analysis/profile.hpp) turns snapshots into `--profile` tables and
// versioned JSONL records. docs/OBSERVABILITY.md maps every counter to its
// paper concept.
//
// Design constraints:
//   1. Cheap: one relaxed atomic add per counted *operation* (an operation
//      is a graph transform, orders of magnitude heavier than the
//      increment). Hot loops accumulate locally and flush once per call.
//   2. Always compiled in: there is no build switch that removes the
//      counting sites. Removing them was not measurably faster on the
//      Table-1 codes (docs/OBSERVABILITY.md, "Overhead"), and the result
//      cache's tests, the batch metrics stream and the benchmark's answer
//      checks all read these counters.
//
// Counters are process-global and monotonic (they only ever grow — tested in
// tests/support/metrics_test.cpp). Interval attribution uses MetricsRegion:
// snapshot at scope entry, delta() at exit. Deltas of the *operation*
// counters are deterministic for a fixed input and options (the fixpoint is
// serial); the *_ns timer counters are wall or CPU time and never
// deterministic — is_timer() lets consumers split them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace psa::support {

/// Every counter the analyzer maintains. Operation counters first, then the
/// phase timers (nanosecond-valued; see is_timer). Keep counter_name() and
/// docs/OBSERVABILITY.md in sync when editing.
enum class Counter : std::uint16_t {
  // COMPRESS (§3.1) — summarization sweeps and the nodes they eliminate.
  kCompressCalls,
  kCompressMerges,  // nodes removed by merging into a summary class
  kCoarsenCalls,    // widening-grade COMPRESS (TYPE/SPATH0 skeleton)
  kSummarizeTopCalls,

  // JOIN (§4.3) — candidate pairings considered by the RSRSG reduction.
  kJoinAttempts,
  kJoinAccepts,
  kJoinRejectedAlias,   // ALIAS relations differ (cheap pre-filter)
  kJoinRejectedCompat,  // ALIAS-equal but COMPATIBLE fails
  kForceJoins,          // widening joins (ignore COMPATIBLE)

  // PRUNE (§4.2) — iterations of the prune fixpoint and what it deleted.
  kPruneCalls,
  kPruneIterations,
  kPruneLinksRemoved,  // share-attribute + cycle-link contradictions
  kPruneNodesRemoved,  // reference-pattern violations (N_PRUNE)
  kPruneInfeasible,    // whole graph variants discarded as contradictory

  // DIVIDE (§4.1) and materialization.
  kDivideCalls,
  kDivideVariants,
  kMaterializeCalls,
  kMaterializeVariants,

  // Fixpoint engine.
  kWorklistVisits,
  kWorklistRevisits,     // visits beyond the first per CFG node
  kTransferCacheHits,    // input graph already transferred at this node
  kTransferCacheMisses,  // fresh input graph (a real transfer)
  kWidenings,            // RSRSG widen() trips at Options::widen_threshold

  // Resource governor (docs/RESILIENCE.md ladder).
  kGovernorEscalations,
  kGovernorCollapses,
  kGovernorReapplies,
  kGovernorDrains,

  // Salvage-mode frontend (docs/RESILIENCE.md).
  kHavocSites,     // kHavoc statements lowered into analyzed CFGs
  kSkippedDecls,   // declarations stubbed out by parser/sema recovery
  kSalvagedUnits,  // prepared units that degraded but still analyzed

  // Interprocedural summary analysis (docs/ALGORITHMS.md).
  kSummaryComputed,       // function summaries computed bottom-up
  kSummaryApplied,        // kCall transfers that applied a callee summary
  kSummaryFixpointIters,  // SCC summary-fixpoint iterations (Kleene rounds)
  kCallHavocFallback,     // kCall transfers that fell back to sound havoc

  // Content-addressed result cache (docs/CACHING.md).
  kCacheHits,       // lookups served from a validated cache entry
  kCacheMisses,     // lookups that fell through to a real analysis
  kCacheStores,     // entries written (atomic tmp-rename)
  kCacheEvictions,  // entries removed: corrupt, version-skewed, or stray
  kCacheSelfHeals,  // corrupt entries evicted and transparently recomputed

  // Bounded-cache sweep (docs/CACHING.md eviction policy).
  kCacheSweepRuns,       // sweeps that actually scanned (lock acquired)
  kCacheSweepEvictions,  // valid entries evicted by the size/age policy
  kCacheSweepBytes,      // bytes reclaimed by policy evictions

  // Function-granular incremental tier (docs/CACHING.md).
  kFuncCacheHits,    // per-function result entries served from the cache
  kFuncCacheMisses,  // per-function probes that fell through to a fixpoint
  kFuncCacheStores,  // per-function entries written (results + summaries)
  kSummaryReuse,     // callee summaries loaded from cache, not recomputed

  // Durable-I/O layer (docs/RESILIENCE.md, "The I/O fault space").
  kIoWrites,          // durable ops issued (atomic writes, appends, renames)
  kIoFsyncs,          // fsync calls (file data and directory entries)
  kIoFaultsInjected,  // PSA_IO_FAULT injections that fired
  kIoDegradations,    // io failures absorbed as sound degradations

  // Phase timers, nanoseconds (wall = steady clock, cpu = process CPU).
  // Everything from kPhaseParseWallNs on is a timer; see is_timer().
  kPhaseParseWallNs,
  kPhaseParseCpuNs,
  kPhaseCfgWallNs,
  kPhaseCfgCpuNs,
  kPhaseIpaWallNs,  // call graph + bottom-up summary computation
  kPhaseIpaCpuNs,
  kPhaseFixpointL1WallNs,
  kPhaseFixpointL1CpuNs,
  kPhaseFixpointL2WallNs,
  kPhaseFixpointL2CpuNs,
  kPhaseFixpointL3WallNs,
  kPhaseFixpointL3CpuNs,
  kPhaseCheckerWallNs,
  kPhaseCheckerCpuNs,
  kPhaseSerializeWallNs,
  kPhaseSerializeCpuNs,
  kPhaseCacheLookupWallNs,
  kPhaseCacheLookupCpuNs,

  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case identifier (the JSONL key). Unique per counter.
[[nodiscard]] std::string_view counter_name(Counter c) noexcept;

/// True for the *_ns phase timers: time-valued, never deterministic. The
/// determinism contract (and the batch report) covers only non-timer
/// counters.
[[nodiscard]] constexpr bool is_timer(Counter c) noexcept {
  return c >= Counter::kPhaseParseWallNs && c < Counter::kCount;
}

/// Plain-value snapshot of every counter; the unit of aggregation,
/// serialization and region deltas.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  [[nodiscard]] std::uint64_t operator[](Counter c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t& at(Counter c) noexcept {
    return values[static_cast<std::size_t>(c)];
  }

  MetricsSnapshot& operator+=(const MetricsSnapshot& other) noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i)
      values[i] += other.values[i];
    return *this;
  }
  /// Per-counter difference, clamped at zero (counters are monotonic; the
  /// clamp only matters against snapshots from unrelated baselines).
  [[nodiscard]] MetricsSnapshot since(
      const MetricsSnapshot& baseline) const noexcept {
    MetricsSnapshot d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      d.values[i] =
          values[i] >= baseline.values[i] ? values[i] - baseline.values[i] : 0;
    }
    return d;
  }
  /// Equality over the deterministic (non-timer) counters only.
  [[nodiscard]] bool same_operations(
      const MetricsSnapshot& other) const noexcept {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (is_timer(static_cast<Counter>(i))) continue;
      if (values[i] != other.values[i]) return false;
    }
    return true;
  }
};

/// The process-global registry. All mutation is relaxed-atomic: counters are
/// independent monotonic tallies, no ordering is implied between them.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance() noexcept {
    static MetricsRegistry registry;
    return registry;
  }

  void add(Counter c, std::uint64_t n) noexcept {
    counters_[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] MetricsSnapshot snapshot() const noexcept {
    MetricsSnapshot s;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      s.values[i] = counters_[i].load(std::memory_order_relaxed);
    return s;
  }

 private:
  MetricsRegistry() = default;
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
};

/// Interval attribution: counter deltas between construction and delta().
/// Nests freely (a region is just a baseline snapshot).
class MetricsRegion {
 public:
  MetricsRegion() : baseline_(MetricsRegistry::instance().snapshot()) {}

  [[nodiscard]] MetricsSnapshot delta() const noexcept {
    return MetricsRegistry::instance().snapshot().since(baseline_);
  }

 private:
  MetricsSnapshot baseline_;
};

/// Nanoseconds of CPU time consumed by the whole process.
[[nodiscard]] std::uint64_t process_cpu_ns() noexcept;

/// RAII phase timer: adds elapsed wall + process-CPU nanoseconds to the two
/// given timer counters at scope exit. Instantiate through PSA_PHASE_TIMER.
class PhaseTimer {
 public:
  PhaseTimer(Counter wall, Counter cpu) noexcept;
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Counter wall_;
  Counter cpu_;
  std::uint64_t wall_start_ns_;
  std::uint64_t cpu_start_ns_;
};

}  // namespace psa::support

// Counting-site macros.
#define PSA_COUNT(counter) \
  (::psa::support::MetricsRegistry::instance().add((counter), 1))
#define PSA_COUNT_N(counter, n) \
  (::psa::support::MetricsRegistry::instance().add((counter), (n)))
#define PSA_PHASE_TIMER(var, wall, cpu) \
  const ::psa::support::PhaseTimer var((wall), (cpu))
