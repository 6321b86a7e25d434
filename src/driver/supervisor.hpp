// The crash-isolated batch supervisor.
//
// run_batch() analyzes a list of units so that NO single unit — pathological
// input, analyzer defect, hang, or memory blow-up — can take down the batch:
//
//   * with isolation on (the default), every unit runs in its own forked
//     worker process; the worker writes its serialized result
//     (driver/payload.hpp) to a pipe and exits. The supervisor poll()s the
//     running workers' pipes, so it wakes only for result bytes, for a
//     worker's EOF (then it reaps the worker with waitpid) or for the
//     watchdog, and validates the bytes it received;
//   * a wall-clock watchdog SIGTERMs a worker that exceeds the per-unit
//     budget and SIGKILLs it after a grace period;
//   * every worker death is classified into a structured UnitOutcome
//     (clean / frontend-error / nonzero-exit / signal / timeout / oom);
//   * a failed unit is retried ONCE at a stepped-down governor budget
//     (stepped_down()); failing again quarantines it — the batch always
//     completes with every other result intact;
//   * the supervisor reads each on-disk source once and hands the bytes to
//     the worker, so a unit's checkpoint key covers what the worker
//     analyzes;
//   * with --checkpoint, outcomes are journaled and the supervisor
//     writes each analyzed unit's snapshot before its outcome record, so an
//     interrupted batch resumes: finished units are served from disk,
//     quarantined units replay their outcome, everything else (an edited
//     source included) re-runs. Without --checkpoint nothing but the cache
//     writes to the disk;
//   * with isolation off, units run in-process through the exact same
//     completion/outcome/checkpoint/reporting machinery — exceptions are
//     contained per unit, but hard crashes and hangs are not (the governor's
//     deadline is the only watchdog there).
//
// Worker-side fault injection (PSA_FAULT_AT, driver/fault.hpp) lets tests
// and CI prove all of the above; see docs/RESILIENCE.md.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/engine.hpp"
#include "checker/sarif.hpp"
#include "driver/payload.hpp"
#include "driver/unit.hpp"

namespace psa::cache {
class ResultCache;
}  // namespace psa::cache

namespace psa::driver {

/// Runs one unit end to end (frontend + fixpoint + optional checkers) and
/// returns the *serialized* UnitPayload bytes. Runs inside the forked worker
/// (or inline when isolation is off). Must contain FrontendError itself
/// (payload with frontend_ok=false); any other exception is the worker's
/// problem and classifies the unit.
using UnitRunner =
    std::function<std::string(const AnalysisUnit&, const analysis::Options&)>;

/// The default runner: analyze at options.level, run the memory-safety
/// checkers when `check`, and serialize the payload (exit state, gauges,
/// findings; the per-statement states stay in this process). `salvage`
/// enables the salvage-mode frontend (the batch default): unsupported
/// constructs degrade to sound havoc semantics instead of failing the unit.
///
/// With a non-null `cache` (the content-addressed result cache,
/// cache/cache.hpp), the lowered unit is looked up after the frontend runs:
/// a checksum-valid, deeply-deserializable entry skips the fixpoint and
/// checkers entirely (the payload is re-issued under the current unit name
/// with this run's metrics delta, so the batch report is byte-identical to a
/// cold run, and with the cold run's wall time, visits, memory and fixpoint
/// ops zeroed, so a warm run never reports the cold run's cost); a corrupt or version-skewed entry is evicted, recomputed, and
/// stored back (counted as cache_self_heals). Cacheable results — converged,
/// and not possibly shaped by a wall-clock deadline — are stored after a
/// miss. Cache failures of any kind degrade to "no cache": they never fail
/// the unit.
[[nodiscard]] std::string run_unit_serialized(const AnalysisUnit& unit,
                                              const analysis::Options& engine,
                                              bool check, bool salvage = true,
                                              cache::ResultCache* cache =
                                                  nullptr);

/// One retry step of the governor budget: roughly halves the widen
/// threshold, visit budget, set limit and deadline (never below a sane
/// floor) so the retry converges where the first attempt blew up.
[[nodiscard]] analysis::Options stepped_down(const analysis::Options& options);

struct BatchOptions {
  /// Fork one sandboxed worker per unit.
  bool isolate = true;
  /// Concurrent workers (isolation only; the in-process path is serial).
  std::size_t jobs = 1;
  /// Checkpoint directory; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Content-addressed result cache directory (cache/cache.hpp); empty
  /// disables caching. Opened once at batch start (stray tmp files of dead
  /// writers are deleted); each worker then looks its unit up after the
  /// frontend and skips the fixpoint on a validated hit. Only the default
  /// runner consults the cache.
  std::string cache_dir;
  /// Bounded-cache policy (cache::ResultCache::SweepLimits semantics): when
  /// either is non-zero the cache is swept after the batch completes — age
  /// expiry, then oldest-first eviction below the byte cap. Zeros leave the
  /// cache unbounded (the pre-sweep behavior).
  std::uint64_t cache_max_bytes = 0;
  std::uint64_t cache_max_age_ms = 0;
  /// Resume from `checkpoint_dir` (see driver/checkpoint.hpp semantics).
  bool resume = false;
  /// Per-unit wall-clock budget in ms; 0 disables the watchdog.
  std::uint64_t unit_timeout_ms = 0;
  /// SIGTERM -> SIGKILL escalation grace.
  std::uint64_t term_grace_ms = 2000;
  /// Attempts per unit before quarantine (>= 1; 2 = the one-retry policy).
  int max_attempts = 2;
  /// Engine options of the first attempt.
  analysis::Options engine;
  /// Run the memory-safety checkers in every worker.
  bool check = false;
  /// Disable the salvage-mode frontend: restore strict fail-fast behavior
  /// where every unsupported construct is a unit-level frontend error.
  bool strict_frontend = false;
  /// Unit-level progress log (start / done / retry / skip lines); null = quiet.
  std::function<void(const std::string&)> log;
};

struct UnitReport {
  AnalysisUnit unit;
  UnitOutcome outcome;
  /// Present when outcome.kind == kOk or kPartial.
  std::optional<UnitPayload> payload;
};

struct BatchResult {
  std::vector<UnitReport> units;  // input order
  /// Whether workers were process-isolated (BatchOptions::isolate).
  bool isolated = false;
  /// Supervisor-side durable-I/O failures absorbed as sound degradations: a
  /// checkpoint journal record or snapshot that did not land (the unit
  /// merely re-runs on resume), a cache directory that could not be opened
  /// (the batch runs uncached). Rendered
  /// as a trailing "io degradations: N" report line when non-zero — the
  /// degradation note the resilience contract promises. Worker-side io
  /// failures surface through unit outcomes instead.
  std::size_t io_degradations = 0;

  [[nodiscard]] std::size_t ok_count() const;
  [[nodiscard]] std::size_t failed_count() const;
  /// Units that completed with a degraded (salvage-mode) frontend. These
  /// are a subset of the analyzed units, not of failed_count().
  [[nodiscard]] std::size_t partial_count() const;
  [[nodiscard]] std::size_t quarantined_count() const;
  [[nodiscard]] std::size_t from_checkpoint_count() const;
  [[nodiscard]] std::size_t finding_count() const;
};

/// Run the batch. Never throws for per-unit failures; throws
/// std::runtime_error only for batch-level setup failures (an uncreatable
/// checkpoint directory). Durable-I/O failures past setup — journal records,
/// snapshots, an unusable cache directory — degrade soundly and are tallied
/// in BatchResult::io_degradations; the batch itself never dies of them.
[[nodiscard]] BatchResult run_batch(const std::vector<AnalysisUnit>& units,
                                    const BatchOptions& options,
                                    const UnitRunner& runner = {});

/// Documented process exit codes of batch drivers (psa_cli and tests assert
/// these). Partial units (salvage-mode degraded frontend) count as analyzed:
/// a batch of ok + partial units exits 0 or 1, never 3.
///   0 every unit analyzed, no findings
///   1 every unit analyzed, memory-safety findings reported
///   2 bad usage (reserved for the CLI argument parser)
///   3 some units failed (crash / timeout / oom / exit / frontend error)
///   4 every unit failed
enum BatchExitCode : int {
  kExitOk = 0,
  kExitFindings = 1,
  kExitBadUsage = 2,
  kExitSomeUnitsFailed = 3,
  kExitAllUnitsFailed = 4,
};

[[nodiscard]] int batch_exit_code(const BatchResult& result);

/// Deterministic batch report: unit outcomes, exit-state sizes and finding
/// counts in input order — no wall-clock fields, so an uninterrupted run and
/// a resumed run of the same batch render byte-identical reports.
[[nodiscard]] std::string format_batch_report(const BatchResult& result);

/// Per-artifact findings of the completed units, ready for
/// checker::to_sarif_batch (partial batches merge into one SARIF log).
[[nodiscard]] std::vector<checker::ArtifactFindings> batch_findings(
    const BatchResult& result);

/// The whole clean corpus as batch units (psa_cli --corpus and the
/// fault-injection suites).
[[nodiscard]] std::vector<AnalysisUnit> corpus_units();

/// The dirty corpus as batch units (psa_cli --corpus-dirty and the salvage
/// smoke test): every unit degrades under the salvage frontend but must
/// still complete as kPartial, never kFrontendError.
[[nodiscard]] std::vector<AnalysisUnit> corpus_dirty_units();

}  // namespace psa::driver
