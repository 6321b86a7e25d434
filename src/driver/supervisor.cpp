#include "driver/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/analyzer.hpp"
#include "cache/cache.hpp"
#include "cache/key.hpp"
#include "checker/checker.hpp"
#include "corpus/corpus.hpp"
#include "driver/checkpoint.hpp"
#include "driver/fault.hpp"
#include "driver/incremental.hpp"
#include "ipa/summarize.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PSA_DRIVER_HAS_FORK 1
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#else
#define PSA_DRIVER_HAS_FORK 0
#endif

namespace psa::driver {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string describe(const UnitOutcome& outcome) {
  std::ostringstream out;
  out << to_string(outcome.kind);
  switch (outcome.kind) {
    case UnitOutcomeKind::kOk:
    case UnitOutcomeKind::kFrontendError:
    case UnitOutcomeKind::kTimeout:
    case UnitOutcomeKind::kPartial:
      break;
    case UnitOutcomeKind::kExit:
      out << " (code " << outcome.exit_code << ")";
      break;
    case UnitOutcomeKind::kCrash:
      out << " (signal " << outcome.signal << ")";
      break;
    case UnitOutcomeKind::kOom:
      break;
  }
  return out.str();
}

std::size_t BatchResult::ok_count() const {
  return static_cast<std::size_t>(
      std::count_if(units.begin(), units.end(), [](const UnitReport& u) {
        return !u.outcome.failed();
      }));
}

std::size_t BatchResult::failed_count() const {
  return units.size() - ok_count();
}

std::size_t BatchResult::partial_count() const {
  return static_cast<std::size_t>(
      std::count_if(units.begin(), units.end(), [](const UnitReport& u) {
        return u.outcome.kind == UnitOutcomeKind::kPartial;
      }));
}

std::size_t BatchResult::quarantined_count() const {
  return static_cast<std::size_t>(
      std::count_if(units.begin(), units.end(), [](const UnitReport& u) {
        return u.outcome.quarantined;
      }));
}

std::size_t BatchResult::from_checkpoint_count() const {
  return static_cast<std::size_t>(
      std::count_if(units.begin(), units.end(), [](const UnitReport& u) {
        return u.outcome.from_checkpoint;
      }));
}

std::size_t BatchResult::finding_count() const {
  std::size_t n = 0;
  for (const UnitReport& u : units) {
    if (u.payload) n += u.payload->findings.size();
  }
  return n;
}

bool isolation_supported() noexcept { return PSA_DRIVER_HAS_FORK != 0; }

analysis::Options stepped_down(const analysis::Options& options) {
  analysis::Options out = options;
  if (out.widen_threshold == 0 || out.widen_threshold > 16) {
    out.widen_threshold = std::max<std::size_t>(
        8, out.widen_threshold == 0 ? 16 : out.widen_threshold / 2);
  }
  if (out.max_rsgs_per_set > 64) out.max_rsgs_per_set /= 2;
  if (out.max_node_visits > 100'000) out.max_node_visits /= 2;
  if (out.deadline_ms > 1000) out.deadline_ms /= 2;
  return out;
}

namespace {

/// A result is cached only when re-running it would reproduce it exactly:
/// the fixpoint converged, and no wall-clock deadline could have shaped the
/// degradation it carries (visit/memory/set budgets are deterministic;
/// deadline expiry is not, so a deadline run that degraded at all is not
/// trusted to be repeatable).
bool cacheable(const UnitPayload& payload, const analysis::Options& engine) {
  return payload.frontend_ok && payload.result.converged() &&
         (engine.deadline_ms == 0 || payload.result.degradation.empty());
}

/// One cache probe, timed as the cache-lookup phase. A hit returns the
/// deserialized payload and leaves the entry's bytes in `bytes`. An entry
/// that is corrupt, version-skewed or (past the envelope check) hostile is
/// evicted and counted as a self-heal: a cache entry is never allowed to
/// fail a unit, the caller just recomputes. The timer closes before this
/// returns, so a caller that takes its metrics delta afterwards ships the
/// lookup's own cost in the served payload.
std::optional<UnitPayload> probe_cache(cache::ResultCache& cache,
                                       const cache::CacheKey& key,
                                       cache::EntryTier tier,
                                       std::string& bytes) {
  std::optional<UnitPayload> hit;
  bool self_heal = false;
  {
    PSA_PHASE_TIMER(lookup_timer, support::Counter::kPhaseCacheLookupWallNs,
                    support::Counter::kPhaseCacheLookupCpuNs);
    cache::ResultCache::Lookup found = cache.lookup(key, tier);
    if (found.status == cache::ResultCache::Lookup::Status::kHit) {
      try {
        hit = deserialize_unit_payload(found.bytes);
        bytes = std::move(found.bytes);
      } catch (const rsg::SnapshotError& e) {
        cache.evict(key, e.what());
        self_heal = true;
      }
    } else if (found.status == cache::ResultCache::Lookup::Status::kEvicted) {
      self_heal = true;
    }
  }
  if (self_heal) PSA_COUNT(support::Counter::kCacheSelfHeals);
  return hit;
}

}  // namespace

std::string run_unit_serialized(const AnalysisUnit& unit,
                                const analysis::Options& engine, bool check,
                                bool salvage, cache::ResultCache* cache) {
  // Whole-unit counter attribution (frontend + fixpoint + checkers). In a
  // forked worker the delta equals the absolute registry values; on the
  // in-process path the region keeps earlier units' operations out.
  const support::MetricsRegion unit_metrics;
  UnitPayload payload;
  payload.unit_name = unit.name;
  payload.function = unit.function;

  std::string source = unit.source;
  if (source.empty() && !unit.source_path.empty()) {
    std::ifstream in(unit.source_path, std::ios::binary);
    if (!in) {
      payload.frontend_ok = false;
      payload.frontend_error = "cannot read " + unit.source_path;
      const support::Interner empty;
      return serialize_unit_payload(payload, empty);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
  }

  try {
    analysis::FrontendOptions frontend;
    frontend.salvage = salvage;
    const analysis::ProgramAnalysis program =
        analysis::prepare(source, unit.function, frontend);

    // Cache lookup sits after the frontend (cheap) and before the fixpoint
    // (the expensive part a hit skips). The key is content-addressed over
    // the lowered CFG + options, so an edited unit misses while its
    // untouched neighbors hit.
    cache::CacheKey key;
    cache::CacheKey func_key;
    bool func_key_valid = false;
    ipa::SummaryTable summaries;
    bool inject_summaries = false;
    if (cache != nullptr) {
      key = cache::cache_key(program, engine, check, salvage);
      std::string hit_bytes;
      if (std::optional<UnitPayload> cached =
              probe_cache(*cache, key, cache::EntryTier::kUnit, hit_bytes)) {
        // Re-issue under this run's identity and metrics: the report fields
        // (result, findings, salvage summary) are byte-equal to a cold run;
        // only the truthful counters (cache_hits, lookup timers) differ in
        // the metrics stream.
        cached->unit_name = unit.name;
        cached->function = unit.function;
        cached->metrics = unit_metrics.delta();
        return serialize_unit_payload(*cached, *cached->interner);
      }

      // Unit miss: the function-granular tier (docs/CACHING.md). First
      // resolve the summaries the target's call sites demand — each one
      // loaded from its own cache entry when the callee (and its callees'
      // summary hashes) are unchanged, recomputed otherwise. The resolved
      // hashes then key the per-function result entry, whose bytes are a
      // full UnitPayload: a sibling edit that changed no callee summary
      // still serves the report from cache, and an edited function is the
      // only fixpoint that re-runs.
      if (engine.enable_summaries) {
        const std::vector<support::Symbol> roots = demand_roots(program.cfg);
        if (!roots.empty()) {
          CachedSummaries reuse(*cache, program, engine, salvage);
          PSA_PHASE_TIMER(ipa_timer, support::Counter::kPhaseIpaWallNs,
                          support::Counter::kPhaseIpaCpuNs);
          summaries = ipa::compute_summaries(program, engine, &reuse, &roots);
        }
        // Inject even when empty (no call sites): analyze_program would
        // otherwise recompute every sibling's summary the target never uses.
        inject_summaries = true;
      }
      func_key = cache::function_result_key(
          program, engine, check, salvage,
          callee_deps(program.cfg, program.interner(), summaries));
      func_key_valid = true;
      if (std::optional<UnitPayload> cached =
              probe_cache(*cache, func_key, cache::EntryTier::kFunction,
                          hit_bytes)) {
        cached->unit_name = unit.name;
        cached->function = unit.function;
        cached->metrics = unit_metrics.delta();
        // Promote to the unit fast path: the next unedited run of this unit
        // hits the unit entry without touching the function tier.
        (void)cache->store(key, hit_bytes);
        return serialize_unit_payload(*cached, *cached->interner);
      }
    }

    analysis::Options engine_run = engine;
    if (inject_summaries) engine_run.summaries = &summaries;
    payload.result = analysis::analyze_program(program, engine_run);
    payload.exit_node = program.cfg.exit();
    payload.skipped_decls =
        static_cast<std::uint32_t>(program.salvage.skipped_decls);
    payload.havoc_sites =
        static_cast<std::uint32_t>(program.salvage.havoc_sites);
    payload.unsupported_count =
        static_cast<std::uint32_t>(program.salvage.unsupported_count);
    payload.functions_analyzable =
        static_cast<std::uint32_t>(program.salvage.functions_analyzable);
    payload.functions_total =
        static_cast<std::uint32_t>(program.salvage.functions_total);
    payload.salvage_diagnostics = program.salvage.diagnostics;
    if (check) {
      payload.checked = true;
      payload.findings = checker::run_checkers(program, payload.result);
    }
    payload.metrics = unit_metrics.delta();
    std::string bytes = serialize_unit_payload(payload, program.interner());
    if (cache != nullptr && cacheable(payload, engine)) {
      // Store failure (disk full, permissions, an injected PSA_IO_FAULT)
      // degrades to "no cache". The
      // same bytes land under both keys: the unit entry is the fast path,
      // the function-tier result entry survives sibling edits.
      if (func_key_valid) {
        (void)cache->store(func_key, bytes, cache::StoreFault::kNone,
                           cache::EntryTier::kFunction);
      }
      (void)cache->store(key, bytes);
    }
    return bytes;
  } catch (const analysis::FrontendError& e) {
    payload = UnitPayload{};
    payload.unit_name = unit.name;
    payload.function = unit.function;
    payload.frontend_ok = false;
    payload.frontend_error = e.what();
    payload.metrics = unit_metrics.delta();
    const support::Interner empty;
    return serialize_unit_payload(payload, empty);
  }
}

namespace {

void log_line(const BatchOptions& options, const std::string& line) {
  if (options.log) options.log(line);
}

/// Scratch snapshot directory when the batch has no --checkpoint: same
/// write-tmp-then-rename worker protocol, deleted when the batch ends.
class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<unsigned> counter{0};
    const unsigned n = counter.fetch_add(1);
    std::ostringstream name;
    name << "psa-batch-"
#if PSA_DRIVER_HAS_FORK
         << static_cast<long>(::getpid())
#else
         << "x"
#endif
         << "-" << n;
    path_ = (fs::temp_directory_path() / name.str()).string();
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string snapshot_path(const std::string& key) const {
    return (fs::path(path_) / (key + ".snap")).string();
  }
  [[nodiscard]] std::string snapshot_tmp_path(const std::string& key) const {
    return (fs::path(path_) / (key + ".snap.tmp")).string();
  }

 private:
  std::string path_;
};

/// Write bytes to `tmp`, fsync, rename to `final`, fsync the directory (all
/// via support::io::atomic_write — this used to claim "fsync-close" over a
/// plain std::ofstream, which never fsyncs). The rename is the completion
/// marker: a half-written snapshot never carries the .snap name.
bool write_snapshot_file(const std::string& tmp, const std::string& final_path,
                         std::string_view bytes) {
  const auto result = support::io::atomic_write(tmp, final_path, bytes);
  if (!result) {
    PSA_COUNT(support::Counter::kIoDegradations);
  }
  return result.ok;
}

std::optional<UnitPayload> load_snapshot_file(const std::string& path,
                                              std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "missing snapshot " + path;
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  try {
    return deserialize_unit_payload(bytes);
  } catch (const rsg::SnapshotError& e) {
    if (error != nullptr) *error = std::string(e.what()) + " in " + path;
    return std::nullopt;
  }
}

/// Turn a validated payload into the unit's outcome (+ report payload).
void adopt_payload(UnitReport& report, UnitPayload&& payload, int attempts) {
  if (payload.frontend_ok) {
    if (payload.degraded()) {
      report.outcome.kind = UnitOutcomeKind::kPartial;
      std::ostringstream detail;
      detail << "analyzed " << payload.functions_analyzable << " of "
             << payload.functions_total << " functions, "
             << payload.havoc_sites << " havoc sites";
      report.outcome.detail = detail.str();
    } else {
      report.outcome.kind = UnitOutcomeKind::kOk;
      report.outcome.detail.clear();
    }
    report.payload = std::move(payload);
  } else {
    report.outcome.kind = UnitOutcomeKind::kFrontendError;
    report.outcome.detail = payload.frontend_error;
    report.payload.reset();
  }
  report.outcome.attempts = attempts;
}

struct SnapshotPaths {
  std::string tmp;
  std::string final_path;
};

#if PSA_DRIVER_HAS_FORK

struct RunningWorker {
  pid_t pid = -1;
  std::size_t unit_index = 0;
  int attempt = 1;
  Clock::time_point start;
  bool term_sent = false;
  bool timed_out = false;
  Clock::time_point term_time;
};

/// The worker body after fork(). Never returns.
[[noreturn]] void run_worker(const AnalysisUnit& unit,
                             const analysis::Options& engine,
                             const UnitRunner& runner,
                             const SnapshotPaths& paths) {
#if defined(__linux__)
  // Die with the supervisor: a SIGKILLed batch must not leave hung workers
  // behind (the resume acceptance test kills the supervisor mid-run).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  try {
    // The deliberate-fault hook is honored ONLY here, inside the sandbox.
    inject_fault(FaultPlan::from_env().for_unit(unit.name));
    const std::string bytes = runner(unit, engine);
    if (!write_snapshot_file(paths.tmp, paths.final_path, bytes)) {
      std::fprintf(stderr, "psa worker: cannot write snapshot %s\n",
                   paths.final_path.c_str());
      ::_exit(1);
    }
    ::_exit(0);
  } catch (const std::bad_alloc&) {
    ::_exit(kOomExitCode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psa worker: uncaught exception: %s\n", e.what());
    ::_exit(kUncaughtExceptionExitCode);
  } catch (...) {
    ::_exit(kUncaughtExceptionExitCode);
  }
}

/// Classify a reaped worker. `status` is the raw waitpid status.
UnitOutcome classify_worker_death(int status, const RunningWorker& worker,
                                  const SnapshotPaths& paths,
                                  std::optional<UnitPayload>& payload_out) {
  UnitOutcome outcome;
  outcome.attempts = worker.attempt;

  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    // Clean completion wins even when the watchdog's TERM raced it: the
    // snapshot is the completion marker, and it validated or it didn't.
    std::string error;
    std::optional<UnitPayload> payload =
        load_snapshot_file(paths.final_path, &error);
    if (payload) {
      if (payload->frontend_ok) {
        outcome.kind = UnitOutcomeKind::kOk;
        payload_out = std::move(payload);
      } else {
        outcome.kind = UnitOutcomeKind::kFrontendError;
        outcome.detail = payload->frontend_error;
      }
      return outcome;
    }
    outcome.kind = UnitOutcomeKind::kExit;
    outcome.exit_code = 0;
    outcome.detail = "clean exit but " + error;
    return outcome;
  }

  if (worker.timed_out) {
    outcome.kind = UnitOutcomeKind::kTimeout;
    if (WIFSIGNALED(status)) outcome.signal = WTERMSIG(status);
    return outcome;
  }

  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kOomExitCode) {
      outcome.kind = UnitOutcomeKind::kOom;
      outcome.exit_code = code;
      outcome.detail = "allocation failure";
    } else {
      outcome.kind = UnitOutcomeKind::kExit;
      outcome.exit_code = code;
      if (code == kUncaughtExceptionExitCode) {
        outcome.detail = "uncaught exception";
      }
    }
    return outcome;
  }

  if (WIFSIGNALED(status)) {
    outcome.kind = UnitOutcomeKind::kCrash;
    outcome.signal = WTERMSIG(status);
    return outcome;
  }

  outcome.kind = UnitOutcomeKind::kExit;
  outcome.detail = "unrecognized wait status";
  return outcome;
}

#endif  // PSA_DRIVER_HAS_FORK

/// Shared batch bookkeeping: one pending attempt of one unit.
struct PendingAttempt {
  std::size_t unit_index = 0;
  int attempt = 1;
  analysis::Options engine;
};

}  // namespace

BatchResult run_batch(const std::vector<AnalysisUnit>& units,
                      const BatchOptions& options, const UnitRunner& runner) {
  // Create the fork-shared io op counter before anything forks, so the
  // supervisor and its workers number durable ops in one stream (the fault
  // campaign's determinism rests on this).
  support::io::ensure_initialized();

  BatchResult result;

  // Open + recover the result cache before anything runs: stray tmp files
  // from a killed writer are swept and corrupt entries quarantined exactly
  // once, so every worker that follows sees a verified directory. An
  // unusable cache dir is a sound degradation, not a batch killer: the run
  // proceeds uncached (correct, just slower) with the failure counted and
  // noted. The shared_ptr keeps the cache alive inside the runner closure
  // (and across fork, where each worker gets its copy).
  std::shared_ptr<cache::ResultCache> cache;
  if (!options.cache_dir.empty()) {
    try {
      cache = std::make_shared<cache::ResultCache>(options.cache_dir);
      const cache::ResultCache::RecoveryReport recovered = cache->recover();
      std::ostringstream line;
      line << "cache " << cache->dir() << ": " << recovered.entries_kept
           << " entries";
      if (!recovered.clean()) {
        line << ", swept " << recovered.tmp_removed << " tmp, quarantined "
             << recovered.quarantined;
      }
      log_line(options, line.str());
    } catch (const std::exception& e) {
      PSA_COUNT(support::Counter::kIoDegradations);
      ++result.io_degradations;
      log_line(options,
               std::string("cache unavailable, running uncached: ") + e.what());
      cache.reset();
    }
  }

  const UnitRunner effective_runner =
      runner ? runner
             : UnitRunner([&options, cache](const AnalysisUnit& unit,
                                            const analysis::Options& engine) {
                 return run_unit_serialized(unit, engine, options.check,
                                            !options.strict_frontend,
                                            cache.get());
               });

  result.units.resize(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    result.units[i].unit = units[i];
  }

  std::unique_ptr<Checkpoint> checkpoint;
  std::unique_ptr<ScratchDir> scratch;
  if (!options.checkpoint_dir.empty()) {
    checkpoint =
        std::make_unique<Checkpoint>(options.checkpoint_dir, options.resume);
    for (const std::string& note : checkpoint->recovery_notes()) {
      log_line(options, note);
    }
  } else {
    scratch = std::make_unique<ScratchDir>();
  }

  std::vector<std::string> keys(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) keys[i] = unit_key(units[i]);

  const auto paths_for = [&](std::size_t i) {
    SnapshotPaths p;
    if (checkpoint) {
      p.tmp = checkpoint->snapshot_tmp_path(keys[i]);
      p.final_path = checkpoint->snapshot_path(keys[i]);
    } else {
      p.tmp = scratch->snapshot_tmp_path(keys[i]);
      p.final_path = scratch->snapshot_path(keys[i]);
    }
    return p;
  };

  // Journal writes are checked: a record that does not land durably is a
  // sound degradation — the unit merely re-runs on a later --resume — so it
  // is counted and noted, never fatal and never silently dropped.
  const auto journal_attempt = [&](std::size_t i, int attempt) {
    if (!checkpoint) return;
    if (!checkpoint->record_attempt(keys[i], attempt)) {
      ++result.io_degradations;
      log_line(options, "checkpoint degraded: attempt record for " +
                            units[i].name + " not durable");
    }
  };
  const auto journal_outcome = [&](std::size_t i, const UnitOutcome& outcome) {
    if (!checkpoint) return;
    if (!checkpoint->record_outcome(keys[i], outcome)) {
      ++result.io_degradations;
      log_line(options, "checkpoint degraded: outcome record for " +
                            units[i].name + " not durable");
    }
  };

  // Resume: serve finished units from disk, replay quarantined failures,
  // queue everything else.
  std::deque<PendingAttempt> pending;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (checkpoint && options.resume) {
      const UnitOutcome* replayed = checkpoint->replayed_outcome(keys[i]);
      if (replayed != nullptr &&
          (replayed->kind == UnitOutcomeKind::kOk ||
           replayed->kind == UnitOutcomeKind::kPartial)) {
        std::string error;
        std::optional<UnitPayload> payload =
            checkpoint->load_payload(keys[i], &error);
        if (payload) {
          adopt_payload(result.units[i], std::move(*payload),
                        replayed->attempts);
          result.units[i].outcome.from_checkpoint = true;
          log_line(options, "skip " + units[i].name + " (checkpointed)");
          continue;
        }
        log_line(options,
                 "re-run " + units[i].name + " (checkpoint invalid: " + error +
                     ")");
      } else if (replayed != nullptr && replayed->quarantined) {
        result.units[i].outcome = *replayed;
        result.units[i].outcome.from_checkpoint = true;
        log_line(options, "skip " + units[i].name + " (quarantined: " +
                              describe(*replayed) + ")");
        continue;
      }
    }
    pending.push_back(PendingAttempt{i, 1, options.engine});
  }

  const bool isolate =
      options.isolate && isolation_supported() && PSA_DRIVER_HAS_FORK != 0;
  if (options.isolate && !isolate) {
    log_line(options,
             "isolation unsupported on this platform; running in-process");
  }
  result.isolated = isolate;

  const int max_attempts = std::max(1, options.max_attempts);

  // Decide what to do with a classified failure: retry once at a stepped-down
  // budget, or quarantine.
  const auto settle = [&](std::size_t i, int attempt,
                          const analysis::Options& engine,
                          UnitOutcome outcome) {
    if (retryable(outcome.kind) && attempt < max_attempts) {
      log_line(options, "retry " + units[i].name + " (" + describe(outcome) +
                            "), stepped-down budget");
      journal_outcome(i, outcome);
      pending.push_back(PendingAttempt{i, attempt + 1, stepped_down(engine)});
      return;
    }
    if (outcome.failed() && retryable(outcome.kind)) {
      outcome.quarantined = true;
    }
    result.units[i].outcome = outcome;
    journal_outcome(i, outcome);
    log_line(options, "done " + units[i].name + ": " + describe(outcome));
  };

  if (isolate) {
#if PSA_DRIVER_HAS_FORK
    const std::size_t jobs = std::max<std::size_t>(1, options.jobs);
    std::vector<RunningWorker> running;

    const auto spawn_next = [&]() {
      const PendingAttempt next = pending.front();
      pending.pop_front();
      const AnalysisUnit& unit = units[next.unit_index];
      const SnapshotPaths paths = paths_for(next.unit_index);
      journal_attempt(next.unit_index, next.attempt);
      log_line(options, (next.attempt > 1 ? "start (retry) " : "start ") +
                            unit.name);
      std::error_code ec;
      fs::remove(paths.final_path, ec);  // stale result must not count
      const pid_t pid = ::fork();
      if (pid == 0) {
        run_worker(unit, next.engine, effective_runner, paths);
      }
      if (pid < 0) {
        // fork failure is a batch-level resource problem; treat the unit as
        // an exit failure and keep going.
        UnitOutcome outcome;
        outcome.kind = UnitOutcomeKind::kExit;
        outcome.attempts = next.attempt;
        outcome.detail = "fork failed";
        settle(next.unit_index, next.attempt, next.engine, outcome);
        return;
      }
      RunningWorker worker;
      worker.pid = pid;
      worker.unit_index = next.unit_index;
      worker.attempt = next.attempt;
      worker.start = Clock::now();
      running.push_back(worker);
    };

    // Engine options of the in-flight attempt, so retries step down from
    // what actually ran.
    const auto engine_for = [&](const RunningWorker& w) {
      return w.attempt == 1 ? options.engine
                            : [&] {
                                analysis::Options e = options.engine;
                                for (int a = 1; a < w.attempt; ++a) {
                                  e = stepped_down(e);
                                }
                                return e;
                              }();
    };

    while (!pending.empty() || !running.empty()) {
      while (!pending.empty() && running.size() < jobs) spawn_next();

      bool reaped = false;
      for (std::size_t w = 0; w < running.size();) {
        RunningWorker& worker = running[w];
        int status = 0;
        const pid_t r = ::waitpid(worker.pid, &status, WNOHANG);
        if (r == worker.pid) {
          std::optional<UnitPayload> payload;
          UnitOutcome outcome = classify_worker_death(
              status, worker, paths_for(worker.unit_index), payload);
          if (outcome.kind == UnitOutcomeKind::kOk && payload) {
            UnitReport& report = result.units[worker.unit_index];
            adopt_payload(report, std::move(*payload), worker.attempt);
            journal_outcome(worker.unit_index, report.outcome);
            log_line(options, "done " + units[worker.unit_index].name + ": " +
                                  describe(report.outcome));
          } else {
            settle(worker.unit_index, worker.attempt, engine_for(worker),
                   outcome);
          }
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(w));
          reaped = true;
          continue;
        }
        if (r < 0) {
          // Lost track of the child (should not happen); classify as exit.
          UnitOutcome outcome;
          outcome.kind = UnitOutcomeKind::kExit;
          outcome.attempts = worker.attempt;
          outcome.detail = "waitpid failed";
          settle(worker.unit_index, worker.attempt, engine_for(worker),
                 outcome);
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(w));
          reaped = true;
          continue;
        }

        // Still running: watchdog.
        if (options.unit_timeout_ms > 0) {
          const auto elapsed =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - worker.start)
                  .count();
          if (!worker.term_sent &&
              elapsed >=
                  static_cast<std::int64_t>(options.unit_timeout_ms)) {
            worker.term_sent = true;
            worker.timed_out = true;
            worker.term_time = Clock::now();
            ::kill(worker.pid, SIGTERM);
            log_line(options, "timeout " + units[worker.unit_index].name +
                                  " (SIGTERM)");
          } else if (worker.term_sent) {
            const auto grace =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - worker.term_time)
                    .count();
            if (grace >= static_cast<std::int64_t>(options.term_grace_ms)) {
              ::kill(worker.pid, SIGKILL);
            }
          }
        }
        ++w;
      }

      if (!reaped) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
#endif  // PSA_DRIVER_HAS_FORK
  } else {
    // In-process fallback: same outcome taxonomy and checkpoint protocol,
    // but exceptions are the only failures it can contain — a hard crash or
    // hang takes the batch with it (which is why isolation is the default).
    // No fault injection here: the hook is worker-only by contract.
    while (!pending.empty()) {
      const PendingAttempt next = pending.front();
      pending.pop_front();
      const AnalysisUnit& unit = units[next.unit_index];
      const SnapshotPaths paths = paths_for(next.unit_index);
      journal_attempt(next.unit_index, next.attempt);
      log_line(options, (next.attempt > 1 ? "start (retry) " : "start ") +
                            unit.name);
      UnitOutcome outcome;
      outcome.attempts = next.attempt;
      try {
        const std::string bytes = effective_runner(unit, next.engine);
        if (!write_snapshot_file(paths.tmp, paths.final_path, bytes)) {
          // The in-memory payload is adopted regardless; only a later
          // --resume pays (it re-runs this unit). Sound, counted, noted.
          ++result.io_degradations;
          log_line(options,
                   "snapshot degraded: " + unit.name + " not durable");
        }
        UnitPayload payload = deserialize_unit_payload(bytes);
        UnitReport& report = result.units[next.unit_index];
        adopt_payload(report, std::move(payload), next.attempt);
        journal_outcome(next.unit_index, report.outcome);
        log_line(options,
                 "done " + unit.name + ": " + describe(report.outcome));
        continue;
      } catch (const std::bad_alloc&) {
        outcome.kind = UnitOutcomeKind::kOom;
        outcome.detail = "allocation failure";
      } catch (const rsg::SnapshotError& e) {
        outcome.kind = UnitOutcomeKind::kExit;
        outcome.detail = e.what();
      } catch (const std::exception& e) {
        outcome.kind = UnitOutcomeKind::kExit;
        outcome.detail = e.what();
      }
      settle(next.unit_index, next.attempt, next.engine, outcome);
    }
  }

  // Bound the cache once the batch is done: every result this run produced
  // is already stored, so the sweep sees the directory at its peak. A busy
  // sweep lock means a concurrent batch is already bounding it.
  if (cache && (options.cache_max_bytes > 0 || options.cache_max_age_ms > 0)) {
    cache::ResultCache::SweepLimits limits;
    limits.max_bytes = options.cache_max_bytes;
    limits.max_age_ms = options.cache_max_age_ms;
    const cache::ResultCache::SweepReport swept = cache->sweep(limits);
    std::ostringstream line;
    if (swept.ran) {
      line << "cache sweep: " << swept.evicted << " evicted, "
           << swept.quarantined << " quarantined, " << swept.bytes_after
           << " bytes kept";
    } else {
      line << "cache sweep: skipped (another sweeper holds the lock)";
    }
    log_line(options, line.str());
  }

  return result;
}

int batch_exit_code(const BatchResult& result) {
  const std::size_t failed = result.failed_count();
  if (!result.units.empty() && failed == result.units.size()) {
    return kExitAllUnitsFailed;
  }
  if (failed > 0) return kExitSomeUnitsFailed;
  if (result.finding_count() > 0) return kExitFindings;
  return kExitOk;
}

std::string format_batch_report(const BatchResult& result) {
  std::ostringstream out;
  out << "batch: " << result.units.size() << " units, " << result.ok_count()
      << " ok, " << result.failed_count() << " failed";
  if (result.partial_count() > 0) {
    out << " (" << result.partial_count() << " partial)";
  }
  if (result.quarantined_count() > 0) {
    out << " (" << result.quarantined_count() << " quarantined)";
  }
  if (result.from_checkpoint_count() > 0) {
    out << ", " << result.from_checkpoint_count() << " from checkpoint";
  }
  out << ", mode " << (result.isolated ? "isolated" : "in-process") << '\n';

  for (const UnitReport& u : result.units) {
    out << "  " << u.unit.name << ": " << describe(u.outcome);
    if (u.outcome.attempts > 1) out << ", attempts " << u.outcome.attempts;
    if (u.outcome.quarantined) out << ", quarantined";
    if (u.outcome.from_checkpoint) out << ", from checkpoint";
    if (u.payload) {
      out << " — " << to_string(u.payload->result.status) << ", "
          << u.payload->exit_graphs() << " graphs / "
          << u.payload->exit_nodes() << " nodes at exit";
      if (u.payload->checked) {
        out << ", " << u.payload->findings.size() << " findings";
      }
      if (u.outcome.kind == UnitOutcomeKind::kPartial &&
          !u.outcome.detail.empty()) {
        out << " [" << u.outcome.detail << "]";
      }
    } else if (!u.outcome.detail.empty()) {
      std::string detail = u.outcome.detail;
      std::replace(detail.begin(), detail.end(), '\n', ' ');
      if (detail.size() > 120) {
        detail.resize(117);
        detail += "...";
      }
      out << " — " << detail;
    }
    out << '\n';
  }

  std::size_t errors = 0, warnings = 0, notes = 0, degraded = 0;
  for (const UnitReport& u : result.units) {
    if (!u.payload) continue;
    for (const checker::Finding& f : u.payload->findings) {
      switch (f.severity) {
        case checker::CheckSeverity::kError: ++errors; break;
        case checker::CheckSeverity::kWarning: ++warnings; break;
        case checker::CheckSeverity::kNote: ++notes; break;
      }
      if (f.degraded) ++degraded;
    }
  }
  out << "findings: " << result.finding_count() << " (" << errors
      << " errors, " << warnings << " warnings, " << notes << " notes)";
  if (degraded > 0) {
    out << ", " << degraded << " possible (degraded frontend)";
  }
  out << '\n';
  if (result.io_degradations > 0) {
    // The degradation note of the durable-I/O contract: results are intact,
    // but N journal/snapshot/cache writes did not land durably (details in
    // the batch log). Deterministic for a deterministic fault plan; absent
    // entirely on a healthy run, so golden reports are unchanged.
    out << "io degradations: " << result.io_degradations
        << " (results intact; resume may re-run units)\n";
  }
  return out.str();
}

std::vector<checker::ArtifactFindings> batch_findings(
    const BatchResult& result) {
  std::vector<checker::ArtifactFindings> groups;
  for (const UnitReport& u : result.units) {
    if (!u.payload || u.payload->findings.empty()) continue;
    checker::ArtifactFindings group;
    group.artifact_uri = u.unit.display_uri();
    group.findings = u.payload->findings;
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<AnalysisUnit> corpus_units() {
  std::vector<AnalysisUnit> units;
  for (const corpus::UnitSource& s : corpus::unit_sources()) {
    AnalysisUnit unit;
    unit.name = std::string(s.name);
    unit.source = std::string(s.source);
    units.push_back(std::move(unit));
  }
  return units;
}

std::vector<AnalysisUnit> corpus_dirty_units() {
  std::vector<AnalysisUnit> units;
  for (const corpus::UnitSource& s : corpus::dirty_unit_sources()) {
    AnalysisUnit unit;
    unit.name = std::string(s.name);
    unit.source = std::string(s.source);
    units.push_back(std::move(unit));
  }
  return units;
}

}  // namespace psa::driver
