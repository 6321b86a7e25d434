#include "driver/supervisor.hpp"

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>

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

namespace psa::driver {

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

/// Re-issue a cache-served payload as this run's result: this unit's
/// identity and this run's metrics. The report fields (result, findings,
/// salvage summary) stay byte-equal to a cold run; the cold run's recorded
/// cost (wall time, visits, memory, fixpoint ops) is zeroed, because this
/// run ran no fixpoint. The entry on disk keeps its bytes.
std::string reissue(UnitPayload& cached, const AnalysisUnit& unit,
                    const support::MetricsRegion& unit_metrics) {
  cached.unit_name = unit.name;
  cached.function = unit.function;
  cached.result.seconds = 0.0;
  cached.result.node_visits = 0;
  cached.result.memory = {};
  cached.result.ops = {};
  cached.metrics = unit_metrics.delta();
  return serialize_unit_payload(cached, *cached.interner);
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
    std::optional<std::string> bytes = support::io::read_file(unit.source_path);
    if (!bytes) {
      payload.frontend_ok = false;
      payload.frontend_error = "cannot read " + unit.source_path;
      const support::Interner empty;
      return serialize_unit_payload(payload, empty);
    }
    source = std::move(*bytes);
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
    ipa::SummaryTable summaries;
    if (cache != nullptr) {
      key = cache::cache_key(program, engine, check, salvage);
      std::string hit_bytes;
      if (std::optional<UnitPayload> cached =
              probe_cache(*cache, key, cache::EntryTier::kUnit, hit_bytes)) {
        return reissue(*cached, unit, unit_metrics);
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
        CachedSummaries reuse(*cache, program, engine, salvage);
        summaries = ipa::compute_summaries(program, engine, &reuse);
      }
      func_key = cache::function_result_key(
          program, engine, check, salvage,
          callee_deps(program.cfg, program.interner(), summaries));
      if (std::optional<UnitPayload> cached =
              probe_cache(*cache, func_key, cache::EntryTier::kFunction,
                          hit_bytes)) {
        std::string served = reissue(*cached, unit, unit_metrics);
        // Promote to the unit fast path: the next unedited run of this unit
        // hits the unit entry without touching the function tier.
        (void)cache->store(key, hit_bytes);
        return served;
      }
    }

    // The cached path resolved the summaries above; the analysis reuses
    // them instead of computing them again.
    analysis::Options engine_run = engine;
    if (cache != nullptr) engine_run.summaries = &summaries;
    payload.result = analysis::analyze_program(program, engine_run);
    payload.exit_node = program.cfg.exit();
    payload.gauges = analysis::collect_gauges(payload.result);
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
      (void)cache->store(func_key, bytes, cache::StoreFault::kNone,
                         cache::EntryTier::kFunction);
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

/// Shared batch bookkeeping: one pending attempt of one unit.
struct PendingAttempt {
  std::size_t unit_index = 0;
  int attempt = 1;
  analysis::Options engine;
};

struct RunningWorker {
  PendingAttempt attempt;
  pid_t pid = -1;
  /// Read end of the worker's result pipe.
  int fd = -1;
  /// The result bytes received so far.
  std::string bytes;
  /// Next watchdog action: SIGTERM at the unit budget, then SIGKILL a grace
  /// period later; max() when none is due.
  Clock::time_point deadline = Clock::time_point::max();
  /// SIGTERM sent: the worker exceeded its budget.
  bool timed_out = false;
};

/// The worker body after fork(): run the unit, write the result bytes to
/// the supervisor's pipe, exit. Never returns.
[[noreturn]] void run_worker(const AnalysisUnit& unit,
                             const analysis::Options& engine,
                             const UnitRunner& runner, int fd) {
#if defined(__linux__)
  // Die with the supervisor: a SIGKILLed batch must not leave hung workers
  // behind (the resume acceptance test kills the supervisor mid-run).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  try {
    // The deliberate-fault hook is honored ONLY here, inside the sandbox.
    inject_fault(FaultPlan::from_env().for_unit(unit.name));
    if (!support::io::write_all(fd, runner(unit, engine))) {
      std::fprintf(stderr, "psa worker: cannot write the result pipe\n");
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

/// Take what the worker's pipe holds now (one read: poll() said it would
/// not block). False once the pipe is done: EOF, or a read error, after
/// which the worker is killed so that reaping it cannot block.
bool receive(RunningWorker& worker) {
  char chunk[64 * 1024];
  const ::ssize_t n = ::read(worker.fd, chunk, sizeof(chunk));
  if (n < 0) {
    if (errno == EINTR) return true;
    ::kill(worker.pid, SIGKILL);
    return false;
  }
  if (n == 0) return false;
  worker.bytes.append(chunk, static_cast<std::size_t>(n));
  return true;
}

/// Classify a worker that did not exit cleanly. `status` is the raw waitpid
/// status.
UnitOutcome classify_worker_death(int status, const RunningWorker& worker) {
  UnitOutcome outcome;
  outcome.attempts = worker.attempt.attempt;

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

/// poll() timeout until the earliest watchdog deadline; -1 when none is due.
int poll_timeout_ms(const std::vector<RunningWorker>& running) {
  Clock::time_point next = Clock::time_point::max();
  for (const RunningWorker& w : running) next = std::min(next, w.deadline);
  if (next == Clock::time_point::max()) return -1;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(next - Clock::now())
          .count();
  return static_cast<int>(std::clamp<std::int64_t>(
      ms, 0, std::numeric_limits<int>::max()));
}

}  // namespace

BatchResult run_batch(const std::vector<AnalysisUnit>& units,
                      const BatchOptions& options, const UnitRunner& runner) {
  // Create the fork-shared io op counter before anything forks, so the
  // supervisor and its workers number durable ops in one stream (the fault
  // campaign's determinism rests on this).
  support::io::ensure_initialized();

  BatchResult result;

  // Open the result cache before anything runs and delete the tmp
  // stragglers of writers that died mid-store. Entries are not read here:
  // every lookup validates what it serves. An unusable cache dir is a sound
  // degradation, not a batch killer: the run proceeds uncached (correct,
  // just slower) with the failure counted and noted. The shared_ptr keeps
  // the cache alive inside the runner closure (and across fork, where each
  // worker gets its copy).
  std::shared_ptr<cache::ResultCache> cache;
  if (!options.cache_dir.empty()) {
    try {
      cache = std::make_shared<cache::ResultCache>(options.cache_dir);
      std::string line = "cache " + cache->dir();
      if (const std::size_t swept = cache->recover(); swept > 0) {
        line += ": swept " + std::to_string(swept) + " tmp";
      }
      log_line(options, line);
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

  // The units as the runners see them: each on-disk source is read once,
  // here, so its checkpoint key covers exactly the bytes its worker
  // analyzes. A file that cannot be read stays source-less; the runner
  // then reports it as unreadable.
  std::vector<AnalysisUnit> sourced = units;
  std::vector<std::string> keys(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    AnalysisUnit& u = sourced[i];
    if (u.source.empty() && !u.source_path.empty()) {
      u.source = support::io::read_file(u.source_path).value_or("");
    }
    keys[i] = unit_key(u);
  }

  std::unique_ptr<Checkpoint> checkpoint;
  if (!options.checkpoint_dir.empty()) {
    checkpoint = std::make_unique<Checkpoint>(options.checkpoint_dir,
                                              options.resume, keys);
    for (const std::string& note : checkpoint->recovery_notes()) {
      log_line(options, note);
    }
  }

  // Journal writes are checked: a record that does not land durably is a
  // sound degradation — the unit merely re-runs on a later --resume — so it
  // is counted and noted, never fatal and never silently dropped.
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
            checkpoint->load_payload(keys[i], units[i], &error);
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

  result.isolated = options.isolate;
  const int max_attempts = std::max(1, options.max_attempts);

  const auto start_attempt = [&](const PendingAttempt& a) {
    log_line(options, (a.attempt > 1 ? "start (retry) " : "start ") +
                          units[a.unit_index].name);
  };

  // Decide what to do with a classified failure: retry once at a stepped-down
  // budget, or quarantine.
  const auto settle = [&](const PendingAttempt& a, UnitOutcome outcome) {
    const std::size_t i = a.unit_index;
    if (retryable(outcome.kind) && a.attempt < max_attempts) {
      log_line(options, "retry " + units[i].name + " (" + describe(outcome) +
                            "), stepped-down budget");
      journal_outcome(i, outcome);
      pending.push_back(
          PendingAttempt{i, a.attempt + 1, stepped_down(a.engine)});
      return;
    }
    if (outcome.failed() && retryable(outcome.kind)) {
      outcome.quarantined = true;
    }
    result.units[i].outcome = outcome;
    journal_outcome(i, outcome);
    log_line(options, "done " + units[i].name + ": " + describe(outcome));
  };

  // The one completion step of an attempt that returned its bytes — a
  // worker's clean exit or the in-process runner's return: validate, keep
  // the checkpoint snapshot of an analyzed unit (before its outcome record,
  // so a journaled ok always has a snapshot to resume from), adopt, journal.
  // Bytes that fail validation fail the attempt like any other death.
  const auto complete = [&](const PendingAttempt& a, std::string_view bytes) {
    const std::size_t i = a.unit_index;
    UnitPayload payload;
    try {
      payload = deserialize_unit_payload(bytes);
    } catch (const rsg::SnapshotError& e) {
      UnitOutcome outcome;
      outcome.kind = UnitOutcomeKind::kExit;
      outcome.attempts = a.attempt;
      outcome.detail = std::string("clean exit but ") + e.what();
      settle(a, std::move(outcome));
      return;
    }
    if (checkpoint && payload.frontend_ok &&
        !checkpoint->store_payload(keys[i], bytes)) {
      // The in-memory payload is adopted regardless; only a later --resume
      // pays (it re-runs this unit). Sound, counted, noted.
      ++result.io_degradations;
      log_line(options, "snapshot degraded: " + units[i].name + " not durable");
    }
    UnitReport& report = result.units[i];
    adopt_payload(report, std::move(payload), a.attempt);
    journal_outcome(i, report.outcome);
    log_line(options, "done " + units[i].name + ": " + describe(report.outcome));
  };

  if (result.isolated) {
    const std::size_t jobs = std::max<std::size_t>(1, options.jobs);
    const auto unit_budget = std::chrono::milliseconds(options.unit_timeout_ms);
    const auto grace = std::chrono::milliseconds(options.term_grace_ms);
    std::vector<RunningWorker> running;
    std::vector<pollfd> polled;

    const auto spawn_next = [&]() {
      RunningWorker worker;
      worker.attempt = std::move(pending.front());
      pending.pop_front();
      start_attempt(worker.attempt);
      int fds[2] = {-1, -1};
      if (::pipe(fds) == 0) {
        worker.pid = ::fork();
        if (worker.pid == 0) {
          ::close(fds[0]);
          run_worker(sourced[worker.attempt.unit_index],
                     worker.attempt.engine, effective_runner, fds[1]);
        }
        ::close(fds[1]);
        if (worker.pid < 0) ::close(fds[0]);
      }
      if (worker.pid < 0) {
        // A pipe or fork failure is a batch-level resource problem; treat
        // the unit as an exit failure and keep going.
        UnitOutcome outcome;
        outcome.kind = UnitOutcomeKind::kExit;
        outcome.attempts = worker.attempt.attempt;
        outcome.detail = "fork failed";
        settle(worker.attempt, outcome);
        return;
      }
      worker.fd = fds[0];
      if (options.unit_timeout_ms > 0) {
        worker.deadline = Clock::now() + unit_budget;
      }
      running.push_back(std::move(worker));
    };

    // Reap a worker whose pipe is done and settle its attempt: a clean exit
    // hands its bytes to the completion step, anything else is classified.
    const auto reap = [&](RunningWorker& worker) {
      ::close(worker.fd);
      int status = 0;
      ::pid_t r = 0;
      do {
        r = ::waitpid(worker.pid, &status, 0);
      } while (r < 0 && errno == EINTR);
      if (r != worker.pid) {
        // Lost track of the child (should not happen); classify as exit.
        UnitOutcome outcome;
        outcome.kind = UnitOutcomeKind::kExit;
        outcome.attempts = worker.attempt.attempt;
        outcome.detail = "waitpid failed";
        settle(worker.attempt, outcome);
      } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        // Clean completion wins even when the watchdog's TERM raced it: the
        // bytes validate or they don't.
        complete(worker.attempt, worker.bytes);
      } else {
        settle(worker.attempt, classify_worker_death(status, worker));
      }
    };

    while (!pending.empty() || !running.empty()) {
      while (!pending.empty() && running.size() < jobs) spawn_next();
      if (running.empty()) continue;  // every spawn failed and settled

      // Sleep until a worker sends data or EOF, or the watchdog is due.
      polled.clear();
      for (const RunningWorker& w : running) {
        polled.push_back(pollfd{w.fd, POLLIN, 0});
      }
      if (::poll(polled.data(), polled.size(), poll_timeout_ms(running)) > 0) {
        std::size_t kept = 0;
        for (std::size_t w = 0; w < running.size(); ++w) {
          if (polled[w].revents != 0 && !receive(running[w])) {
            reap(running[w]);
          } else {
            if (kept != w) running[kept] = std::move(running[w]);
            ++kept;
          }
        }
        running.resize(kept);
      }

      // Watchdog: SIGTERM at the unit budget, SIGKILL a grace period later.
      const Clock::time_point now = Clock::now();
      for (RunningWorker& worker : running) {
        if (now < worker.deadline) continue;
        if (!worker.timed_out) {
          worker.timed_out = true;
          worker.deadline = now + grace;
          ::kill(worker.pid, SIGTERM);
          log_line(options, "timeout " +
                                units[worker.attempt.unit_index].name +
                                " (SIGTERM)");
        } else {
          worker.deadline = Clock::time_point::max();
          ::kill(worker.pid, SIGKILL);
        }
      }
    }
  } else {
    // In-process: same outcome taxonomy and checkpoint protocol, but
    // exceptions are the only failures it can contain — a hard crash or
    // hang takes the batch with it (which is why isolation is the default).
    // No fault injection here: the hook is worker-only by contract.
    while (!pending.empty()) {
      const PendingAttempt next = pending.front();
      pending.pop_front();
      start_attempt(next);
      UnitOutcome outcome;
      outcome.attempts = next.attempt;
      try {
        complete(next,
                 effective_runner(sourced[next.unit_index], next.engine));
        continue;
      } catch (const std::bad_alloc&) {
        outcome.kind = UnitOutcomeKind::kOom;
        outcome.detail = "allocation failure";
      } catch (const std::exception& e) {
        outcome.kind = UnitOutcomeKind::kExit;
        outcome.detail = e.what();
      }
      settle(next, outcome);
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
