// Batch analysis units and the outcome taxonomy of the crash-isolated
// supervisor (see docs/RESILIENCE.md).
//
// One unit = one (source × function) analysis. The supervisor runs each unit
// in a sandboxed worker process (or in-process when isolation is off),
// classifies how the worker ended, and the batch always completes with a
// structured UnitOutcome per unit — a pathological input or an analyzer
// defect can cost at most its own unit, never the batch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace psa::driver {

/// One analysis unit: a source buffer (inline or on disk) and the function
/// to analyze. `name` is the stable identity used for checkpoint keys,
/// fault-injection matching and logs.
struct AnalysisUnit {
  std::string name;
  std::string function = "main";
  /// Inline source text. When empty, run_batch reads `source_path` once and
  /// hands the bytes to the runner (and keys the unit's checkpoint on them);
  /// a runner given a unit without source bytes reads the file itself.
  std::string source;
  /// On-disk source (also the artifact URI in merged SARIF logs).
  std::string source_path;

  /// URI to attribute findings to (SARIF artifactLocation.uri).
  [[nodiscard]] std::string display_uri() const {
    return source_path.empty() ? name : source_path;
  }
};

/// How a unit ended. The supervisor classifies every worker death; the
/// in-process fallback maps its failure modes onto the same taxonomy.
enum class UnitOutcomeKind : std::uint8_t {
  /// Worker completed and its result bytes validated.
  kOk = 0,
  /// The frontend rejected the source — deterministic, never retried.
  kFrontendError = 1,
  /// Worker exited with an unexpected nonzero code (includes a top-level
  /// uncaught exception), or exited cleanly with result bytes that failed
  /// to validate ("clean exit but ...", exit code 0).
  kExit = 2,
  /// Worker was killed by a signal it raised itself (SIGSEGV, SIGABRT, ...).
  kCrash = 3,
  /// The watchdog killed the worker after the per-unit wall-clock budget
  /// (SIGTERM, then SIGKILL after the grace period).
  kTimeout = 4,
  /// The worker ran out of memory (allocation failure reported via the
  /// dedicated exit code, see kOomExitCode).
  kOom = 5,
  /// Worker completed in salvage mode with a degraded frontend: some
  /// declarations were stubbed out and/or unsupported constructs were
  /// lowered to havoc. The result bytes validated and findings are
  /// usable, but confidence-tainted (see docs/RESILIENCE.md).
  kPartial = 6,
};

/// Worker exit-code protocol (anything else nonzero classifies as kExit).
inline constexpr int kOomExitCode = 77;
inline constexpr int kUncaughtExceptionExitCode = 78;

[[nodiscard]] constexpr std::string_view to_string(UnitOutcomeKind kind) {
  switch (kind) {
    case UnitOutcomeKind::kOk: return "ok";
    case UnitOutcomeKind::kFrontendError: return "frontend-error";
    case UnitOutcomeKind::kExit: return "exit";
    case UnitOutcomeKind::kCrash: return "crash";
    case UnitOutcomeKind::kTimeout: return "timeout";
    case UnitOutcomeKind::kOom: return "oom";
    case UnitOutcomeKind::kPartial: return "partial";
  }
  return "?";
}

/// Inverse of to_string (for journal replay); false when unknown.
[[nodiscard]] constexpr bool parse_outcome_kind(std::string_view s,
                                                UnitOutcomeKind& out) {
  for (const auto kind :
       {UnitOutcomeKind::kOk, UnitOutcomeKind::kFrontendError,
        UnitOutcomeKind::kExit, UnitOutcomeKind::kCrash,
        UnitOutcomeKind::kTimeout, UnitOutcomeKind::kOom,
        UnitOutcomeKind::kPartial}) {
    if (s == to_string(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

/// A failed unit (for retry, quarantine and batch exit codes). Frontend
/// rejections count as failures of the *input*, not of the worker: they are
/// deterministic, so they are never retried or quarantined. Partial units
/// succeeded — degraded, but with a validated result.
[[nodiscard]] constexpr bool unit_failed(UnitOutcomeKind kind) {
  return kind != UnitOutcomeKind::kOk && kind != UnitOutcomeKind::kPartial;
}

/// A worker-death failure eligible for the retry-then-quarantine policy.
[[nodiscard]] constexpr bool retryable(UnitOutcomeKind kind) {
  return kind == UnitOutcomeKind::kExit || kind == UnitOutcomeKind::kCrash ||
         kind == UnitOutcomeKind::kTimeout || kind == UnitOutcomeKind::kOom;
}

struct UnitOutcome {
  UnitOutcomeKind kind = UnitOutcomeKind::kOk;
  /// Worker exit code (kExit) or killing signal (kCrash/kTimeout).
  int exit_code = 0;
  int signal = 0;
  /// Attempts consumed (retries included).
  int attempts = 1;
  /// Failed max_attempts times; resume skips it and replays this outcome.
  bool quarantined = false;
  /// Replayed from the checkpoint journal instead of being re-run.
  bool from_checkpoint = false;
  /// Frontend diagnostics, exception message, or classification note.
  std::string detail;

  [[nodiscard]] bool failed() const { return unit_failed(kind); }
};

/// Deterministic one-line rendering, e.g. "crash (signal 6)".
[[nodiscard]] std::string describe(const UnitOutcome& outcome);

}  // namespace psa::driver
