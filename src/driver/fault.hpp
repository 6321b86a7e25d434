// Deliberate fault injection for the crash-isolated batch driver.
//
// PSA_FAULT_AT=unit:kind[,unit:kind...] arms a fault for specific analysis
// units. The hook is honored ONLY inside a sandboxed worker process (the
// supervisor arms it right before running the unit's analysis) — the
// supervisor itself and the in-process fallback never inject, so a stray
// environment variable can degrade at most one unit per batch, never the
// batch itself. Tests and the CI crash-injection job use this to prove the
// supervisor contains crashes, hangs, OOM and uncaught exceptions
// (docs/RESILIENCE.md).
//
// Kinds:
//   crash  std::abort() — dies by SIGABRT under every build mode (ASan does
//          not intercept abort), the deterministic "analyzer defect".
//   hang   sleep forever — exercises the watchdog's SIGTERM -> SIGKILL
//          escalation.
//   oom    throw std::bad_alloc — exercises the worker's allocation-failure
//          protocol (exit code kOomExitCode) without depending on the
//          allocator's real out-of-memory behavior, which sanitizers change.
//   throw  throw std::runtime_error — an uncaught analyzer exception
//          (exit code kUncaughtExceptionExitCode).
//
// Durable-write failures (cache stores, checkpoints, journals) are not
// injected here: PSA_IO_FAULT owns them (support/io.hpp). On-disk rot of a
// completed cache entry is tested by editing the entry file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psa::driver {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrash,
  kHang,
  kOom,
  kThrow,
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// The parsed PSA_FAULT_AT plan: which unit gets which fault.
class FaultPlan {
 public:
  /// Parse "unit:kind[,unit:kind...]". Unknown kinds and malformed entries
  /// are ignored (a batch must never die because of a typo in a test knob).
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Plan from the PSA_FAULT_AT environment variable (empty plan if unset).
  [[nodiscard]] static FaultPlan from_env();

  [[nodiscard]] FaultKind for_unit(std::string_view unit_name) const;
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

 private:
  std::vector<std::pair<std::string, FaultKind>> entries_;
};

/// Trigger `kind` at the call site. kNone returns immediately; kOom and
/// kThrow raise; kCrash and kHang never return.
void inject_fault(FaultKind kind);

}  // namespace psa::driver
