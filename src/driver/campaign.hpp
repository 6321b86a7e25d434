// Deterministic fault-space exploration over the durable-I/O layer
// (src/support/io): replay the batch → cache → checkpoint → resume pipeline
// once per (op number, fault kind) pair and assert, machine-checkably, that
// every single-fault outcome is a *sound degradation*:
//
//   1. The documented exit-code contract holds — a faulted child exits with
//      a contract code (never a signal death, never an undocumented code).
//   2. The final report is byte-identical to the golden run, or carries an
//      explicit degradation marker (io degradations / attempts / quarantined)
//      — a fault is never silently absorbed into a *different* answer.
//   3. No corrupt cache entry is ever served: a warm re-run against the
//      fault-scarred cache directory (fresh checkpoint, no fault) must
//      reproduce the golden report byte-for-byte.
//   4. A `crash` fault that kills the whole process is recoverable:
//      `--resume` against the surviving checkpoint + cache reproduces the
//      uninterrupted report byte-for-byte (modulo the documented
//      "from checkpoint" markers).
//
// The sweep is driven by a golden trace: one clean run with PSA_IO_TRACE
// records the stream of durable ops; the campaign then re-execs the same
// pipeline once per traced op per kind with PSA_IO_FAULT=<op>:<kind>.
// docs/RESILIENCE.md ("The I/O fault space") documents the model;
// scripts/fault_campaign.sh wraps this driver for CI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace psa::driver {

struct CampaignOptions {
  /// Path of the psa_cli binary to re-exec for every scenario (argv[0] of
  /// the invoking process).
  std::string exe;
  /// Scratch root for unit sources, checkpoint/cache directories, traces,
  /// and per-scenario transcripts. Created if missing; contents clobbered.
  std::string workdir;
  /// Fault kinds to sweep. Defaults to the full vocabulary of
  /// support::io::FaultKind.
  std::vector<std::string> kinds = {"enospc", "eio", "shortwrite",
                                    "tornrename", "crash"};
  /// Cap on the number of traced ops to fault (0 = every op in the golden
  /// trace). CI uses the default bounded corpus and no cap; a cap exists for
  /// quick local iteration.
  std::uint64_t max_ops = 0;
  /// false: two-unit bounded corpus (minutes); true: the whole clean corpus
  /// (the full sweep documented in EXPERIMENTS.md).
  bool full_corpus = false;
};

/// Runs the campaign: golden run, per-(op, kind) fault scenarios, warm-cache
/// verification, and crash/--resume verification. Streams per-scenario
/// progress to stderr and a final verdict to stdout. Returns 0 when every
/// invariant held for every pair, 1 on any violation, 2 on setup failure
/// (golden run broken, unwritable workdir, unknown fault kind).
[[nodiscard]] int run_fault_campaign(const CampaignOptions& options);

}  // namespace psa::driver
