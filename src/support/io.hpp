// The durable-I/O layer: every write the system relies on after a crash —
// cache entries, checkpoint snapshots, journal records — goes through the
// three primitives here instead of raw std::ofstream.
//
//   atomic_write(tmp, final, bytes)   write tmp, fsync(fd), rename to final,
//                                     fsync the directory. Either the final
//                                     file holds exactly `bytes` or it was
//                                     never touched; a failure may leave the
//                                     tmp behind (callers' recovery sweeps
//                                     already handle stray tmps).
//   checked_append(path, record)      O_APPEND + full write + fsync. The
//                                     record either lands durably or the
//                                     caller learns it did not.
//   checked_rename(from, to)          rename + directory fsync.
//
// Errors are values, never exceptions: an IoResult that is false carries the
// diagnostic, and the caller decides how to degrade soundly (count it, note
// it, fall back). See docs/RESILIENCE.md, "The I/O fault space".
//
// Fault-space exploration. Each top-level primitive call consumes one
// process-global operation number; the counter lives in a MAP_SHARED mapping
// created before the supervisor forks, so workers and their parent share one
// numbering and a golden run's op stream is deterministic under --jobs=1.
// Two environment knobs drive the explorer (scripts/fault_campaign.sh):
//
//   PSA_IO_TRACE=<file>   append one line per op ("op <n> <kind> <path>
//                         <bytes> <ok|error...>") via raw, un-numbered,
//                         un-faulted appends — the trace never perturbs the
//                         stream it records.
//   PSA_IO_FAULT=<sel>:<kind>
//                         <sel> is an op number (fires exactly once, when
//                         the global counter reaches it) or @<substr> (fires
//                         on every op whose path contains <substr> — for
//                         targeted tests). <kind> is one of:
//                           enospc     the op fails before any byte lands
//                           eio        bytes land but the fsync fails; an
//                                      atomic_write must NOT publish
//                           shortwrite half the bytes land, then failure
//                                      (leaves a torn tmp / torn journal
//                                      line downstream must tolerate)
//                           tornrename everything durable but the rename
//                                      never happens (power cut in the gap)
//                           crash      the op completes, then the process
//                                      dies with _Exit(kCrashExitCode) —
//                                      power cut immediately after the op
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace psa::support::io {

/// Exit code of an injected `crash` fault: distinguishable from every
/// documented CLI exit (0-4) and from the OOM/uncaught-exception worker
/// sentinels (77/78), so harnesses can assert the death was the injected one.
inline constexpr int kCrashExitCode = 86;

enum class FaultKind : std::uint8_t {
  kNone,
  kEnospc,
  kEio,
  kShortWrite,
  kTornRename,
  kCrash,
};

/// Outcome of one durable op. Contextual prose in `error` when !ok.
struct IoResult {
  bool ok = true;
  std::string error;

  explicit operator bool() const noexcept { return ok; }
};

/// Create the fork-shared op counter now. Idempotent and cheap after the
/// first call; the batch supervisor calls it before any fork so parent and
/// children number ops in one shared stream.
void ensure_initialized();

/// Total durable ops issued by this process tree so far (reads the shared
/// counter). Test hook for computing op numbers relative to "now".
[[nodiscard]] std::uint64_t ops_issued();

/// Write `bytes` to `tmp`, fsync, rename onto `final_path`, fsync the parent
/// directory. On failure nothing is renamed; `tmp` may remain for the
/// caller's recovery sweep.
[[nodiscard]] IoResult atomic_write(const std::string& tmp,
                                    const std::string& final_path,
                                    std::string_view bytes);

/// Append `record` (caller includes any trailing newline) to `path`,
/// creating it if needed, and fsync. Returns failure when the record is not
/// known durable — it may still be partially or fully present in the file;
/// journal consumers already tolerate torn trailing lines.
[[nodiscard]] IoResult checked_append(const std::string& path,
                                      std::string_view record);

/// Rename `from` onto `to` and fsync the destination directory.
[[nodiscard]] IoResult checked_rename(const std::string& from,
                                      const std::string& to);

/// Write every byte of `bytes` to `fd`, resuming after short writes and
/// EINTR. False on any other error. Not a durable op: it takes no op
/// number, is never faulted or traced, and does not fsync (the batch
/// worker's result pipe uses it).
[[nodiscard]] bool write_all(int fd, std::string_view bytes);

/// The whole content of the file at `path`; nullopt when it cannot be
/// opened. A read, so not a durable op either: no op number, never faulted
/// or traced.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace psa::support::io
