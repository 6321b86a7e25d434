// The on-disk checkpoint of a batch run: an append-only journal of unit
// outcomes plus one snapshot file per analyzed unit.
//
// Directory layout (--checkpoint=DIR):
//   journal.psaj          append-only text journal (see below)
//   <unit-key>.snap       UnitPayload snapshot (envelope-checksummed bytes)
//                         of a unit that ended ok or partial, written by
//                         the supervisor before the unit's outcome record
//   <unit-key>.snap.tmp   in-flight write; renamed to .snap on completion,
//                         so the bare presence of .snap marks a finished
//                         write (the checksum still guards its content)
// A unit key is `<sanitized name>-<16 hex digits>` (unit_key below).
//
// Journal format — line oriented, tolerant to a torn final line (a SIGKILLed
// supervisor can lose at most the line being written):
//   psa-journal v1
//   outcome <key> <kind> <exit> <signal> <attempts> <quarantined> <detail>
// `detail` is the remainder of the line with newlines escaped as "\n".
// The LAST outcome line per key wins on replay; every other line (torn,
// unknown, or an `attempt` record of an older journal) is skipped.
//
// Units are keyed by content: the key hashes the unit's name, function and
// the source bytes its worker analyzes, so an edited source is a new unit
// that --resume re-runs, and the resume removes the old key's snapshot.
//
// Resume semantics (--resume): a unit whose replayed outcome is `ok` AND
// whose snapshot validates is skipped and its payload served from disk; a
// quarantined unit is skipped and its failure outcome replayed (it already
// failed twice — rerunning it would hang the resumed batch on the same
// defect); anything else — including a torn journal or a corrupt snapshot —
// is re-run from scratch. Without --resume an existing checkpoint directory
// is cleared first.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/payload.hpp"
#include "driver/unit.hpp"

namespace psa::driver {

/// Filesystem-safe stable key for a unit: sanitized name plus a 64-bit hash
/// of (name, function, source), so distinct units never collide and an
/// edited source never matches its old checkpoint. The supervisor keys a
/// unit after reading its on-disk source (an unreadable file has no source
/// bytes and keeps the key of its name and function).
[[nodiscard]] std::string unit_key(const AnalysisUnit& unit);

class Checkpoint {
 public:
  /// Open (and create) `dir`. With `resume` the existing journal is replayed
  /// into memory and the snapshots of this batch's units under an older key
  /// (`unit_keys` are the batch's keys: same name, other source) are
  /// removed; otherwise the directory is cleared. Throws
  /// std::runtime_error only when the directory itself cannot be created; a
  /// journal that cannot be written is a degradation (noted in
  /// recovery_notes(), every later record_outcome returns false) — the batch
  /// runs to completion, it just is not resumable from this journal.
  Checkpoint(std::string dir, bool resume,
             const std::vector<std::string>& unit_keys = {});

  /// Journal write, durable (O_APPEND + fsync via support/io). False means
  /// the record is not known durable: the caller counts the degradation and
  /// carries on — on a later --resume the unit re-runs, which is sound.
  [[nodiscard]] bool record_outcome(const std::string& key,
                                    const UnitOutcome& outcome);

  /// Replayed terminal outcome of `key` from a previous run, if any.
  [[nodiscard]] const UnitOutcome* replayed_outcome(
      const std::string& key) const;

  /// Snapshot paths (store_payload writes .tmp, then renames to .snap).
  [[nodiscard]] std::string snapshot_path(const std::string& key) const;
  [[nodiscard]] std::string snapshot_tmp_path(const std::string& key) const;

  /// Durably write the payload bytes of `key` (support::io::atomic_write).
  /// False means the snapshot is not known durable: the caller counts the
  /// degradation and carries on — on a later --resume the unit re-runs.
  [[nodiscard]] bool store_payload(const std::string& key,
                                   std::string_view bytes) const;

  /// Load + validate the snapshot of `key`, the key of `unit`. Returns
  /// nullopt (with the diagnostic in `error`) when missing, corrupt, or the
  /// result of another unit or function — the caller re-runs the unit;
  /// corruption never aborts a batch.
  [[nodiscard]] std::optional<UnitPayload> load_payload(
      const std::string& key, const AnalysisUnit& unit,
      std::string* error) const;

  /// Diagnostics produced while opening the directory: on --resume, a stray
  /// .snap.tmp left by a supervisor killed mid-write is deleted (its rename
  /// never happened, so it was never a result) and noted here, and so is a
  /// superseded snapshot (no later resume could read it). The supervisor
  /// forwards these to the batch log.
  [[nodiscard]] const std::vector<std::string>& recovery_notes()
      const noexcept {
    return recovery_notes_;
  }

 private:
  /// One durable journal append (adds the newline). Counts the degradation
  /// on failure and reports it; never throws.
  [[nodiscard]] bool append_record(const std::string& line);

  std::string dir_;
  std::string journal_path_;
  std::map<std::string, UnitOutcome> replayed_;
  std::vector<std::string> recovery_notes_;
};

}  // namespace psa::driver
