// Checkpoint journal + snapshot store: replay semantics (last outcome wins,
// torn lines skipped), fresh-run clearing, and the validation of
// load_payload (missing, garbage or another unit's snapshot -> clean
// diagnostic, never UB).
#include "driver/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace psa::driver {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("psa-ckpt-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

AnalysisUnit unit(std::string name, std::string function = "main") {
  AnalysisUnit u;
  u.name = std::move(name);
  u.function = std::move(function);
  return u;
}

TEST_F(CheckpointTest, UnitKeysAreSanitizedAndDistinct) {
  const std::string key = unit_key(unit("dir/prog.c"));
  for (const char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '.';
    EXPECT_TRUE(safe) << "unsafe char '" << c << "' in key " << key;
  }
  EXPECT_NE(unit_key(unit("a")), unit_key(unit("b")));
  EXPECT_NE(unit_key(unit("a", "f")), unit_key(unit("a", "g")));
  EXPECT_EQ(unit_key(unit("a", "f")), unit_key(unit("a", "f")));  // stable
}

TEST_F(CheckpointTest, OutcomeRoundTripsThroughResume) {
  const std::string key = unit_key(unit("prog"));
  {
    Checkpoint ckpt(dir_, /*resume=*/false);
    UnitOutcome outcome;
    outcome.kind = UnitOutcomeKind::kCrash;
    outcome.signal = 6;
    outcome.attempts = 2;
    outcome.quarantined = true;
    outcome.detail = "two\nlines";
    (void)ckpt.record_outcome(key, outcome);
  }
  Checkpoint resumed(dir_, /*resume=*/true);
  const UnitOutcome* replayed = resumed.replayed_outcome(key);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->kind, UnitOutcomeKind::kCrash);
  EXPECT_EQ(replayed->signal, 6);
  EXPECT_EQ(replayed->attempts, 2);
  EXPECT_TRUE(replayed->quarantined);
  EXPECT_EQ(replayed->detail, "two\nlines");
}

TEST_F(CheckpointTest, LastOutcomePerKeyWins) {
  const std::string key = unit_key(unit("prog"));
  {
    Checkpoint ckpt(dir_, false);
    UnitOutcome first;
    first.kind = UnitOutcomeKind::kTimeout;
    (void)ckpt.record_outcome(key, first);
    UnitOutcome second;
    second.kind = UnitOutcomeKind::kOk;
    second.attempts = 2;
    (void)ckpt.record_outcome(key, second);
  }
  Checkpoint resumed(dir_, true);
  const UnitOutcome* replayed = resumed.replayed_outcome(key);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->kind, UnitOutcomeKind::kOk);
  EXPECT_EQ(replayed->attempts, 2);
}

TEST_F(CheckpointTest, TornFinalLineIsSkipped) {
  const std::string key = unit_key(unit("prog"));
  {
    Checkpoint ckpt(dir_, false);
    UnitOutcome outcome;
    outcome.kind = UnitOutcomeKind::kOk;
    (void)ckpt.record_outcome(key, outcome);
  }
  {
    // Simulate a SIGKILL mid-write: a half-written outcome line.
    std::ofstream journal((fs::path(dir_) / "journal.psaj").string(),
                          std::ios::app);
    journal << "outcome " << key << " cra";  // no newline, torn fields
  }
  Checkpoint resumed(dir_, true);
  const UnitOutcome* replayed = resumed.replayed_outcome(key);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->kind, UnitOutcomeKind::kOk);  // torn line ignored
}

TEST_F(CheckpointTest, TornFirstLineIsSkipped) {
  // A supervisor SIGKILLed while writing the very FIRST journal line (even
  // the header can be torn): resume must treat the journal as empty, not
  // crash or misparse.
  fs::create_directories(dir_);
  {
    std::ofstream journal((fs::path(dir_) / "journal.psaj").string(),
                          std::ios::binary);
    journal << "psa-jour";  // torn header, no newline
  }
  Checkpoint resumed(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.replayed_outcome(unit_key(unit("prog"))), nullptr);
  // The checkpoint stays usable: new records append and replay next time.
  UnitOutcome outcome;
  outcome.kind = UnitOutcomeKind::kOk;
  (void)resumed.record_outcome(unit_key(unit("prog")), outcome);
  Checkpoint again(dir_, /*resume=*/true);
  ASSERT_NE(again.replayed_outcome(unit_key(unit("prog"))), nullptr);
}

TEST_F(CheckpointTest, ZeroByteJournalIsRecovered) {
  // Crash between open and the first header write: a zero-byte journal.
  fs::create_directories(dir_);
  { std::ofstream journal((fs::path(dir_) / "journal.psaj").string()); }
  ASSERT_EQ(fs::file_size(fs::path(dir_) / "journal.psaj"), 0u);
  Checkpoint resumed(dir_, /*resume=*/true);
  EXPECT_EQ(resumed.replayed_outcome(unit_key(unit("prog"))), nullptr);
  // The constructor re-seeds the header into the empty file.
  EXPECT_GT(fs::file_size(fs::path(dir_) / "journal.psaj"), 0u);
}

TEST_F(CheckpointTest, ResumeSweepsStrayInFlightSnapshot) {
  // A worker killed mid-write leaves <key>.snap.tmp; its rename never
  // happened, so the bytes were never a result. Resume must delete it (with
  // a diagnostic) rather than trip over it.
  const std::string key = unit_key(unit("prog"));
  std::string tmp_path;
  {
    Checkpoint ckpt(dir_, /*resume=*/false);
    UnitOutcome outcome;
    outcome.kind = UnitOutcomeKind::kOk;
    (void)ckpt.record_outcome(key, outcome);
    tmp_path = ckpt.snapshot_tmp_path(key);
    std::ofstream tmp(tmp_path, std::ios::binary);
    tmp << "half-writ";
  }
  ASSERT_TRUE(fs::exists(tmp_path));
  Checkpoint resumed(dir_, /*resume=*/true);
  EXPECT_FALSE(fs::exists(tmp_path));
  ASSERT_EQ(resumed.recovery_notes().size(), 1u);
  EXPECT_NE(resumed.recovery_notes()[0].find(".snap.tmp"), std::string::npos);
  // The journal replay itself is unaffected by the sweep.
  ASSERT_NE(resumed.replayed_outcome(key), nullptr);
  EXPECT_EQ(resumed.replayed_outcome(key)->kind, UnitOutcomeKind::kOk);
}

TEST_F(CheckpointTest, FreshRunDoesNotReportRecoveryNotes) {
  fs::create_directories(dir_);
  {
    std::ofstream tmp((fs::path(dir_) / "stale.snap.tmp").string());
    tmp << "half";
  }
  Checkpoint fresh(dir_, /*resume=*/false);  // clearing is not "recovery"
  EXPECT_TRUE(fresh.recovery_notes().empty());
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "stale.snap.tmp"));
}

TEST_F(CheckpointTest, UnknownAndGarbageLinesAreSkipped) {
  {
    Checkpoint ckpt(dir_, false);
  }
  {
    std::ofstream journal((fs::path(dir_) / "journal.psaj").string(),
                          std::ios::app);
    journal << "garbage line\n";
    journal << "outcome key-with-no-fields\n";
    journal << "outcome key unknown-kind 0 0 1 0 \n";
  }
  Checkpoint resumed(dir_, true);
  EXPECT_EQ(resumed.replayed_outcome("key"), nullptr);
  EXPECT_EQ(resumed.replayed_outcome("key-with-no-fields"), nullptr);
}

TEST_F(CheckpointTest, OlderJournalsWithAttemptRecordsStillReplay) {
  // Journals written before attempt records were dropped interleave
  // `attempt <key> <n>` lines with the outcomes; replay skips them like any
  // unknown line and still finds the last outcome per key.
  fs::create_directories(dir_);
  {
    std::ofstream journal((fs::path(dir_) / "journal.psaj").string(),
                          std::ios::binary);
    journal << "psa-journal v1\n"
            << "attempt prog-def7d61a 1\n"
            << "outcome prog-def7d61a crash 0 11 1 0 \n"
            << "attempt prog-def7d61a 2\n"
            << "outcome prog-def7d61a ok 0 0 2 0 \n"
            << "attempt other-0badf00d 1\n";
  }
  Checkpoint resumed(dir_, /*resume=*/true);
  const UnitOutcome* replayed = resumed.replayed_outcome("prog-def7d61a");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->kind, UnitOutcomeKind::kOk);
  EXPECT_EQ(replayed->attempts, 2);
  EXPECT_EQ(resumed.replayed_outcome("other-0badf00d"), nullptr);
}

TEST_F(CheckpointTest, UnitKeysCoverTheSourceBytes) {
  AnalysisUnit original = unit("a.c");
  original.source = "void main() { }\n";
  AnalysisUnit edited = original;
  edited.source += "\n";
  EXPECT_NE(unit_key(original), unit_key(edited));
  // A unit without source bytes (its file could not be read) keeps a key of
  // its own.
  EXPECT_NE(unit_key(unit("a.c")), unit_key(original));
}

TEST_F(CheckpointTest, FreshRunClearsStaleJournalAndSnapshots) {
  const std::string key = unit_key(unit("prog"));
  {
    Checkpoint ckpt(dir_, false);
    UnitOutcome outcome;
    outcome.kind = UnitOutcomeKind::kOk;
    (void)ckpt.record_outcome(key, outcome);
    std::ofstream snap(ckpt.snapshot_path(key), std::ios::binary);
    snap << "stale";
  }
  Checkpoint fresh(dir_, /*resume=*/false);
  EXPECT_EQ(fresh.replayed_outcome(key), nullptr);
  EXPECT_FALSE(fs::exists(fresh.snapshot_path(key)));
}

TEST_F(CheckpointTest, LoadPayloadReportsMissingSnapshot) {
  Checkpoint ckpt(dir_, false);
  std::string error;
  EXPECT_FALSE(ckpt.load_payload("nope", unit("nope"), &error).has_value());
  EXPECT_NE(error.find("missing"), std::string::npos);
}

TEST_F(CheckpointTest, LoadPayloadRejectsGarbageSnapshotCleanly) {
  const std::string key = unit_key(unit("prog"));
  Checkpoint ckpt(dir_, false);
  {
    std::ofstream snap(ckpt.snapshot_path(key), std::ios::binary);
    snap << std::string(256, '\xfe');
  }
  std::string error;
  EXPECT_FALSE(ckpt.load_payload(key, unit("prog"), &error).has_value());
  EXPECT_NE(error.find("snapshot"), std::string::npos);
}

TEST_F(CheckpointTest, LoadPayloadRoundTripsARealPayload) {
  const std::string key = unit_key(unit("prog"));
  Checkpoint ckpt(dir_, false);

  UnitPayload payload;
  payload.unit_name = "prog";
  payload.function = "main";
  payload.frontend_ok = false;
  payload.frontend_error = "1:1: error: made up";
  const support::Interner interner;
  {
    std::ofstream snap(ckpt.snapshot_path(key), std::ios::binary);
    const std::string bytes = serialize_unit_payload(payload, interner);
    snap.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string error;
  const auto loaded = ckpt.load_payload(key, unit("prog"), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->unit_name, "prog");
  EXPECT_FALSE(loaded->frontend_ok);
  EXPECT_EQ(loaded->frontend_error, "1:1: error: made up");
}

TEST_F(CheckpointTest, LoadPayloadRejectsAnotherUnitsSnapshot) {
  // A snapshot that validates but names another unit or function is not
  // this unit's result, whatever key it sits under.
  const std::string key = unit_key(unit("prog"));
  Checkpoint ckpt(dir_, false);
  UnitPayload payload;
  payload.unit_name = "other";
  payload.function = "main";
  payload.frontend_ok = false;
  const support::Interner interner;
  {
    std::ofstream snap(ckpt.snapshot_path(key), std::ios::binary);
    snap << serialize_unit_payload(payload, interner);
  }

  std::string error;
  EXPECT_FALSE(ckpt.load_payload(key, unit("prog"), &error).has_value());
  EXPECT_NE(error.find("snapshot of other (main)"), std::string::npos)
      << error;
  EXPECT_FALSE(
      ckpt.load_payload(key, unit("other", "helper"), &error).has_value());
  ASSERT_TRUE(ckpt.load_payload(key, unit("other"), &error).has_value())
      << error;
}

// ---------------------------------------------------------------------------
// Durable-I/O faults (PSA_IO_FAULT, docs/RESILIENCE.md "The I/O fault
// space"): a journal on a failing device degrades — records report failure,
// the batch runs on, and the checkpoint stays resumable (an unrecorded unit
// simply re-runs).

TEST_F(CheckpointTest, UnwritableJournalDegradesAndStaysResumable) {
  const std::string key = unit_key(unit("prog"));
  ::setenv("PSA_IO_FAULT", "@journal.psaj:enospc", 1);
  {
    Checkpoint ckpt(dir_, /*resume=*/false);
    // The header append already failed: the degradation is announced up
    // front instead of throwing.
    bool noted = false;
    for (const std::string& note : ckpt.recovery_notes()) {
      noted = noted || note.find("not be resumable") != std::string::npos;
    }
    EXPECT_TRUE(noted);
    // Every record honestly reports it is not durable; nothing throws.
    UnitOutcome outcome;
    EXPECT_FALSE(ckpt.record_outcome(key, outcome));
  }
  ::unsetenv("PSA_IO_FAULT");

  // Resume against the never-written journal: sound — no outcome replayed,
  // so the unit re-runs; and with the device healthy the journal works.
  {
    Checkpoint resumed(dir_, /*resume=*/true);
    EXPECT_EQ(resumed.replayed_outcome(key), nullptr);
    UnitOutcome outcome;
    outcome.kind = UnitOutcomeKind::kOk;
    EXPECT_TRUE(resumed.record_outcome(key, outcome));
  }
  Checkpoint replay(dir_, /*resume=*/true);
  const UnitOutcome* replayed = replay.replayed_outcome(key);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->kind, UnitOutcomeKind::kOk);
}

TEST_F(CheckpointTest, TransientJournalFaultLosesOneRecordNotTheJournal) {
  const std::string key_a = unit_key(unit("a"));
  const std::string key_b = unit_key(unit("b"));
  const std::string key_c = unit_key(unit("c"));
  Checkpoint ckpt(dir_, /*resume=*/false);
  UnitOutcome outcome;
  outcome.kind = UnitOutcomeKind::kOk;
  ASSERT_TRUE(ckpt.record_outcome(key_a, outcome));

  // One ENOSPC hits exactly the next journal append; the write after it
  // succeeds. The lost record means that unit re-runs on resume — the
  // records around it must be untouched.
  ::setenv("PSA_IO_FAULT", "@journal.psaj:enospc", 1);
  EXPECT_FALSE(ckpt.record_outcome(key_b, outcome));
  ::unsetenv("PSA_IO_FAULT");
  ASSERT_TRUE(ckpt.record_outcome(key_c, outcome));

  Checkpoint resumed(dir_, /*resume=*/true);
  ASSERT_NE(resumed.replayed_outcome(key_a), nullptr);  // neighbors intact
  EXPECT_EQ(resumed.replayed_outcome(key_b), nullptr);  // lost => re-run
  ASSERT_NE(resumed.replayed_outcome(key_c), nullptr);
}

}  // namespace
}  // namespace psa::driver
