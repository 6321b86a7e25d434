// The crash-isolated batch supervisor, exercised at the library level:
// outcome classification, retry-then-quarantine, watchdog, checkpoint
// resume, report determinism, and the fault-injection proof over real
// corpus units. The psa_cli end of the same machinery (exit codes,
// SIGKILL-resume) lives in cli_integration_test.cpp.
#include "driver/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/checkpoint.hpp"
#include "support/metrics.hpp"

namespace psa::driver {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kOkSource =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  struct node *q;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  q = p;\n"
    "  p->next = NULL;\n"
    "}\n";

AnalysisUnit inline_unit(std::string name,
                         std::string_view source = kOkSource) {
  AnalysisUnit u;
  u.name = std::move(name);
  u.source = std::string(source);
  return u;
}

BatchOptions quiet_options() {
  BatchOptions options;
  options.isolate = false;
  return options;
}

/// Everything a payload carries, field by field: the exit state, gauges,
/// findings, status, degradation report, salvage summary and deterministic
/// counters. A loaded payload holds no other statement's state, so there is
/// nothing else to compare.
void expect_same_payload(const UnitPayload& a, const UnitPayload& b) {
  SCOPED_TRACE(a.unit_name);
  EXPECT_EQ(a.unit_name, b.unit_name);
  EXPECT_EQ(a.function, b.function);
  ASSERT_EQ(a.frontend_ok, b.frontend_ok);
  EXPECT_EQ(a.frontend_error, b.frontend_error);
  EXPECT_EQ(a.exit_node, b.exit_node);
  ASSERT_EQ(a.result.per_node.size(), b.result.per_node.size());
  if (a.frontend_ok) {
    const analysis::Rsrsg& exit_a = a.result.per_node[a.exit_node];
    const analysis::Rsrsg& exit_b = b.result.per_node[b.exit_node];
    EXPECT_GT(exit_a.size(), 0u);
    // Equal exit states intern the same spelling table in the same order,
    // so their keys compare; the bytes also compare the spellings.
    EXPECT_TRUE(exit_a.equals(exit_b));
    EXPECT_EQ(analysis::serialize_rsrsg(exit_a, *a.interner),
              analysis::serialize_rsrsg(exit_b, *b.interner));
  }

  EXPECT_EQ(a.result.status, b.result.status);
  const analysis::DegradationReport& da = a.result.degradation;
  const analysis::DegradationReport& db = b.result.degradation;
  EXPECT_EQ(da.rung_applications, db.rung_applications);
  EXPECT_EQ(da.deadline_drain, db.deadline_drain);
  EXPECT_EQ(da.memory_budget_unreachable, db.memory_budget_unreachable);
  EXPECT_EQ(da.floor, db.floor);
  ASSERT_EQ(da.events.size(), db.events.size());
  for (std::size_t i = 0; i < da.events.size(); ++i) {
    EXPECT_EQ(da.events[i].node, db.events[i].node);
    EXPECT_EQ(da.events[i].rung, db.events[i].rung);
    EXPECT_EQ(da.events[i].trigger, db.events[i].trigger);
    EXPECT_EQ(da.events[i].graphs_before, db.events[i].graphs_before);
    EXPECT_EQ(da.events[i].graphs_after, db.events[i].graphs_after);
  }

  EXPECT_EQ(a.gauges.live_rsgs, b.gauges.live_rsgs);
  EXPECT_EQ(a.gauges.total_nodes, b.gauges.total_nodes);
  EXPECT_EQ(a.gauges.max_rsgs_per_stmt, b.gauges.max_rsgs_per_stmt);
  EXPECT_EQ(a.gauges.max_nodes_per_rsg, b.gauges.max_nodes_per_rsg);
  EXPECT_EQ(a.gauges.shared_nodes, b.gauges.shared_nodes);
  EXPECT_EQ(a.gauges.cyclelink_nodes, b.gauges.cyclelink_nodes);

  EXPECT_EQ(a.skipped_decls, b.skipped_decls);
  EXPECT_EQ(a.havoc_sites, b.havoc_sites);
  EXPECT_EQ(a.unsupported_count, b.unsupported_count);
  EXPECT_EQ(a.functions_analyzable, b.functions_analyzable);
  EXPECT_EQ(a.functions_total, b.functions_total);
  EXPECT_EQ(a.salvage_diagnostics, b.salvage_diagnostics);

  EXPECT_EQ(a.checked, b.checked);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const checker::Finding& fa = a.findings[i];
    const checker::Finding& fb = b.findings[i];
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.severity, fb.severity);
    EXPECT_EQ(fa.site, fb.site);
    EXPECT_EQ(fa.loc, fb.loc);
    EXPECT_EQ(fa.stmt, fb.stmt);
    EXPECT_EQ(fa.message, fb.message);
    EXPECT_EQ(fa.witness_node, fb.witness_node);
    EXPECT_EQ(fa.graphs_bad, fb.graphs_bad);
    EXPECT_EQ(fa.graphs_total, fb.graphs_total);
    EXPECT_EQ(fa.degraded, fb.degraded);
    ASSERT_EQ(fa.trace.size(), fb.trace.size());
    for (std::size_t t = 0; t < fa.trace.size(); ++t) {
      EXPECT_EQ(fa.trace[t].loc, fb.trace[t].loc);
      EXPECT_EQ(fa.trace[t].text, fb.trace[t].text);
    }
  }

  for (std::size_t i = 0; i < support::kCounterCount; ++i) {
    const auto c = static_cast<support::Counter>(i);
    if (support::is_timer(c)) continue;
    EXPECT_EQ(a.metrics[c], b.metrics[c]) << support::counter_name(c);
    EXPECT_EQ(a.result.ops[c], b.result.ops[c]) << support::counter_name(c);
  }
}

/// Sets an environment variable (PSA_FAULT_AT, PSA_IO_TRACE, TMPDIR, ...)
/// for one scope and restores its previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(SteppedDownTest, HalvesBudgetsWithFloors) {
  analysis::Options options;
  options.widen_threshold = 48;
  options.max_node_visits = 2'000'000;
  options.max_rsgs_per_set = 4096;
  options.deadline_ms = 10'000;
  const analysis::Options down = stepped_down(options);
  EXPECT_LT(down.widen_threshold, options.widen_threshold);
  EXPECT_LT(down.max_node_visits, options.max_node_visits);
  EXPECT_LT(down.max_rsgs_per_set, options.max_rsgs_per_set);
  EXPECT_LT(down.deadline_ms, options.deadline_ms);

  // Repeated stepping never reaches useless budgets.
  analysis::Options floor = options;
  for (int i = 0; i < 20; ++i) floor = stepped_down(floor);
  EXPECT_GE(floor.widen_threshold, 8u);
  EXPECT_GE(floor.max_node_visits, 50'000u);
  EXPECT_GE(floor.max_rsgs_per_set, 33u);
}

TEST(SteppedDownTest, DisabledWideningGetsEnabled) {
  // widen_threshold 0 means "never widen" — the step-down must arm it, or
  // the retry would blow up exactly like the first attempt.
  analysis::Options options;
  options.widen_threshold = 0;
  EXPECT_GT(stepped_down(options).widen_threshold, 0u);
}

TEST(InProcessBatch, AnalyzesUnitsAndReportsOk) {
  const std::vector<AnalysisUnit> units = {inline_unit("a"), inline_unit("b")};
  const BatchResult result = run_batch(units, quiet_options());
  ASSERT_EQ(result.units.size(), 2u);
  EXPECT_FALSE(result.isolated);
  for (const UnitReport& u : result.units) {
    EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kOk);
    EXPECT_EQ(u.outcome.attempts, 1);
    ASSERT_TRUE(u.payload.has_value());
    EXPECT_GT(u.payload->exit_graphs(), 0u);
  }
  EXPECT_EQ(batch_exit_code(result), kExitOk);
}

TEST(InProcessBatch, FrontendErrorIsIsolatedAndNeverRetried) {
  const std::vector<AnalysisUnit> units = {
      inline_unit("good"), inline_unit("bad", "void main() { syntax error")};
  const BatchResult result = run_batch(units, quiet_options());
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kOk);
  EXPECT_EQ(result.units[1].outcome.kind, UnitOutcomeKind::kFrontendError);
  EXPECT_EQ(result.units[1].outcome.attempts, 1);  // deterministic: no retry
  EXPECT_FALSE(result.units[1].outcome.quarantined);
  EXPECT_FALSE(result.units[1].outcome.detail.empty());
  EXPECT_EQ(batch_exit_code(result), kExitSomeUnitsFailed);
}

TEST(InProcessBatch, MissingFileIsAFrontendError) {
  AnalysisUnit missing;
  missing.name = "missing";
  missing.source_path = "/nonexistent/psa/file.c";
  const BatchResult result = run_batch({missing}, quiet_options());
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kFrontendError);
  EXPECT_EQ(batch_exit_code(result), kExitAllUnitsFailed);
}

TEST(InProcessBatch, ThrowingRunnerIsRetriedThenQuarantined) {
  int calls = 0;
  const UnitRunner runner = [&](const AnalysisUnit&,
                                const analysis::Options&) -> std::string {
    ++calls;
    throw std::runtime_error("synthetic analyzer defect");
  };
  const BatchResult result =
      run_batch({inline_unit("doomed")}, quiet_options(), runner);
  EXPECT_EQ(calls, 2);  // one retry at stepped-down budget
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kExit);
  EXPECT_EQ(result.units[0].outcome.attempts, 2);
  EXPECT_TRUE(result.units[0].outcome.quarantined);
  EXPECT_NE(result.units[0].outcome.detail.find("synthetic"),
            std::string::npos);
}

TEST(InProcessBatch, RetrySucceedsAtSteppedDownBudget) {
  // Fails only at the first-attempt budget; the stepped-down retry works.
  const analysis::Options defaults;
  const UnitRunner runner = [&](const AnalysisUnit& unit,
                                const analysis::Options& engine) {
    if (engine.widen_threshold == defaults.widen_threshold) {
      throw std::runtime_error("first attempt fails");
    }
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult result =
      run_batch({inline_unit("flaky")}, quiet_options(), runner);
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kOk);
  EXPECT_EQ(result.units[0].outcome.attempts, 2);
  EXPECT_FALSE(result.units[0].outcome.quarantined);
  ASSERT_TRUE(result.units[0].payload.has_value());
}

TEST(InProcessBatch, BadAllocClassifiesAsOom) {
  const UnitRunner runner = [](const AnalysisUnit&,
                               const analysis::Options&) -> std::string {
    throw std::bad_alloc();
  };
  const BatchResult result =
      run_batch({inline_unit("hungry")}, quiet_options(), runner);
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kOom);
  EXPECT_TRUE(result.units[0].outcome.quarantined);
}

TEST(InProcessBatch, FaultEnvIsIgnoredOutsideWorkers) {
  // The PSA_FAULT_AT hook is worker-only by contract: the in-process path
  // must analyze normally even with a fault armed for its unit.
  const ScopedEnv env("PSA_FAULT_AT", "safe:crash");
  const BatchResult result =
      run_batch({inline_unit("safe")}, quiet_options());
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kOk);
}

TEST(BatchExitCodeTest, DistinguishesAllOutcomes) {
  const auto make = [](std::vector<UnitOutcomeKind> kinds,
                       std::size_t findings_on_first) {
    BatchResult r;
    for (const auto kind : kinds) {
      UnitReport u;
      u.outcome.kind = kind;
      if (kind == UnitOutcomeKind::kOk) {
        u.payload.emplace();
        u.payload->frontend_ok = true;
        u.payload->result.per_node.resize(1);
        if (findings_on_first > 0 && r.units.empty()) {
          u.payload->findings.resize(findings_on_first);
        }
      }
      r.units.push_back(std::move(u));
    }
    return r;
  };
  using K = UnitOutcomeKind;
  EXPECT_EQ(batch_exit_code(make({K::kOk, K::kOk}, 0)), kExitOk);
  EXPECT_EQ(batch_exit_code(make({K::kOk, K::kOk}, 2)), kExitFindings);
  EXPECT_EQ(batch_exit_code(make({K::kOk, K::kCrash}, 0)),
            kExitSomeUnitsFailed);
  // Failures dominate findings: a partial batch is not a clean "1".
  EXPECT_EQ(batch_exit_code(make({K::kOk, K::kTimeout}, 2)),
            kExitSomeUnitsFailed);
  EXPECT_EQ(batch_exit_code(make({K::kCrash, K::kOom}, 0)),
            kExitAllUnitsFailed);
}

TEST(BatchReportTest, DeterministicAcrossRuns) {
  const std::vector<AnalysisUnit> units = {inline_unit("a"), inline_unit("b")};
  BatchOptions options = quiet_options();
  options.check = true;
  const std::string r1 = format_batch_report(run_batch(units, options));
  const std::string r2 = format_batch_report(run_batch(units, options));
  EXPECT_EQ(r1, r2);  // no timing fields, no ordering jitter
  EXPECT_NE(r1.find("a: ok"), std::string::npos);
}

TEST(DescribeTest, RendersKindAndCause) {
  UnitOutcome crash;
  crash.kind = UnitOutcomeKind::kCrash;
  crash.signal = 6;
  EXPECT_EQ(describe(crash), "crash (signal 6)");
  UnitOutcome exit_outcome;
  exit_outcome.kind = UnitOutcomeKind::kExit;
  exit_outcome.exit_code = 78;
  EXPECT_EQ(describe(exit_outcome), "exit (code 78)");
  EXPECT_EQ(describe(UnitOutcome{}), "ok");
}

TEST(CorpusUnitsTest, ExposesTheWholeCleanCorpus) {
  const std::vector<AnalysisUnit> units = corpus_units();
  EXPECT_GE(units.size(), 10u);
  for (const AnalysisUnit& u : units) {
    EXPECT_FALSE(u.name.empty());
    EXPECT_FALSE(u.source.empty());
    EXPECT_EQ(u.function, "main");
  }
}

class CheckpointedBatch : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("psa-batch-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CheckpointedBatch, ResumeServesFinishedUnitsFromDisk) {
  const std::vector<AnalysisUnit> units = {inline_unit("a"), inline_unit("b")};
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;

  const BatchResult first = run_batch(units, options);
  ASSERT_EQ(batch_exit_code(first), kExitOk);

  // Resume with a runner that must never be called: everything is served
  // from the checkpoint.
  options.resume = true;
  int calls = 0;
  const UnitRunner tripwire = [&](const AnalysisUnit& unit,
                                  const analysis::Options& engine) {
    ++calls;
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult resumed = run_batch(units, options, tripwire);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(resumed.from_checkpoint_count(), 2u);
  for (const UnitReport& u : resumed.units) {
    EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kOk);
    EXPECT_TRUE(u.outcome.from_checkpoint);
    ASSERT_TRUE(u.payload.has_value());
  }
  // The deterministic report ignores provenance-independent fields only;
  // the from-checkpoint marker is intentionally visible, so compare the
  // payload-derived facts instead.
  ASSERT_EQ(first.units.size(), resumed.units.size());
  for (std::size_t i = 0; i < first.units.size(); ++i) {
    EXPECT_EQ(first.units[i].payload->exit_graphs(),
              resumed.units[i].payload->exit_graphs());
    EXPECT_EQ(first.units[i].payload->exit_nodes(),
              resumed.units[i].payload->exit_nodes());
  }
}

TEST_F(CheckpointedBatch, ResumeReRunsUnfinishedUnits) {
  const std::vector<AnalysisUnit> units = {inline_unit("done"),
                                           inline_unit("pending")};
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;
  (void)run_batch({units[0]}, options);  // only "done" completes

  options.resume = true;
  std::vector<std::string> ran;
  const UnitRunner recorder = [&](const AnalysisUnit& unit,
                                  const analysis::Options& engine) {
    ran.push_back(unit.name);
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult resumed = run_batch(units, options, recorder);
  EXPECT_EQ(ran, std::vector<std::string>{"pending"});
  EXPECT_EQ(resumed.units[0].outcome.from_checkpoint, true);
  EXPECT_EQ(resumed.units[1].outcome.from_checkpoint, false);
  EXPECT_EQ(batch_exit_code(resumed), kExitOk);
}

TEST_F(CheckpointedBatch, ResumeReRunsAUnitWhoseSourceWasEdited) {
  // A checkpointed file edited before --resume is a new unit: its key covers
  // the source bytes, so the resume re-runs it and reports what a fresh run
  // reports instead of serving the old result.
  const std::string path = dir_ + "-a.c";
  const auto write_source = [&](std::string_view body) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "struct node { struct node *nxt; };\n"
           "void main() {\n"
           "  struct node *p;\n"
           "  p = malloc(sizeof(struct node));\n"
        << body << "  p->nxt = NULL;\n}\n";
  };
  AnalysisUnit unit;
  unit.name = "a.c";
  unit.source_path = path;
  BatchOptions options = quiet_options();
  options.check = true;
  options.checkpoint_dir = dir_;
  write_source("");
  const BatchResult first = run_batch({unit}, options);
  ASSERT_EQ(first.units[0].outcome.kind, UnitOutcomeKind::kOk);

  write_source("  free(p);\n");
  options.resume = true;
  const BatchResult resumed = run_batch({unit}, options);
  EXPECT_FALSE(resumed.units[0].outcome.from_checkpoint);

  BatchOptions fresh_options = quiet_options();
  fresh_options.check = true;
  const BatchResult fresh = run_batch({unit}, fresh_options);
  fs::remove(path);
  ASSERT_TRUE(fresh.units[0].payload.has_value());
  EXPECT_EQ(checker::count_findings(fresh.units[0].payload->findings,
                                    checker::CheckKind::kUseAfterFree),
            1u);
  EXPECT_EQ(format_batch_report(resumed), format_batch_report(fresh));
}

TEST_F(CheckpointedBatch, ResumeRemovesTheSnapshotAnEditKeyedOut) {
  // The snapshot of a unit's old source can never be served again: the
  // resume that re-runs the edited unit leaves only the new key's snapshot
  // of it. Another unit's snapshot stays.
  const std::string path = dir_ + "-a.c";
  std::string source;
  const auto write_source = [&](std::string_view body) {
    source = std::string("struct node { struct node *nxt; };\n"
                         "void main() {\n"
                         "  struct node *p;\n"
                         "  p = malloc(sizeof(struct node));\n") +
             std::string(body) + "  p->nxt = NULL;\n}\n";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << source;
  };
  AnalysisUnit unit;
  unit.name = "a.c";
  unit.source_path = path;
  const AnalysisUnit other = inline_unit("b");
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;
  write_source("");
  (void)run_batch({unit, other}, options);

  write_source("  free(p);\n");
  options.resume = true;
  const BatchResult resumed = run_batch({unit, other}, options);
  fs::remove(path);
  EXPECT_FALSE(resumed.units[0].outcome.from_checkpoint);
  EXPECT_TRUE(resumed.units[1].outcome.from_checkpoint);

  AnalysisUnit edited = unit;
  edited.source = source;
  std::vector<std::string> snapshots;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".snap")) snapshots.push_back(name);
  }
  std::sort(snapshots.begin(), snapshots.end());
  EXPECT_EQ(snapshots, (std::vector<std::string>{unit_key(edited) + ".snap",
                                                 unit_key(other) + ".snap"}));
}

TEST_F(CheckpointedBatch, ResumeReplaysQuarantinedOutcomeWithoutReRunning) {
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;
  const UnitRunner doomed = [](const AnalysisUnit&,
                               const analysis::Options&) -> std::string {
    throw std::runtime_error("always fails");
  };
  const BatchResult first = run_batch({inline_unit("u")}, options, doomed);
  ASSERT_TRUE(first.units[0].outcome.quarantined);

  options.resume = true;
  int calls = 0;
  const UnitRunner tripwire = [&](const AnalysisUnit& unit,
                                  const analysis::Options& engine) {
    ++calls;
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult resumed = run_batch({inline_unit("u")}, options, tripwire);
  EXPECT_EQ(calls, 0);  // it already failed twice; do not hang resume on it
  EXPECT_EQ(resumed.units[0].outcome.kind, UnitOutcomeKind::kExit);
  EXPECT_TRUE(resumed.units[0].outcome.quarantined);
  EXPECT_TRUE(resumed.units[0].outcome.from_checkpoint);
}

TEST_F(CheckpointedBatch, ResumeReRunsAUnitServedAnotherUnitsSnapshot) {
  // b's snapshot copied over a's passes its checksum but names b: the
  // resume must re-run a, not report b's result under a's name.
  constexpr std::string_view kTwoNodes =
      "struct node { struct node *next; int v; };\n"
      "void main() {\n"
      "  struct node *p;\n"
      "  struct node *q;\n"
      "  p = malloc(sizeof(struct node));\n"
      "  q = malloc(sizeof(struct node));\n"
      "  p->next = q;\n"
      "  q->next = NULL;\n"
      "}\n";
  const std::vector<AnalysisUnit> units = {inline_unit("a"),
                                           inline_unit("b", kTwoNodes)};
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;
  const std::string reference = format_batch_report(run_batch(units, options));

  const Checkpoint paths(dir_, true);
  fs::copy_file(paths.snapshot_path(unit_key(units[1])),
                paths.snapshot_path(unit_key(units[0])),
                fs::copy_options::overwrite_existing);

  options.resume = true;
  std::vector<std::string> log;
  options.log = [&](const std::string& line) { log.push_back(line); };
  std::vector<std::string> ran;
  const UnitRunner recorder = [&](const AnalysisUnit& unit,
                                  const analysis::Options& engine) {
    ran.push_back(unit.name);
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult resumed = run_batch(units, options, recorder);
  EXPECT_EQ(ran, std::vector<std::string>{"a"});
  EXPECT_FALSE(resumed.units[0].outcome.from_checkpoint);
  EXPECT_TRUE(resumed.units[1].outcome.from_checkpoint);
  EXPECT_NE(std::find_if(log.begin(), log.end(),
                         [](const std::string& line) {
                           return line.starts_with(
                               "re-run a (checkpoint invalid: snapshot of b");
                         }),
            log.end());

  const auto line_of = [](const std::string& report, std::string_view name) {
    const std::string prefix = "  " + std::string(name) + ": ";
    const std::size_t at = report.find(prefix);
    return at == std::string::npos
               ? std::string()
               : report.substr(at, report.find('\n', at) - at);
  };
  // The two results differ, so serving b's would show in a's line.
  ASSERT_FALSE(line_of(reference, "a").empty());
  ASSERT_FALSE(line_of(reference, "b").empty());
  EXPECT_NE(line_of(reference, "a").substr(5),
            line_of(reference, "b").substr(5));
  EXPECT_EQ(line_of(format_batch_report(resumed), "a"),
            line_of(reference, "a"));
}

TEST_F(CheckpointedBatch, CorruptSnapshotForcesCleanReRun) {
  const std::vector<AnalysisUnit> units = {inline_unit("u")};
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;
  (void)run_batch(units, options);

  // Flip bytes in the completed snapshot; resume must detect the corruption
  // and re-run the unit instead of serving garbage (or crashing).
  const std::string snap =
      Checkpoint(dir_, true).snapshot_path(unit_key(units[0]));
  {
    std::fstream f(snap,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(40);
    f.put('\xba');
    f.put('\xad');
  }

  options.resume = true;
  int calls = 0;
  const UnitRunner recorder = [&](const AnalysisUnit& unit,
                                  const analysis::Options& engine) {
    ++calls;
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult resumed = run_batch(units, options, recorder);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(resumed.units[0].outcome.kind, UnitOutcomeKind::kOk);
  EXPECT_FALSE(resumed.units[0].outcome.from_checkpoint);
}

// --- Isolation (fork) path ---------------------------------------------------

TEST(IsolatedBatch, RunsUnitsInWorkersAndCollectsPayloads) {
  BatchOptions options;
  options.isolate = true;
  options.jobs = 2;
  const BatchResult result =
      run_batch({inline_unit("a"), inline_unit("b")}, options);
  EXPECT_TRUE(result.isolated);
  for (const UnitReport& u : result.units) {
    EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kOk);
    ASSERT_TRUE(u.payload.has_value());
    EXPECT_GT(u.payload->exit_graphs(), 0u);
  }
}

TEST(IsolatedBatch, WorkerResultsMatchInProcessResults) {
  const std::vector<AnalysisUnit> units = {inline_unit("a")};
  BatchOptions isolated;
  isolated.isolate = true;
  isolated.check = true;
  BatchOptions inproc = quiet_options();
  inproc.check = true;
  const BatchResult a = run_batch(units, isolated);
  const BatchResult b = run_batch(units, inproc);
  ASSERT_TRUE(a.units[0].payload && b.units[0].payload);
  expect_same_payload(*a.units[0].payload, *b.units[0].payload);
}

// The fault-injection proof at the heart of the tentpole: crash + hang +
// oom seeded into three real corpus units; the isolated batch completes,
// exactly those three fail with the right classifications and get
// quarantined after one retry, and every other unit's result is identical
// to the fault-free run.
TEST(IsolatedBatch, FaultInjectionProofOverCorpusUnits) {
  // Light corpus units only (the heavy ones would dominate the clock).
  const std::vector<std::string> wanted = {"sll",   "dll",         "queue",
                                           "list_reverse", "binary_tree",
                                           "visit_marks"};
  std::vector<AnalysisUnit> units;
  for (const AnalysisUnit& u : corpus_units()) {
    for (const std::string& name : wanted) {
      if (u.name == name) units.push_back(u);
    }
  }
  ASSERT_EQ(units.size(), wanted.size());

  BatchOptions options;
  options.isolate = true;
  options.jobs = 4;
  options.unit_timeout_ms = 8000;  // generous for the clean light units
  options.term_grace_ms = 1000;

  const BatchResult clean = run_batch(units, options);
  for (const UnitReport& u : clean.units) {
    ASSERT_EQ(u.outcome.kind, UnitOutcomeKind::kOk) << u.unit.name;
  }

  const ScopedEnv env("PSA_FAULT_AT", "dll:crash,queue:oom,visit_marks:hang");
  const BatchResult faulted = run_batch(units, options);

  ASSERT_EQ(faulted.units.size(), units.size());  // the batch completed
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitReport& u = faulted.units[i];
    if (u.unit.name == "dll") {
      EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kCrash) << describe(u.outcome);
      EXPECT_EQ(u.outcome.signal, SIGABRT);
      EXPECT_EQ(u.outcome.attempts, 2);
      EXPECT_TRUE(u.outcome.quarantined);
    } else if (u.unit.name == "queue") {
      EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kOom) << describe(u.outcome);
      EXPECT_EQ(u.outcome.attempts, 2);
      EXPECT_TRUE(u.outcome.quarantined);
    } else if (u.unit.name == "visit_marks") {
      EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kTimeout)
          << describe(u.outcome);
      EXPECT_EQ(u.outcome.attempts, 2);
      EXPECT_TRUE(u.outcome.quarantined);
    } else {
      // Unfaulted units are byte-for-byte unaffected by their neighbors'
      // deaths.
      EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kOk) << u.unit.name;
      ASSERT_TRUE(u.payload && clean.units[i].payload);
      expect_same_payload(*u.payload, *clean.units[i].payload);
    }
  }
  EXPECT_EQ(faulted.failed_count(), 3u);
  EXPECT_EQ(faulted.quarantined_count(), 3u);
  EXPECT_EQ(batch_exit_code(faulted), kExitSomeUnitsFailed);
}

TEST(IsolatedBatch, UncaughtWorkerExceptionClassifiesAsExit) {
  const ScopedEnv env("PSA_FAULT_AT", "u:throw");
  BatchOptions options;
  options.isolate = true;
  const BatchResult result = run_batch({inline_unit("u")}, options);
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kExit);
  EXPECT_EQ(result.units[0].outcome.exit_code, kUncaughtExceptionExitCode);
  EXPECT_TRUE(result.units[0].outcome.quarantined);
}

TEST(IsolatedBatch, InvalidResultBytesAreACleanExitThenRetriedAndQuarantined) {
  // A worker that exits 0 after writing bytes that fail validation is a
  // failed attempt: classified exit (code 0) with the validator's reason.
  BatchOptions options;
  options.isolate = true;
  const UnitRunner garbage = [](const AnalysisUnit&,
                                const analysis::Options&) -> std::string {
    return "not a PSASNAP1 envelope";
  };
  const BatchResult result = run_batch({inline_unit("u")}, options, garbage);
  const UnitOutcome& outcome = result.units[0].outcome;
  EXPECT_EQ(outcome.kind, UnitOutcomeKind::kExit);
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(describe(outcome), "exit (code 0)");
  EXPECT_EQ(outcome.detail.rfind("clean exit but snapshot: ", 0), 0u)
      << outcome.detail;
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_FALSE(result.units[0].payload.has_value());
}

TEST(IsolatedBatch, MultiMebibytePayloadsArriveIntactWithTwoJobs) {
  // Two workers write results far larger than a pipe buffer at the same
  // time; the supervisor must drain both pipes concurrently and receive
  // every byte in order. A frontend-error payload carries its text in the
  // outcome detail, which makes the comparison cheap.
  const auto big_text = [](const std::string& name) {
    std::string text(3u << 20, '\0');
    for (std::size_t i = 0; i < text.size(); ++i) {
      text[i] = static_cast<char>('a' + (i * 7 + name.size() * 3) % 26);
    }
    return name + ":" + text;
  };
  const UnitRunner runner = [&](const AnalysisUnit& unit,
                                const analysis::Options&) {
    UnitPayload payload;
    payload.unit_name = unit.name;
    payload.function = unit.function;
    payload.frontend_ok = false;
    payload.frontend_error = big_text(unit.name);
    const support::Interner empty;
    return serialize_unit_payload(payload, empty);
  };
  BatchOptions options;
  options.isolate = true;
  options.jobs = 2;
  const BatchResult result =
      run_batch({inline_unit("first"), inline_unit("second-unit")}, options,
                runner);
  ASSERT_EQ(result.units.size(), 2u);
  for (const UnitReport& u : result.units) {
    EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kFrontendError);
    EXPECT_EQ(u.outcome.attempts, 1);
    EXPECT_GE(u.outcome.detail.size(), 1u << 20);
    EXPECT_TRUE(u.outcome.detail == big_text(u.unit.name)) << u.unit.name;
  }
}

TEST(IsolatedBatch, WritesNothingToDiskWithoutCheckpointOrCache) {
  // Worker results travel through pipes: a batch without --checkpoint and
  // --cache-dir makes no durable write and leaves no scratch directory.
  const fs::path tmp = fs::path(::testing::TempDir()) / "psa-isolated-tmpdir";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  const std::string trace = (tmp / "io.trace").string();
  BatchResult result;
  {
    const ScopedEnv tmpdir("TMPDIR", tmp.string());
    const ScopedEnv traced("PSA_IO_TRACE", trace);
    BatchOptions options;
    options.isolate = true;
    result = run_batch({inline_unit("a"), inline_unit("b")}, options);
  }
  EXPECT_EQ(batch_exit_code(result), kExitOk);
  EXPECT_FALSE(fs::exists(trace));  // not one traced durable op
  EXPECT_TRUE(fs::is_empty(tmp));
  fs::remove_all(tmp);
}

TEST(IsolatedBatch, HangWithoutWatchdogWouldBlock_SoWatchdogIsProvenHere) {
  // One hanging unit, short budget: SIGTERM -> classified timeout, retried,
  // quarantined; a clean sibling is untouched.
  const ScopedEnv env("PSA_FAULT_AT", "stuck:hang");
  BatchOptions options;
  options.isolate = true;
  options.jobs = 2;
  options.unit_timeout_ms = 400;
  options.term_grace_ms = 400;
  options.max_attempts = 1;  // keep the clock short; retries proven above
  const BatchResult result =
      run_batch({inline_unit("stuck"), inline_unit("fine")}, options);
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kTimeout);
  EXPECT_TRUE(result.units[0].outcome.quarantined);
  EXPECT_EQ(result.units[1].outcome.kind, UnitOutcomeKind::kOk);
}

// --- Salvage-mode partial outcomes ----------------------------------------

// `trace(p)` passes a struct pointer to unknown code: the salvage frontend
// lowers it to one global havoc instead of rejecting the unit.
constexpr std::string_view kDirtyInlineSource =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  trace(p);\n"
    "  p->next = NULL;\n"
    "}\n";

TEST(SalvageBatch, DegradedUnitCompletesAsPartialWithDetail) {
  const BatchResult result =
      run_batch({inline_unit("dirty", kDirtyInlineSource)}, quiet_options());
  ASSERT_EQ(result.units.size(), 1u);
  const UnitReport& u = result.units[0];
  EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kPartial);
  EXPECT_EQ(u.outcome.detail, "analyzed 1 of 1 functions, 1 havoc sites");
  ASSERT_TRUE(u.payload.has_value());
  EXPECT_TRUE(u.payload->degraded());
  EXPECT_EQ(u.payload->havoc_sites, 1u);
  // Partial counts as analyzed for the exit-code contract.
  EXPECT_EQ(result.partial_count(), 1u);
  EXPECT_EQ(result.failed_count(), 0u);
  EXPECT_EQ(batch_exit_code(result), kExitOk);
}

TEST(SalvageBatch, StrictFrontendOptionRestoresFailFast) {
  BatchOptions options = quiet_options();
  options.strict_frontend = true;
  const BatchResult result =
      run_batch({inline_unit("dirty", kDirtyInlineSource)}, options);
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kFrontendError);
  EXPECT_EQ(batch_exit_code(result), kExitAllUnitsFailed);
}

TEST(SalvageBatch, ForkedWorkerProducesTheSamePartialOutcome) {
  BatchOptions options;
  options.isolate = true;
  const BatchResult result =
      run_batch({inline_unit("dirty", kDirtyInlineSource)}, options);
  ASSERT_EQ(result.units.size(), 1u);
  EXPECT_TRUE(result.isolated);
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kPartial);
  EXPECT_EQ(result.units[0].outcome.detail,
            "analyzed 1 of 1 functions, 1 havoc sites");
  EXPECT_EQ(batch_exit_code(result), kExitOk);
}

TEST(SalvageBatch, PayloadRoundTripsSalvageCountsAndDegradedFindings) {
  const AnalysisUnit unit = inline_unit("dirty", kDirtyInlineSource);
  const std::string bytes =
      run_unit_serialized(unit, analysis::Options{}, /*check=*/true);
  const UnitPayload payload = deserialize_unit_payload(bytes);
  EXPECT_TRUE(payload.frontend_ok);
  EXPECT_TRUE(payload.degraded());
  EXPECT_EQ(payload.havoc_sites, 1u);
  EXPECT_EQ(payload.functions_analyzable, 1u);
  EXPECT_EQ(payload.functions_total, 1u);
  EXPECT_GE(payload.unsupported_count, 1u);
  EXPECT_FALSE(payload.salvage_diagnostics.empty());
  // The deref of p after the havoc has only tainted witnesses: its finding
  // survives the wire round-trip with the degraded bit set.
  ASSERT_TRUE(payload.checked);
  bool any_degraded = false;
  for (const auto& f : payload.findings) any_degraded |= f.degraded;
  EXPECT_TRUE(any_degraded);
}

TEST_F(CheckpointedBatch, ResumePreservesThePartialOutcome) {
  const std::vector<AnalysisUnit> units = {
      inline_unit("dirty", kDirtyInlineSource)};
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;
  const BatchResult first = run_batch(units, options);
  ASSERT_EQ(first.units[0].outcome.kind, UnitOutcomeKind::kPartial);

  options.resume = true;
  int calls = 0;
  const UnitRunner tripwire = [&](const AnalysisUnit& unit,
                                  const analysis::Options& engine) {
    ++calls;
    return run_unit_serialized(unit, engine, false);
  };
  const BatchResult resumed = run_batch(units, options, tripwire);
  EXPECT_EQ(calls, 0);
  ASSERT_EQ(resumed.units.size(), 1u);
  const UnitReport& u = resumed.units[0];
  EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kPartial);
  EXPECT_TRUE(u.outcome.from_checkpoint);
  EXPECT_EQ(u.outcome.detail, first.units[0].outcome.detail);
  ASSERT_TRUE(u.payload.has_value());
  EXPECT_EQ(u.payload->havoc_sites, first.units[0].payload->havoc_sites);
  EXPECT_EQ(u.payload->salvage_diagnostics,
            first.units[0].payload->salvage_diagnostics);
}

TEST_F(CheckpointedBatch, SupervisorWritesOneSnapshotPerAnalyzedUnit) {
  // The supervisor, not the worker, writes <key>.snap: exactly one durable
  // write per unit that ended ok or partial, none for a frontend error
  // (resume never serves one), each landing before the unit's outcome
  // record.
  const std::vector<AnalysisUnit> units = {
      inline_unit("a"), inline_unit("dirty", kDirtyInlineSource),
      inline_unit("bad", "void main() { syntax error")};
  const std::string trace = dir_ + ".trace";
  fs::remove(trace);
  BatchOptions options;
  options.isolate = true;
  options.checkpoint_dir = dir_;
  BatchResult result;
  {
    const ScopedEnv traced("PSA_IO_TRACE", trace);
    result = run_batch(units, options);
  }
  EXPECT_EQ(result.units[0].outcome.kind, UnitOutcomeKind::kOk);
  EXPECT_EQ(result.units[1].outcome.kind, UnitOutcomeKind::kPartial);
  EXPECT_EQ(result.units[2].outcome.kind, UnitOutcomeKind::kFrontendError);

  std::ifstream in(trace);
  std::string line;
  std::vector<std::string> snap_writes;
  while (std::getline(in, line)) {
    if (line.find(".snap ") != std::string::npos) snap_writes.push_back(line);
  }
  fs::remove(trace);
  ASSERT_EQ(snap_writes.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NE(snap_writes[i].find(" atomic_write "), std::string::npos);
    EXPECT_NE(snap_writes[i].find(unit_key(units[i]) + ".snap "),
              std::string::npos)
        << snap_writes[i];
  }
  EXPECT_FALSE(fs::exists(
      Checkpoint(dir_, true).snapshot_path(unit_key(units[2]))));

  // The snapshots the supervisor wrote serve a resume.
  options.resume = true;
  const BatchResult resumed = run_batch(units, options);
  EXPECT_EQ(resumed.from_checkpoint_count(), 2u);
}

// ---------------------------------------------------------------------------
// Durable-I/O faults at the batch level (PSA_IO_FAULT, docs/RESILIENCE.md
// "The I/O fault space"): a failing checkpoint device never kills the batch
// — the results stay intact, the degradations are counted, and the report
// says so in its trailing note.

TEST_F(CheckpointedBatch, JournalFaultsDegradeSoundlyAndAreReported) {
  const std::vector<AnalysisUnit> units = {inline_unit("a"), inline_unit("b")};
  BatchOptions options = quiet_options();
  options.checkpoint_dir = dir_;

  ::setenv("PSA_IO_FAULT", "@journal.psaj:enospc", 1);
  const BatchResult faulted = run_batch(units, options);
  ::unsetenv("PSA_IO_FAULT");

  // Every unit still analyzed: the device failure cost durability, never
  // results.
  EXPECT_EQ(batch_exit_code(faulted), kExitOk);
  for (const UnitReport& u : faulted.units) {
    EXPECT_EQ(u.outcome.kind, UnitOutcomeKind::kOk);
    EXPECT_TRUE(u.payload.has_value());
  }
  EXPECT_GT(faulted.io_degradations, 0u);
  EXPECT_NE(format_batch_report(faulted).find("io degradations:"),
            std::string::npos);

  // A healthy run of the same batch carries no note — the marker appears
  // exactly when something degraded, so golden reports stay golden.
  const BatchResult healthy = run_batch(units, options);
  EXPECT_EQ(healthy.io_degradations, 0u);
  EXPECT_EQ(format_batch_report(healthy).find("io degradations:"),
            std::string::npos);
}

}  // namespace
}  // namespace psa::driver
