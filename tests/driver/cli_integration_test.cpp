// End-to-end psa_cli integration: the documented exit-code contract, batch
// mode with worker isolation, fault injection through the real binary, and
// the resume proof — SIGKILL a checkpointed batch mid-run, rerun with
// --resume, and the final report is byte-identical to an uninterrupted run
// while the unit-level logs show the finished units being skipped.
//
// The binaries under test are baked in via PSA_CLI_PATH,
// PSA_CHECKER_REPORT_PATH and PSA_EXPORT_CORPUS_PATH (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/profile.hpp"
#include "driver/supervisor.hpp"
#include "support/metrics.hpp"
#include "testing/json.hpp"
#include "testing/program_gen.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#define PSA_CLI_TESTS_POSIX 1
#else
#define PSA_CLI_TESTS_POSIX 0
#endif

namespace psa {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
};

/// Run `binary` via popen, capturing stdout (stderr goes to the 2> file so
/// log assertions can read it).
RunResult run_program(const std::string& binary, const std::string& args,
                      const std::string& stderr_path) {
  const std::string command = binary + " " + args + " 2>" +
                              (stderr_path.empty() ? "/dev/null"
                                                   : stderr_path);
  RunResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.stdout_text.append(buffer.data(), n);
  }
  const int status = ::pclose(pipe);
#if PSA_CLI_TESTS_POSIX
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  result.exit_code = status;
#endif
  return result;
}

RunResult run_cli(const std::string& args, const std::string& stderr_path) {
  return run_program(PSA_CLI_PATH, args, stderr_path);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("psa-cli-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const std::string path = (fs::path(dir_) / name).string();
    std::ofstream out(path);
    out << text;
    return path;
  }

  std::string path_in(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
};

constexpr const char* kCleanSource =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  p->next = NULL;\n"
    "  free(p);\n"
    "  p = NULL;\n"
    "}\n";

constexpr const char* kLeakySource =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  p->next = NULL;\n"
    "}\n";

TEST_F(CliTest, ExitCode0CleanAnalysis) {
  const std::string file = write_file("clean.c", kCleanSource);
  EXPECT_EQ(run_cli(file + " --check", "").exit_code, 0);
}

TEST_F(CliTest, ExitCode1Findings) {
  const std::string file = write_file("leaky.c", kLeakySource);
  EXPECT_EQ(run_cli(file + " --check", "").exit_code, 1);
}

TEST_F(CliTest, ExitCode2BadUsage) {
  EXPECT_EQ(run_cli("", "").exit_code, 2);
  EXPECT_EQ(run_cli("--bogus-flag file.c", "").exit_code, 2);
  EXPECT_EQ(run_cli("--resume file.c", "").exit_code, 2);  // needs --checkpoint
  EXPECT_EQ(run_cli("--isolate --progressive file.c", "").exit_code, 2);
  // The removed analysis daemon's two flags are unknown options now, even
  // next to a valid input (spelled in pieces so a search for leftover
  // daemon references finds none here).
  const std::string clean = write_file("clean.c", kCleanSource);
  const std::string sock = path_in("psa.sock");
  const std::string serve = std::string("--ser") + "ve=" + sock;
  const std::string connect = std::string("--con") + "nect=" + sock;
  EXPECT_EQ(run_cli(serve, "").exit_code, 2);
  EXPECT_EQ(run_cli(clean + " " + connect, "").exit_code, 2);
  // So is the removed intra-fixpoint thread count (spelled in pieces for
  // the same reason).
  const std::string thread_count = std::string("--thr") + "eads=2";
  EXPECT_EQ(run_cli(clean + " " + thread_count, "").exit_code, 2);
  // A numeric value must be a whole unsigned number in range: no trailing
  // junk, no leading minus wrapped to a huge count.
  EXPECT_EQ(run_cli(clean + " --level=2x", "").exit_code, 2);
  EXPECT_EQ(run_cli(clean + " --jobs=2x", "").exit_code, 2);
  EXPECT_EQ(run_cli(clean + " --timeout-ms=1x", "").exit_code, 2);
  EXPECT_EQ(run_cli(clean + " --max-visits=-1", "").exit_code, 2);
  EXPECT_EQ(run_cli(clean + " --cache-max-age=-5", "").exit_code, 2);
}

TEST_F(CliTest, CheckerReportRejectsBadLevel) {
  // checker_report parses --level as a whole number too: no missing digits,
  // no trailing junk. --buggy-only keeps a wrongly accepted run short.
  for (const std::string level : {"--level=abc", "--level=", "--level=2x"}) {
    EXPECT_EQ(
        run_program(PSA_CHECKER_REPORT_PATH, level + " --buggy-only", "")
            .exit_code,
        2)
        << level;
  }
}

TEST_F(CliTest, ExportCorpusTakesNoOptionForADirectory) {
  // export_corpus takes one optional DIR: --help prints the usage and any
  // other option is bad usage; neither writes a file.
  const std::string export_corpus =
      "cd '" + dir_ + "' && " + std::string(PSA_EXPORT_CORPUS_PATH);
  const RunResult help = run_program(export_corpus, "--help", "");
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_EQ(help.stdout_text.rfind("usage: export_corpus [DIR]", 0), 0u);
  EXPECT_EQ(run_program(export_corpus, "--bogus", "").exit_code, 2);
  EXPECT_EQ(run_program(export_corpus, "a b", "").exit_code, 2);
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(CliTest, ExitCode3SomeUnitsFailed) {
  const std::string good = write_file("good.c", kCleanSource);
  EXPECT_EQ(run_cli(good + " " + path_in("missing.c"), "").exit_code, 3);
}

TEST_F(CliTest, ExitCode4AllUnitsFailed) {
  EXPECT_EQ(run_cli(path_in("missing.c"), "").exit_code, 4);
}

TEST_F(CliTest, BatchModeExitCodesMatchDetailedMode) {
  const std::string clean = write_file("clean.c", kCleanSource);
  const std::string leaky = write_file("leaky.c", kLeakySource);
  EXPECT_EQ(run_cli(clean + " --isolate --check", "").exit_code, 0);
  EXPECT_EQ(run_cli(leaky + " --isolate --check", "").exit_code, 1);
  EXPECT_EQ(
      run_cli(clean + " " + path_in("nope.c") + " --isolate", "").exit_code,
      3);
  EXPECT_EQ(run_cli(path_in("nope.c") + " --isolate", "").exit_code, 4);
}

TEST_F(CliTest, BatchReportAndMergedSarif) {
  const std::string clean = write_file("clean.c", kCleanSource);
  const std::string leaky = write_file("leaky.c", kLeakySource);
  const std::string sarif = path_in("out.sarif");
  const RunResult result = run_cli(
      clean + " " + leaky + " --isolate --check --sarif=" + sarif, "");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stdout_text.find("batch: 2 units, 2 ok"),
            std::string::npos)
      << result.stdout_text;

  const std::string log = slurp(sarif);
  // One SARIF run, findings attributed per artifact.
  EXPECT_NE(log.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(log.find("leaky.c"), std::string::npos);
}

constexpr const char* kUseAfterFreeSource =
    "struct node { struct node *nxt; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  struct node *q;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  q = malloc(sizeof(struct node));\n"
    "  p->nxt = q;\n"
    "  q->nxt = NULL;\n"
    "  while (p != NULL) {\n"
    "    free(p);\n"
    "    p = p->nxt;\n"
    "  }\n"
    "}\n";

TEST_F(CliTest, DetailedModeSarifKeepsEveryFile) {
  // Detailed mode writes one log for all its files, one artifact each; a
  // later file must not overwrite an earlier file's findings.
  const std::string uaf = write_file("uaf.c", kUseAfterFreeSource);
  const std::string leaky = write_file("leaky.c", kLeakySource);
  const std::string sarif = path_in("two.sarif");
  const RunResult result =
      run_cli(uaf + " " + leaky + " --check --sarif=" + sarif, "");
  EXPECT_EQ(result.exit_code, 1);
  const std::string log = slurp(sarif);
  EXPECT_NE(log.find("\"ruleId\": \"PSA-USE-AFTER-FREE\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"ruleId\": \"PSA-LEAK-AT-EXIT\""), std::string::npos)
      << log;
  EXPECT_NE(log.find("\"uri\": \"" + uaf + "\""), std::string::npos);
  EXPECT_NE(log.find("\"uri\": \"" + leaky + "\""), std::string::npos);
  // Still one run.
  EXPECT_EQ(log.find("\"tool\""), log.rfind("\"tool\""));
}

TEST_F(CliTest, HelpPrintsTheReferenceAndExitsOk) {
  const RunResult result = run_cli("--help", "");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.stdout_text.rfind("usage: psa_cli", 0), 0u)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("--metrics-out"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("exit codes:"), std::string::npos);
}

// The docs contract: README.md embeds the --help text verbatim in a fenced
// code block; the two must stay byte-identical (see kHelpText in
// examples/psa_cli.cpp). PSA_README_PATH is baked in by tests/CMakeLists.txt.
TEST_F(CliTest, HelpMatchesTheReadmeFlagBlock) {
  const std::string readme = slurp(PSA_README_PATH);
  ASSERT_FALSE(readme.empty()) << "cannot read " << PSA_README_PATH;
  const std::size_t start = readme.find("usage: psa_cli");
  ASSERT_NE(start, std::string::npos)
      << "README.md lost its embedded --help block";
  const std::size_t fence = readme.find("\n```", start);
  ASSERT_NE(fence, std::string::npos);
  const std::string block = readme.substr(start, fence + 1 - start);

  const RunResult help = run_cli("--help", "");
  ASSERT_EQ(help.exit_code, 0);
  EXPECT_EQ(block, help.stdout_text)
      << "README flag block and `psa_cli --help` drifted apart; update both";
}

/// Parse a JSONL metrics file into unit records + the single aggregate.
struct MetricsFile {
  std::vector<testing::JsonValue> units;
  testing::JsonValue aggregate;
  bool ok = false;
};

MetricsFile read_metrics_file(const std::string& path) {
  MetricsFile out;
  std::ifstream in(path);
  std::string line;
  std::size_t aggregates = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = testing::parse_json(line);
    if (!doc || !doc->is_object()) return out;
    if (doc->str("schema") != "psa.metrics.v1") return out;
    if (doc->str("kind") == "aggregate") {
      out.aggregate = std::move(*doc);
      ++aggregates;
    } else if (doc->str("kind") == "unit") {
      out.units.push_back(std::move(*doc));
    } else {
      return out;
    }
  }
  out.ok = aggregates == 1 && !out.units.empty();
  return out;
}

/// The per-counter value of one record's "ops" object.
double ops_value(const testing::JsonValue& record, const std::string& key) {
  const testing::JsonValue* ops = record.find("ops");
  return ops == nullptr ? -1 : ops->num(key);
}

// The supervisor-merge acceptance proof: in both isolation modes the
// aggregate record equals the element-wise sum of the per-unit records, and
// the deterministic (non-timer) operation counters are identical whether
// units ran forked or in-process.
TEST_F(CliTest, MetricsAggregateEqualsSumInBothIsolateModes) {
  const std::string a = write_file("a.c", kCleanSource);
  const std::string b = write_file("b.c", kLeakySource);
  const std::string on_path = path_in("on.jsonl");
  const std::string off_path = path_in("off.jsonl");

  ASSERT_EQ(run_cli(a + " " + b + " --isolate=on --jobs=2 --metrics-out=" +
                        on_path,
                    "")
                .exit_code,
            0);
  ASSERT_EQ(run_cli(a + " " + b + " --isolate=off --metrics-out=" + off_path,
                    "")
                .exit_code,
            0);

  for (const std::string& path : {on_path, off_path}) {
    const MetricsFile file = read_metrics_file(path);
    ASSERT_TRUE(file.ok) << path;
    ASSERT_EQ(file.units.size(), 2u) << path;
    for (std::size_t i = 0; i < support::kCounterCount; ++i) {
      const auto c = static_cast<support::Counter>(i);
      const std::string key{support::counter_name(c)};
      double sum = 0;
      for (const auto& unit : file.units) sum += ops_value(unit, key);
      EXPECT_DOUBLE_EQ(ops_value(file.aggregate, key), sum)
          << path << " " << key;
    }
  }

  // Determinism across isolation: forked and in-process workers count the
  // same operations (unit order in the report is the input order).
  const MetricsFile forked = read_metrics_file(on_path);
  const MetricsFile inproc = read_metrics_file(off_path);
  ASSERT_EQ(forked.units.size(), inproc.units.size());
  for (std::size_t u = 0; u < forked.units.size(); ++u) {
    EXPECT_EQ(forked.units[u].str("unit"), inproc.units[u].str("unit"));
    for (std::size_t i = 0; i < support::kCounterCount; ++i) {
      const auto c = static_cast<support::Counter>(i);
      if (support::is_timer(c)) continue;
      const std::string key{support::counter_name(c)};
      EXPECT_DOUBLE_EQ(ops_value(forked.units[u], key),
                       ops_value(inproc.units[u], key))
          << forked.units[u].str("unit") << " " << key;
    }
  }
}

TEST_F(CliTest, WarmCacheRunReportsNoRecordedCost) {
  // A unit served from the cache ran no fixpoint, so its metrics record —
  // and the aggregate — must not replay the cold run's wall time, visits or
  // peak memory, while the report stays the cold run's byte for byte.
  const std::string args =
      "--corpus --check --isolate --jobs=2 --cache-dir=" + path_in("cache");
  const std::string cold_path = path_in("cold.jsonl");
  const std::string warm_path = path_in("warm.jsonl");
  const RunResult cold = run_cli(args + " --metrics-out=" + cold_path, "");
  const RunResult warm = run_cli(args + " --metrics-out=" + warm_path, "");
  EXPECT_EQ(warm.exit_code, cold.exit_code);
  EXPECT_EQ(warm.stdout_text, cold.stdout_text);

  const MetricsFile cold_file = read_metrics_file(cold_path);
  ASSERT_TRUE(cold_file.ok);
  EXPECT_GT(cold_file.aggregate.num("node_visits"), 0);

  const MetricsFile file = read_metrics_file(warm_path);
  ASSERT_TRUE(file.ok);
  ASSERT_EQ(file.units.size(), cold_file.units.size());
  std::vector<const testing::JsonValue*> records;
  for (const testing::JsonValue& unit : file.units) {
    EXPECT_EQ(ops_value(unit, "cache_hits"), 1) << unit.str("unit");
    records.push_back(&unit);
  }
  records.push_back(&file.aggregate);
  for (const testing::JsonValue* record : records) {
    const std::string name = record->str("unit");
    EXPECT_EQ(record->num("node_visits"), 0) << name;
    EXPECT_EQ(record->num("wall_seconds"), 0) << name;
    const testing::JsonValue* memory = record->find("memory");
    ASSERT_NE(memory, nullptr) << name;
    EXPECT_EQ(memory->num("peak_bytes"), 0) << name;
  }
  EXPECT_EQ(ops_value(file.aggregate, "cache_hits"),
            static_cast<double>(file.units.size()));
}

TEST_F(CliTest, BatchGaugesEqualInProcessGaugesColdAndWarm) {
  // The population gauges describe every statement's state, which a unit
  // payload does not carry: the worker computes them, and a cache hit
  // serves the cold run's. In every isolation mode and cache state, each
  // corpus unit's gauges must equal those of an in-process analysis.
  std::map<std::string, analysis::PopulationGauges> expected;
  for (const driver::AnalysisUnit& unit : driver::corpus_units()) {
    analysis::FrontendOptions frontend;
    frontend.salvage = true;
    const analysis::ProgramAnalysis program =
        analysis::prepare(unit.source, unit.function, frontend);
    expected[unit.name] = analysis::collect_gauges(
        analysis::analyze_program(program, analysis::Options{}));
  }

  for (const std::string isolate : {"on", "off"}) {
    const std::string cache = path_in("cache-" + isolate);
    for (const std::string pass : {"cold", "warm"}) {
      SCOPED_TRACE("isolate=" + isolate + ", " + pass + " cache");
      const std::string path = path_in(isolate + "-" + pass + ".jsonl");
      ASSERT_EQ(run_cli("--corpus --isolate=" + isolate +
                            " --jobs=2 --cache-dir=" + cache +
                            " --metrics-out=" + path,
                        "")
                    .exit_code,
                0);
      const MetricsFile file = read_metrics_file(path);
      ASSERT_TRUE(file.ok);
      ASSERT_EQ(file.units.size(), expected.size());
      for (const testing::JsonValue& record : file.units) {
        const std::string name = record.str("unit");
        SCOPED_TRACE(name);
        EXPECT_EQ(ops_value(record, "cache_hits"), pass == "warm" ? 1 : 0);
        ASSERT_EQ(expected.count(name), 1u);
        const analysis::PopulationGauges& want = expected[name];
        const testing::JsonValue* gauges = record.find("gauges");
        ASSERT_NE(gauges, nullptr);
        EXPECT_GT(want.live_rsgs, 0u);
        EXPECT_EQ(gauges->num("live_rsgs"),
                  static_cast<double>(want.live_rsgs));
        EXPECT_EQ(gauges->num("total_nodes"),
                  static_cast<double>(want.total_nodes));
        EXPECT_EQ(gauges->num("max_rsgs_per_stmt"),
                  static_cast<double>(want.max_rsgs_per_stmt));
        EXPECT_EQ(gauges->num("max_nodes_per_rsg"),
                  static_cast<double>(want.max_nodes_per_rsg));
        EXPECT_EQ(gauges->num("shared_nodes"),
                  static_cast<double>(want.shared_nodes));
        EXPECT_EQ(gauges->num("cyclelink_nodes"),
                  static_cast<double>(want.cyclelink_nodes));
      }
    }
  }
}

TEST_F(CliTest, MetricsOutWorksInDetailedMode) {
  const std::string file = write_file("clean.c", kCleanSource);
  const std::string path = path_in("detailed.jsonl");
  const RunResult result = run_cli(file + " --metrics-out=" + path, "");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("metrics written to"), std::string::npos);
  const MetricsFile metrics = read_metrics_file(path);
  ASSERT_TRUE(metrics.ok);
  ASSERT_EQ(metrics.units.size(), 1u);
  EXPECT_EQ(metrics.units[0].str("unit"), file);
  EXPECT_EQ(metrics.units[0].str("status"), "converged");
  EXPECT_EQ(metrics.aggregate.str("level"), "-");
}

TEST_F(CliTest, ProfileFlagPrintsTheTable) {
  const std::string file = write_file("clean.c", kCleanSource);
  const RunResult result = run_cli(file + " --profile", "");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.stdout_text.find("phases:"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("rsg operations:"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("gauges:"), std::string::npos);
  // A unit whose target calls nothing summarizes nothing: no ipa row.
  EXPECT_EQ(result.stdout_text.find("\n  ipa "), std::string::npos)
      << result.stdout_text;
}

#if PSA_CLI_TESTS_POSIX

TEST_F(CliTest, FaultInjectionThroughTheRealBinary) {
  const std::string a = write_file("a.c", kCleanSource);
  const std::string b = write_file("b.c", kCleanSource);
  const std::string stderr_path = path_in("stderr.log");

  ::setenv("PSA_FAULT_AT", (a + ":crash").c_str(), 1);
  const RunResult result =
      run_cli(a + " " + b + " --isolate --jobs=2", stderr_path);
  ::unsetenv("PSA_FAULT_AT");

  EXPECT_EQ(result.exit_code, 3);
  EXPECT_NE(result.stdout_text.find("crash (signal"), std::string::npos)
      << result.stdout_text;
  EXPECT_NE(result.stdout_text.find("quarantined"), std::string::npos);
  EXPECT_NE(result.stdout_text.find("b.c: ok"), std::string::npos);
}

/// Spawn the CLI detached (stdout/stderr to files), return its pid.
pid_t spawn_cli(const std::vector<std::string>& args,
                const std::string& stdout_path,
                const std::string& stderr_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  (void)!::freopen(stdout_path.c_str(), "w", stdout);
  (void)!::freopen(stderr_path.c_str(), "w", stderr);
  std::vector<char*> argv;
  static std::string binary = PSA_CLI_PATH;
  argv.push_back(binary.data());
  std::vector<std::string> owned = args;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(binary.c_str(), argv.data());
  ::_exit(127);
}

// The resume acceptance proof: SIGKILL a checkpointed batch mid-run; rerun
// with --resume; finished units are skipped (per the unit-level log) and the
// final report is byte-identical to an uninterrupted run.
TEST_F(CliTest, ResumeAfterSigkillReproducesTheUninterruptedReport) {
  // Several units, serial, so the kill lands mid-batch deterministically
  // enough: fuzz-generated programs each take a measurable slice at L2.
  std::vector<std::string> files;
  for (unsigned seed = 0; seed < 6; ++seed) {
    files.push_back(write_file("gen" + std::to_string(seed) + ".c",
                               testing::generate_program(seed)));
  }

  const std::string ckpt_a = path_in("ckpt-uninterrupted");
  const std::string ckpt_b = path_in("ckpt-killed");

  // Reference: uninterrupted run.
  std::string ref_args = "--isolate --jobs=1 --level=2 --checkpoint=" + ckpt_a;
  for (const std::string& f : files) ref_args += " " + f;
  const RunResult reference = run_cli(ref_args, "");
  ASSERT_EQ(reference.exit_code, 0) << reference.stdout_text;

  // Victim: same batch, SIGKILLed once the journal shows progress.
  std::vector<std::string> victim_args = {"--isolate", "--jobs=1",
                                          "--level=2",
                                          "--checkpoint=" + ckpt_b};
  for (const std::string& f : files) victim_args.push_back(f);
  const pid_t pid = spawn_cli(victim_args, path_in("victim.out"),
                              path_in("victim.err"));
  ASSERT_GT(pid, 0);

  const std::string journal = (fs::path(ckpt_b) / "journal.psaj").string();
  for (int spins = 0; spins < 20000; ++spins) {
    const std::string text = slurp(journal);
    std::size_t outcomes = 0;
    for (std::size_t at = text.find("\noutcome ");
         at != std::string::npos; at = text.find("\noutcome ", at + 1)) {
      ++outcomes;
    }
    if (outcomes >= 2) break;  // mid-run: some done, some not
    ::usleep(2000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "victim was not killed mid-run; batch too fast for the proof";

  // Resume and compare byte for byte.
  std::string resume_args =
      "--isolate --jobs=1 --level=2 --resume --checkpoint=" + ckpt_b;
  for (const std::string& f : files) resume_args += " " + f;
  const std::string log_path = path_in("resume.err");
  const RunResult resumed = run_cli(resume_args, log_path);
  EXPECT_EQ(resumed.exit_code, 0) << resumed.stdout_text;

  // Byte-identical final report modulo the from-checkpoint provenance
  // markers (the report deliberately shows which units were served from
  // disk; strip the marker before comparing).
  std::string normalized = resumed.stdout_text;
  std::string normalized_ref = reference.stdout_text;
  const auto strip = [](std::string& s, const std::string& needle) {
    for (std::size_t at = s.find(needle); at != std::string::npos;
         at = s.find(needle)) {
      s.erase(at, needle.size());
    }
  };
  strip(normalized, ", from checkpoint");
  // The summary line also counts checkpoint hits.
  for (int n = 0; n <= 6; ++n) {
    strip(normalized, ", " + std::to_string(n) + " from checkpoint");
  }
  EXPECT_EQ(normalized, normalized_ref);

  // The unit-level log proves finished units were skipped, not re-run.
  const std::string log = slurp(log_path);
  EXPECT_NE(log.find("(checkpointed)"), std::string::npos) << log;
}

// ---------------------------------------------------------------------------
// --fault-campaign (docs/RESILIENCE.md "The I/O fault space"): the
// deterministic (op x kind) sweep through the real binary. The full bounded
// sweep is scripts/fault_campaign.sh (CI); this smoke keeps the orchestrator
// itself honest — it must enumerate traced ops, run scenarios, and exit 0
// with every invariant held.

TEST_F(CliTest, FaultCampaignBoundedSweepHoldsAllInvariants) {
  const RunResult result =
      run_cli("--fault-campaign=" + path_in("campaign") +
                  " --campaign-max-ops=2 --campaign-kinds=enospc,crash",
              path_in("campaign.log"));
  EXPECT_EQ(result.exit_code, 0) << slurp(path_in("campaign.log"));
  EXPECT_NE(result.stdout_text.find("0 violations"), std::string::npos)
      << result.stdout_text;
  // The sweep really enumerated (op, kind) pairs.
  EXPECT_NE(result.stdout_text.find("2 ops x 2 kinds = 4 scenarios"),
            std::string::npos)
      << result.stdout_text;
}

TEST_F(CliTest, FaultCampaignRejectsBadUsage) {
  // Unknown kind: setup failure, not a silent empty sweep.
  EXPECT_EQ(run_cli("--fault-campaign=" + path_in("c") +
                        " --campaign-kinds=sparks",
                    "")
                .exit_code,
            2);
  // Campaign knobs without the mode, and mixing the mode with batch inputs.
  EXPECT_EQ(run_cli("--campaign-max-ops=3 file.c", "").exit_code, 2);
  EXPECT_EQ(run_cli("--fault-campaign=" + path_in("c") + " --corpus", "")
                .exit_code,
            2);
}

#endif  // PSA_CLI_TESTS_POSIX

}  // namespace
}  // namespace psa
