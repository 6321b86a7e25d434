// Per-statement state digests against committed goldens: the differential
// gate for every kernel change. One case per (program, level) over the
// clean, dirty and deliberately-buggy corpora; each compares the digest of
// every CFG node's RSRSG (tests/testing/state_digest.hpp) with
// tests/integration/state_digests/<program>.<level>.txt, and checks that
// every shape-neutral statement with one predecessor ends with exactly its
// predecessor's state (tests/testing/shared_states.hpp).
//
// A change that moves any intermediate state fails here even when it stays
// sound and leaves exit states, findings and counters alone. An intentional
// change regenerates the goldens with PSA_UPDATE_GOLDEN=1 (the test then
// rewrites its file and fails so the refresh is never silent), and the
// golden diff goes up for review like a bench baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "cfg/simple_stmt.hpp"
#include "corpus/corpus.hpp"
#include "support/metrics.hpp"
#include "testing/shared_states.hpp"
#include "testing/state_digest.hpp"

#ifndef PSA_STATE_DIGEST_DIR
#error "PSA_STATE_DIGEST_DIR must be defined by the build"
#endif

namespace psa {
namespace {

struct DigestCase {
  std::string program;
  std::string_view source;
  bool salvage = false;  // dirty corpus: analyzed in salvage mode
  rsg::AnalysisLevel level = rsg::AnalysisLevel::kL1;

  [[nodiscard]] std::string name() const {
    return program + "_" + std::string(rsg::to_string(level));
  }
  [[nodiscard]] std::string golden_path() const {
    return std::string(PSA_STATE_DIGEST_DIR) + "/" + program + "." +
           std::string(rsg::to_string(level)) + ".txt";
  }
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name(); }

std::vector<DigestCase> all_cases() {
  std::vector<DigestCase> out;
  const auto add = [&](std::string_view name, std::string_view source,
                       bool salvage) {
    for (const auto level :
         {rsg::AnalysisLevel::kL1, rsg::AnalysisLevel::kL2,
          rsg::AnalysisLevel::kL3}) {
      out.push_back({std::string(name), source, salvage, level});
    }
  };
  for (const auto& p : corpus::all_programs()) add(p.name, p.source, false);
  for (const auto& p : corpus::dirty_programs()) add(p.name, p.source, true);
  for (const auto& p : corpus::buggy_programs()) add(p.name, p.source, false);
  return out;
}

/// One line per CFG node: id, digest, source line, statement.
std::vector<std::string> digest_lines(const DigestCase& c) {
  analysis::FrontendOptions frontend;
  frontend.salvage = c.salvage;
  const auto program = analysis::prepare(c.source, "main", frontend);
  analysis::Options options;
  options.level = c.level;
  const support::MetricsRegion region;  // summaries and fixpoint alike
  const auto result = analysis::analyze_program(program, options);
  EXPECT_TRUE(result.converged()) << analysis::to_string(result.status);
  // Keys that needed the tie search (rsg/canon.hpp), reported in the XML
  // output beside each case. Analysis states are COMPRESSed, so refinement
  // alone must order them: a tie here means a kernel change left two
  // indistinguishable nodes unmerged, and every such key pays a factorial
  // search.
  const std::uint64_t fallbacks =
      region.delta()[support::Counter::kCanonFallbacks];
  ::testing::Test::RecordProperty("canon_fallbacks", std::to_string(fallbacks));
  EXPECT_EQ(fallbacks, 0u)
      << c.name() << ": " << fallbacks
      << " canonical keys needed the tie search; see rsg/canon.hpp for why "
         "analysis states never should";

  // Identity statements with one predecessor hold its state
  // (analysis/engine.cpp): each ends equal to it, and sharing served visits.
  const std::size_t shared = testing::expect_shared_states_match(
      program.cfg, result, options.policy(), c.name());
  EXPECT_GT(shared, 0u) << c.name();
  EXPECT_GT(region.delta()[support::Counter::kSharedVisits], 0u) << c.name();

  // A set enters widened mode once and a widened set is final: without
  // degradation, every widening is a statement that owns its state and
  // ends widened.
  EXPECT_FALSE(result.degraded()) << c.name();
  std::uint64_t widened = 0;
  for (cfg::NodeId id = 0; id < program.cfg.size(); ++id) {
    if (!testing::is_shared_statement(program.cfg, id, options.policy()) &&
        result.per_node[id].widened()) {
      ++widened;
    }
  }
  EXPECT_EQ(region.delta()[support::Counter::kWidenings], widened) << c.name();

  testing::StateDigester digester(program.interner(), program.unit.types);
  const std::vector<std::uint64_t> digests = digester.digest(result);
  std::vector<std::string> lines;
  lines.reserve(digests.size());
  for (cfg::NodeId id = 0; id < digests.size(); ++id) {
    const cfg::SimpleStmt& stmt = program.cfg.node(id).stmt;
    char head[64];
    std::snprintf(head, sizeof head, "%u %016" PRIx64 " line %u ", id,
                  digests[id], stmt.loc.line);
    lines.push_back(head + cfg::to_string(stmt, program.interner()));
  }
  return lines;
}

class StateDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(StateDigestTest, EveryStatementMatchesTheGolden) {
  const DigestCase& c = GetParam();
  const std::vector<std::string> actual = digest_lines(c);
  const std::string path = c.golden_path();
  const std::string recipe =
      "If the change is intended, regenerate with\n"
      "  PSA_UPDATE_GOLDEN=1 ctest -R StateDigestTest\n"
      "from the build tree, then rerun and review the golden diff.";

  if (std::getenv("PSA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    for (const std::string& line : actual) out << line << '\n';
    ADD_FAILURE() << "golden file regenerated: " << path
                  << " (rerun without PSA_UPDATE_GOLDEN)";
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path << "\n" << recipe;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  const std::size_t common = std::min(actual.size(), expected.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (actual[i] == expected[i]) continue;
    FAIL() << c.name() << ": the state after CFG node " << i
           << " diverged from " << path << "\n  expected: " << expected[i]
           << "\n  actual:   " << actual[i] << "\n"
           << recipe;
  }
  ASSERT_EQ(actual.size(), expected.size())
      << c.name() << ": CFG node count differs from " << path << "\n"
      << recipe;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, StateDigestTest, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace psa
