// Serialization round-trip property suite for analysis-layer snapshots: for
// every corpus program at L1/L2/L3 and for fuzz-generated programs, the
// restored Rsrsg / AnalysisResult is canon-identical to the original —
// member-for-member key-equal states, bit-exact scalars, intact degradation
// report. Plus corruption tolerance at this layer: hostile bytes throw
// SnapshotError, never UB.
#include "analysis/snapshot.hpp"

#include <gtest/gtest.h>

#include <string>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "rsg/canon.hpp"
#include "testing/program_gen.hpp"

namespace psa::analysis {
namespace {

void expect_same_result(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.seconds, b.seconds);  // f64 bit pattern round-trips exactly
  EXPECT_EQ(a.node_visits, b.node_visits);
  EXPECT_EQ(a.memory.live_bytes, b.memory.live_bytes);
  EXPECT_EQ(a.memory.peak_bytes, b.memory.peak_bytes);
  EXPECT_EQ(a.memory.total_allocated_bytes, b.memory.total_allocated_bytes);
  EXPECT_EQ(a.memory.nodes_created, b.memory.nodes_created);
  EXPECT_EQ(a.memory.graphs_created, b.memory.graphs_created);

  EXPECT_EQ(a.degradation.rung_applications, b.degradation.rung_applications);
  EXPECT_EQ(a.degradation.rung_seconds, b.degradation.rung_seconds);
  EXPECT_EQ(a.degradation.deadline_drain, b.degradation.deadline_drain);
  EXPECT_EQ(a.degradation.memory_budget_unreachable,
            b.degradation.memory_budget_unreachable);
  EXPECT_EQ(a.degradation.floor, b.degradation.floor);
  ASSERT_EQ(a.degradation.events.size(), b.degradation.events.size());
  for (std::size_t i = 0; i < a.degradation.events.size(); ++i) {
    const auto& ea = a.degradation.events[i];
    const auto& eb = b.degradation.events[i];
    EXPECT_EQ(ea.node, eb.node);
    EXPECT_EQ(ea.rung, eb.rung);
    EXPECT_EQ(ea.trigger, eb.trigger);
    EXPECT_EQ(ea.graphs_before, eb.graphs_before);
    EXPECT_EQ(ea.graphs_after, eb.graphs_after);
  }

  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].widened(), b.per_node[i].widened()) << "stmt " << i;
    ASSERT_EQ(a.per_node[i].size(), b.per_node[i].size()) << "stmt " << i;
    // Member-for-member, not just set-equal: restore() must not reorder,
    // join or coarsen.
    for (std::size_t j = 0; j < a.per_node[i].size(); ++j) {
      EXPECT_EQ(rsg::canonical_key(a.per_node[i].graphs()[j]),
                rsg::canonical_key(b.per_node[i].graphs()[j]))
          << "stmt " << i << " member " << j;
    }
  }
}

class CorpusSnapshotRoundTrip
    : public ::testing::TestWithParam<rsg::AnalysisLevel> {};

TEST_P(CorpusSnapshotRoundTrip, ExitStateAndFullResultAreCanonIdentical) {
  for (const corpus::CorpusProgram& program : corpus::all_programs()) {
    SCOPED_TRACE(std::string(program.name));
    auto prepared = prepare(program.source);
    Options options;
    options.level = GetParam();
    const AnalysisResult result = analyze_program(prepared, options);

    // Exit-state Rsrsg snapshot, restored into the originating interner
    // (keys are symbol-id-based, so exact identity is a same-interner
    // property; cross-interner stability is the byte-identity check below).
    const Rsrsg& exit_state = result.at_exit(prepared.cfg);
    {
      const std::string bytes =
          serialize_rsrsg(exit_state, prepared.interner());
      const Rsrsg back = deserialize_rsrsg(bytes, *prepared.unit.interner);
      EXPECT_EQ(exit_state.widened(), back.widened());
      ASSERT_EQ(exit_state.size(), back.size());
      for (std::size_t j = 0; j < exit_state.size(); ++j) {
        EXPECT_EQ(rsg::canonical_key(exit_state.graphs()[j]),
                  rsg::canonical_key(back.graphs()[j]))
            << "member " << j;
      }
      EXPECT_TRUE(exit_state.equals(back));

      // Cross-interner round trip re-serializes to the exact same bytes.
      support::Interner fresh;
      const Rsrsg reinterned = deserialize_rsrsg(bytes, fresh);
      EXPECT_EQ(serialize_rsrsg(reinterned, fresh), bytes);
    }

    // Whole-result snapshot.
    {
      const std::string bytes =
          serialize_analysis_result(result, prepared.interner());
      const AnalysisResult back =
          deserialize_analysis_result(bytes, *prepared.unit.interner);
      expect_same_result(result, back);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, CorpusSnapshotRoundTrip,
                         ::testing::Values(rsg::AnalysisLevel::kL1,
                                           rsg::AnalysisLevel::kL2,
                                           rsg::AnalysisLevel::kL3),
                         [](const auto& info) {
                           return std::string(rsg::to_string(info.param));
                         });

TEST(FuzzSnapshotRoundTrip, RandomProgramResultsAreCanonIdentical) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string source = psa::testing::generate_program(seed);
    auto prepared = prepare(source);
    Options options;
    options.level = rsg::AnalysisLevel::kL2;
    options.max_node_visits = 200'000;
    const AnalysisResult result = analyze_program(prepared, options);

    const std::string bytes =
        serialize_analysis_result(result, prepared.interner());
    const AnalysisResult back =
        deserialize_analysis_result(bytes, *prepared.unit.interner);
    expect_same_result(result, back);
  }
}

TEST(FuzzSnapshotRoundTrip, WidenedRunRoundTripsDegradationReport) {
  // Force the governor to work (tiny widen threshold) so the snapshot
  // carries a non-trivial degradation report and widened-mode sets.
  const std::string source = psa::testing::generate_program(3);
  auto prepared = prepare(source);
  Options options;
  options.level = rsg::AnalysisLevel::kL2;
  options.widen_threshold = 2;
  options.max_node_visits = 200'000;
  const AnalysisResult result = analyze_program(prepared, options);

  const std::string bytes =
      serialize_analysis_result(result, prepared.interner());
  const AnalysisResult back =
      deserialize_analysis_result(bytes, *prepared.unit.interner);
  expect_same_result(result, back);
}

TEST(SnapshotCorruption, BitFlipsInResultSnapshotsAreRejected) {
  const auto prepared = prepare(std::string(
      corpus::find_program("sll")->source));
  const AnalysisResult result = analyze_program(prepared, Options{});
  const std::string bytes =
      serialize_analysis_result(result, prepared.interner());

  support::Interner fresh;
  // Sampled flips (the exhaustive sweep lives in serialize_test.cpp —
  // result snapshots are big).
  for (std::size_t byte = 0; byte < bytes.size();
       byte += 1 + bytes.size() / 256) {
    std::string mutated = bytes;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x20);
    EXPECT_THROW((void)deserialize_analysis_result(mutated, fresh),
                 SnapshotError)
        << "byte " << byte;
  }
}

TEST(SnapshotCorruption, TruncationsOfResultSnapshotsAreRejected) {
  const auto prepared = prepare(std::string(
      corpus::find_program("sll")->source));
  const AnalysisResult result = analyze_program(prepared, Options{});
  const std::string bytes =
      serialize_analysis_result(result, prepared.interner());

  support::Interner fresh;
  for (std::size_t n = 0; n < bytes.size(); n += 1 + bytes.size() / 128) {
    EXPECT_THROW(
        (void)deserialize_analysis_result(bytes.substr(0, n), fresh),
        SnapshotError)
        << "prefix length " << n;
  }
}

}  // namespace
}  // namespace psa::analysis
