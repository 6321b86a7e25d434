// Serialization round-trip property suite for analysis-layer snapshots: for
// every corpus program at L1/L2/L3 and for fuzz-generated programs, every
// statement's restored Rsrsg is canon-identical to the original
// (member-for-member key-equal, widened flag kept), and the result's scalar
// record (status, resource accounting, degradation report, counters)
// round-trips bit for bit. The corruption suites for the records as the
// batch payload composes them live in tests/driver/payload_test.cpp.
#include "analysis/snapshot.hpp"

#include <gtest/gtest.h>

#include <string>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "rsg/canon.hpp"
#include "testing/program_gen.hpp"

namespace psa::analysis {
namespace {

void expect_same_scalars(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.seconds, b.seconds);  // f64 bit pattern round-trips exactly
  EXPECT_EQ(a.node_visits, b.node_visits);
  EXPECT_EQ(a.memory.live_bytes, b.memory.live_bytes);
  EXPECT_EQ(a.memory.peak_bytes, b.memory.peak_bytes);
  EXPECT_EQ(a.memory.total_allocated_bytes, b.memory.total_allocated_bytes);
  EXPECT_EQ(a.memory.nodes_created, b.memory.nodes_created);
  EXPECT_EQ(a.memory.graphs_created, b.memory.graphs_created);
  EXPECT_EQ(a.ops.values, b.ops.values);

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
}

/// The scalar record round trip: bit-exact, and it restores no state.
void expect_scalars_round_trip(const AnalysisResult& result) {
  rsg::ByteWriter out;
  append_result_scalars(out, result);
  const std::string bytes = out.take();
  rsg::ByteReader in(bytes);
  const AnalysisResult back = read_result_scalars(in);
  in.expect_end("result scalars");
  expect_same_scalars(result, back);
  EXPECT_TRUE(back.per_node.empty());
}

/// Every statement's Rsrsg through serialize_rsrsg, restored into the
/// originating interner (keys are symbol-id-based, so exact identity is a
/// same-interner property). Member-for-member, not just set-equal:
/// restore() must not reorder, join or coarsen.
void expect_states_round_trip(const AnalysisResult& result,
                              ProgramAnalysis& prepared) {
  for (std::size_t i = 0; i < result.per_node.size(); ++i) {
    const Rsrsg& state = result.per_node[i];
    const Rsrsg back = deserialize_rsrsg(
        serialize_rsrsg(state, prepared.interner()), *prepared.unit.interner);
    EXPECT_EQ(state.widened(), back.widened()) << "stmt " << i;
    ASSERT_EQ(state.size(), back.size()) << "stmt " << i;
    for (std::size_t j = 0; j < state.size(); ++j) {
      EXPECT_EQ(rsg::canonical_key(state.graphs()[j]),
                rsg::canonical_key(back.graphs()[j]))
          << "stmt " << i << " member " << j;
    }
    EXPECT_TRUE(state.equals(back)) << "stmt " << i;
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

    // Cross-interner stability of the exit state: re-serializing a state
    // restored into a fresh interner reproduces the exact bytes.
    {
      const std::string bytes =
          serialize_rsrsg(result.at_exit(prepared.cfg), prepared.interner());
      support::Interner fresh;
      const Rsrsg reinterned = deserialize_rsrsg(bytes, fresh);
      EXPECT_EQ(serialize_rsrsg(reinterned, fresh), bytes);
    }

    expect_states_round_trip(result, prepared);
    expect_scalars_round_trip(result);
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

    expect_states_round_trip(result, prepared);
    expect_scalars_round_trip(result);
  }
}

TEST(FuzzSnapshotRoundTrip, WidenedRunRoundTripsDegradationReport) {
  // Force the governor to work (a memory budget the run cannot meet) so
  // the scalar record carries a non-trivial degradation report.
  const std::string source = psa::testing::generate_program(3);
  auto prepared = prepare(source);
  Options options;
  options.level = rsg::AnalysisLevel::kL2;
  options.widen_threshold = 2;
  options.max_node_visits = 200'000;
  options.memory_budget_bytes = 8192;
  const AnalysisResult result = analyze_program(prepared, options);
  ASSERT_FALSE(result.degradation.events.empty());
  ASSERT_TRUE(result.degradation.memory_budget_unreachable);

  expect_states_round_trip(result, prepared);
  expect_scalars_round_trip(result);
}

}  // namespace
}  // namespace psa::analysis
