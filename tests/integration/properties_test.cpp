// Property-based integration sweeps: structural invariants of every RSG the
// engine produces, across corpus programs x analysis levels.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "rsg/canon.hpp"
#include "testing/invariants.hpp"

namespace psa {
namespace {

using analysis::prepare;
using rsg::Cardinality;
using rsg::NodeRef;
using rsg::Rsg;

using psa::testing::verify_rsg_invariants;

struct SweepParam {
  const char* program;
  rsg::AnalysisLevel level;
};

class InvariantSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InvariantSweep, EveryProducedRsgIsWellFormed) {
  const auto& [name, level] = GetParam();
  const auto program = prepare(corpus::find_program(name)->source);
  analysis::Options options;
  options.level = level;
  options.max_node_visits = 100'000;
  const auto result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  for (std::size_t i = 0; i < result.per_node.size(); ++i) {
    for (const Rsg& g : result.per_node[i].graphs()) {
      verify_rsg_invariants(
          g, program.interner(),
          std::string(name) + "/" + std::string(rsg::to_string(level)) +
              "/stmt" + std::to_string(i));
    }
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const char* name : {"sll", "dll", "list_reverse", "nary_tree",
                           "two_lists", "visit_marks", "barnes_hut_small"}) {
    for (const auto level : {rsg::AnalysisLevel::kL1, rsg::AnalysisLevel::kL2,
                             rsg::AnalysisLevel::kL3}) {
      out.push_back({name, level});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    CorpusTimesLevels, InvariantSweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(info.param.program) + "_" +
             std::string(rsg::to_string(info.param.level));
    });

// Fixpoint idempotence: re-running the engine on the same input produces
// isomorphic per-statement RSRSGs (the equality oracle is sound in both
// directions across runs).
class IdempotenceSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(IdempotenceSweep, RepeatedAnalysisIsStable) {
  const auto program = prepare(corpus::find_program(GetParam())->source);
  const auto r1 = analysis::analyze_program(program, {});
  const auto r2 = analysis::analyze_program(program, {});
  ASSERT_TRUE(r1.converged());
  for (std::size_t i = 0; i < r1.per_node.size(); ++i) {
    ASSERT_TRUE(r1.per_node[i].equals(r2.per_node[i]));
    for (std::size_t k = 0; k < r1.per_node[i].graphs().size(); ++k) {
      // Keys of equal sets must match member-for-member.
      const auto key = rsg::canonical_key(r1.per_node[i].graphs()[k]);
      bool matched = false;
      for (std::size_t j = 0; j < r2.per_node[i].graphs().size(); ++j) {
        matched |= key == rsg::canonical_key(r2.per_node[i].graphs()[j]);
      }
      EXPECT_TRUE(matched);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, IdempotenceSweep,
                         ::testing::Values("sll", "dll", "list_reverse",
                                           "two_lists"));

// Soundness cross-check: L2/L3 never report sharing that L1 proves absent
// is *not* guaranteed (higher levels are more precise), but the reverse
// holds: anything proven unshared at L1 stays unshared at L2/L3 for these
// list codes.
class MonotonePrecisionSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(MonotonePrecisionSweep, HigherLevelsNeverLosePrecisionOnSharing) {
  const auto program = prepare(corpus::find_program(GetParam())->source);
  std::vector<bool> shared_any;
  for (const auto level : {rsg::AnalysisLevel::kL1, rsg::AnalysisLevel::kL2,
                           rsg::AnalysisLevel::kL3}) {
    analysis::Options options;
    options.level = level;
    const auto result = analysis::analyze_program(program, options);
    ASSERT_TRUE(result.converged());
    bool any = false;
    for (const Rsg& g : result.at_exit(program.cfg).graphs()) {
      for (const NodeRef n : g.node_refs()) any |= g.props(n).shared;
    }
    shared_any.push_back(any);
  }
  EXPECT_GE(shared_any[0], shared_any[1]);
  EXPECT_GE(shared_any[1], shared_any[2]);
}

INSTANTIATE_TEST_SUITE_P(Programs, MonotonePrecisionSweep,
                         ::testing::Values("sll", "list_reverse",
                                           "visit_marks"));

}  // namespace
}  // namespace psa
