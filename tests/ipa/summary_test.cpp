// Function-summary computation and the kCall transfer, end to end: clean
// in-unit calls are summarized (no havoc, full checker confidence), unusable
// summaries fall back to the sound havoc transfer, and summarized results
// stay sound against the concrete interpreter at every level.
#include "ipa/summarize.hpp"

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "checker/checker.hpp"
#include "support/metrics.hpp"
#include "testing/concrete_oracle.hpp"

namespace psa::ipa {
namespace {

using analysis::AnalysisResult;
using analysis::Options;
using analysis::ProgramAnalysis;

/// The multi-function list pipeline: build, fold, release — every call is a
/// clean in-unit call, so nothing in this unit ever havocs.
constexpr std::string_view kListPipeline = R"(
  struct node { struct node *nxt; int val; };
  struct node *push(struct node *list) {
    struct node *t;
    t = malloc(struct node);
    t->nxt = list;
    t->val = 1;
    return t;
  }
  int sum(struct node *list) {
    struct node *p;
    int acc;
    acc = 0;
    p = list;
    while (p != NULL) {
      acc = acc + p->val;
      p = p->nxt;
    }
    return acc;
  }
  void release(struct node *list) {
    struct node *t;
    while (list != NULL) {
      t = list;
      list = list->nxt;
      free(t);
    }
  }
  void main() {
    struct node *l;
    int i;
    int total;
    l = NULL;
    i = 0;
    while (i < 3) {
      l = push(l);
      i = i + 1;
    }
    total = sum(l);
    release(l);
  }
)";

const FunctionSummary& summary_of(const SummaryTable& table,
                                  const ProgramAnalysis& program,
                                  std::string_view name) {
  const auto it = table.find(program.symbol(name));
  EXPECT_NE(it, table.end()) << "no summary for " << name;
  return it->second;
}

TEST(SummaryTest, ProjectionsMatchTheCalleesEffects) {
  const ProgramAnalysis program = analysis::prepare(kListPipeline);
  ASSERT_EQ(program.unit_cfgs.size(), 4u);
  const SummaryTable table = compute_summaries(program, {});

  // push: allocates and returns a fresh cell; the store t->nxt = list
  // writes a field of its *own* allocation, which is not a caller-visible
  // mutation.
  const FunctionSummary& push = summary_of(table, program, "push");
  ASSERT_TRUE(push.analyzed);
  EXPECT_FALSE(push.havoc_tainted);
  EXPECT_FALSE(push.mutates_heap);
  EXPECT_FALSE(push.may_free);
  EXPECT_EQ(push.ret_kinds, kRetFresh);
  EXPECT_EQ(push.alloc_types.size(), 1u);
  EXPECT_EQ(push.params.size(), 1u);

  // sum only reads; release frees argument-reachable cells.
  const FunctionSummary& sum = summary_of(table, program, "sum");
  ASSERT_TRUE(sum.analyzed);
  EXPECT_FALSE(sum.mutates_heap);
  EXPECT_FALSE(sum.may_free);
  const FunctionSummary& release = summary_of(table, program, "release");
  ASSERT_TRUE(release.analyzed);
  EXPECT_TRUE(release.may_free);
}

TEST(SummaryTest, ParamWritingCalleeIsAMutator) {
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    void link(struct node *a, struct node *b) { a->nxt = b; }
    void main() {
      struct node *x; struct node *y;
      x = malloc(struct node);
      y = malloc(struct node);
      link(x, y);
    }
  )");
  const SummaryTable table = compute_summaries(program, {});
  const FunctionSummary& link = summary_of(table, program, "link");
  ASSERT_TRUE(link.analyzed);
  EXPECT_TRUE(link.mutates_heap);
  EXPECT_FALSE(link.may_free);
  EXPECT_FALSE(link.havoc_tainted);
}

TEST(SummaryTest, IdentityReturnIsParamDerivedAndNullPathIsNull) {
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    struct node *second_or_null(struct node *l) {
      struct node *r;
      if (l == NULL) { return NULL; }
      r = l->nxt;
      return r;
    }
    void main() {
      struct node *p; struct node *q;
      p = malloc(struct node);
      q = second_or_null(p);
    }
  )");
  const SummaryTable table = compute_summaries(program, {});
  const FunctionSummary& f = summary_of(table, program, "second_or_null");
  ASSERT_TRUE(f.analyzed);
  EXPECT_NE(f.ret_kinds & kRetNull, 0);
  EXPECT_NE(f.ret_kinds & kRetParamDerived, 0);
  EXPECT_EQ(f.ret_kinds & kRetFresh, 0);
}

TEST(SummaryTest, RecursiveSccReachesAStableSummary) {
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    struct node *last(struct node *l) {
      struct node *r;
      if (l == NULL) { return NULL; }
      if (l->nxt == NULL) { return l; }
      r = last(l->nxt);
      return r;
    }
    void main() {
      struct node *p; struct node *e;
      p = malloc(struct node);
      e = last(p);
    }
  )");
  const support::MetricsRegion region;
  const SummaryTable table = compute_summaries(program, {});
  const FunctionSummary& last = summary_of(table, program, "last");
  ASSERT_TRUE(last.analyzed);
  EXPECT_NE(last.ret_kinds & kRetNull, 0);
  EXPECT_NE(last.ret_kinds & kRetParamDerived, 0);
  const support::MetricsSnapshot delta = region.delta();
  // At least two Kleene passes: one that grows, one that proves stability.
  EXPECT_GE(delta[support::Counter::kSummaryFixpointIters], 2u);
  // Only what main's calls reach is summarized: `last`, not main itself.
  EXPECT_EQ(delta[support::Counter::kSummaryComputed], 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SummaryTest, CleanUnitAnalyzesWithoutAnyHavocFallback) {
  const ProgramAnalysis program = analysis::prepare(kListPipeline);
  EXPECT_EQ(program.salvage.havoc_sites, 0u);
  const support::MetricsRegion region;
  const AnalysisResult result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCallHavocFallback], 0u);
  EXPECT_GE(delta[support::Counter::kSummaryComputed], 3u);
  EXPECT_GE(delta[support::Counter::kSummaryApplied], 3u);
  // Clean summaries taint nothing: every exit configuration keeps full
  // confidence.
  for (const rsg::Rsg& g : result.at_exit(program.cfg).graphs()) {
    EXPECT_FALSE(g.havoc());
  }
}

TEST(SummaryTest, DisablingSummariesRestoresTheHavocFallback) {
  const ProgramAnalysis program = analysis::prepare(kListPipeline);
  Options options;
  options.enable_summaries = false;
  const support::MetricsRegion region;
  const AnalysisResult result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kSummaryComputed], 0u);
  EXPECT_EQ(delta[support::Counter::kSummaryApplied], 0u);
  EXPECT_GE(delta[support::Counter::kCallHavocFallback], 3u);
}

TEST(SummaryTest, OverBudgetSccFallsBackToHavocSoundly) {
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    struct node *spin(struct node *l) {
      struct node *r;
      if (l == NULL) { return NULL; }
      r = spin(l->nxt);
      return r;
    }
    void main() {
      struct node *p; struct node *q;
      p = malloc(struct node);
      q = spin(p);
    }
  )");
  Options options;
  options.max_summary_iters = 0;  // the SCC can never stabilize
  const support::MetricsRegion region;
  const AnalysisResult result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_GE(delta[support::Counter::kCallHavocFallback], 1u);
  EXPECT_EQ(delta[support::Counter::kSummaryApplied], 0u);
  // The fallback is a genuine degradation: exit states carry the taint.
  bool any_tainted = false;
  for (const rsg::Rsg& g : result.at_exit(program.cfg).graphs()) {
    any_tainted |= g.havoc();
  }
  EXPECT_TRUE(any_tainted);
}

TEST(SummaryTest, WrapperOfUnanalyzedFreeingCalleeDegradesToFallback) {
  // spin() frees argument-reachable cells but its SCC can never stabilize
  // under max_summary_iters = 0, so its summary is unanalyzed. wrap() is a
  // thin wrapper around it: projecting wrap as analyzed would claim
  // may_free == false (and drop spin's alloc sites), hiding use-after-free
  // at wrap's call sites. The wrapper must degrade to unanalyzed too, so
  // its callers take the sound havoc fallback.
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    void spin(struct node *l) {
      struct node *t;
      if (l != NULL) {
        t = l->nxt;
        free(l);
        spin(t);
      }
    }
    void wrap(struct node *l) {
      spin(l);
    }
    void main() {
      struct node *x; struct node *p;
      x = malloc(struct node);
      wrap(x);
      p = x->nxt;
    }
  )");
  Options options;
  options.max_summary_iters = 0;
  const SummaryTable table = compute_summaries(program, options);
  EXPECT_FALSE(summary_of(table, program, "spin").analyzed);
  EXPECT_FALSE(summary_of(table, program, "wrap").analyzed);

  // End to end: the load through x after wrap(x) must surface as a
  // use-after-free — the fallback widens the region to maybe-freed.
  const AnalysisResult result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  const auto findings = checker::run_checkers(program, result);
  EXPECT_GE(checker::count_findings(findings, checker::CheckKind::kUseAfterFree),
            1u);
}

TEST(SummaryTest, CheckerKeepsFullConfidenceThroughCleanSummaries) {
  // main leaks the list push() built: a real finding whose witness flows
  // through a summarized call — it must NOT be downgraded to "possible".
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    struct node *push(struct node *list) {
      struct node *t;
      t = malloc(struct node);
      t->nxt = list;
      return t;
    }
    void main() {
      struct node *l;
      l = NULL;
      l = push(l);
      l = NULL;
    }
  )");
  const AnalysisResult result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  const auto findings = checker::run_checkers(program, result);
  std::size_t leaks = 0;
  for (const auto& f : findings) {
    if (f.kind == checker::CheckKind::kLeak ||
        f.kind == checker::CheckKind::kLeakAtExit) {
      ++leaks;
      EXPECT_FALSE(f.degraded)
          << "summary-derived witness lost full confidence";
    }
  }
  EXPECT_GE(leaks, 1u);
}

TEST(SummaryTest, FreeingCalleeWidensTheRegionForTheCheckers) {
  // release() frees the list; the later load through l must surface as a
  // may-use-after-free — the summary's may_free bit carries the effect
  // across the call.
  const ProgramAnalysis program = analysis::prepare(R"(
    struct node { struct node *nxt; };
    void release(struct node *list) {
      struct node *t;
      while (list != NULL) {
        t = list;
        list = list->nxt;
        free(t);
      }
    }
    void main() {
      struct node *l; struct node *p;
      l = malloc(struct node);
      release(l);
      p = l->nxt;
    }
  )");
  const AnalysisResult result = analysis::analyze_program(program, {});
  ASSERT_TRUE(result.converged());
  const auto findings = checker::run_checkers(program, result);
  EXPECT_GE(checker::count_findings(findings, checker::CheckKind::kUseAfterFree),
            1u);
}

// ---------------------------------------------------------------------------
// Soundness: the summarized whole-unit result covers the cross-function
// concrete interpreter at every level and under governor degradation.
// ---------------------------------------------------------------------------

class SummarySoundness : public testing::TestWithParam<rsg::AnalysisLevel> {};

TEST_P(SummarySoundness, SummarizedRunCoversConcreteExecutions) {
  const ProgramAnalysis program = analysis::prepare(kListPipeline);
  Options options;
  options.level = GetParam();
  const AnalysisResult result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  const int checked = oracle::expect_covers_concrete(
      program, result.at_exit(program.cfg), /*seeds=*/40);
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Levels, SummarySoundness,
                         testing::Values(rsg::AnalysisLevel::kL1,
                                         rsg::AnalysisLevel::kL2,
                                         rsg::AnalysisLevel::kL3),
                         [](const auto& info) {
                           switch (info.param) {
                             case rsg::AnalysisLevel::kL1: return "L1";
                             case rsg::AnalysisLevel::kL2: return "L2";
                             case rsg::AnalysisLevel::kL3: return "L3";
                           }
                           return "unknown";
                         });

TEST(SummarySoundnessTest, GovernorDegradedSummarizedRunStaysSound) {
  const ProgramAnalysis program = analysis::prepare(kListPipeline);
  Options options;
  options.level = rsg::AnalysisLevel::kL2;
  options.max_node_visits = 40;  // forces the visit ladder mid-fixpoint
  const AnalysisResult result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  EXPECT_TRUE(result.degraded());
  const int checked = oracle::expect_covers_concrete(
      program, result.at_exit(program.cfg), /*seeds=*/40);
  EXPECT_GT(checked, 0);
}

TEST(SummarySoundnessTest, FallbackRunStaysSoundAgainstTheRealCallee) {
  // Summaries off: every call site takes the havoc fallback while the
  // concrete interpreter still executes the real callee bodies (including
  // release()'s frees) — the fallback envelope must cover them.
  const ProgramAnalysis program = analysis::prepare(kListPipeline);
  Options options;
  options.enable_summaries = false;
  const AnalysisResult result = analysis::analyze_program(program, options);
  ASSERT_TRUE(result.converged());
  const int checked = oracle::expect_covers_concrete(
      program, result.at_exit(program.cfg), /*seeds=*/40);
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace psa::ipa
