// The analyzer facade: prepare / analyze_source / error paths.
#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include "support/metrics.hpp"

namespace psa::analysis {
namespace {

constexpr std::string_view kGood = R"(
  struct node { struct node *nxt; };
  void main() { struct node *p; p = malloc(struct node); }
)";

TEST(AnalyzerTest, PrepareBuildsEverything) {
  const ProgramAnalysis program = prepare(kGood);
  EXPECT_GT(program.cfg.size(), 2u);
  EXPECT_FALSE(program.sema.functions.empty());
  EXPECT_TRUE(program.symbol("p").valid());
  EXPECT_FALSE(program.symbol("no_such_name").valid());
}

TEST(AnalyzerTest, AnalyzeSourceOneCall) {
  const AnalysisResult result = analyze_source(kGood);
  EXPECT_TRUE(result.converged());
}

TEST(AnalyzerTest, SyntaxErrorThrows) {
  EXPECT_THROW((void)prepare("void main() { while }"), FrontendError);
}

TEST(AnalyzerTest, SemaErrorThrows) {
  EXPECT_THROW((void)prepare("void main() { x = 1; }"), FrontendError);
}

TEST(AnalyzerTest, MissingFunctionThrows) {
  EXPECT_THROW((void)prepare(kGood, "other"), FrontendError);
  EXPECT_NO_THROW((void)prepare(R"(
    struct node { struct node *nxt; };
    void helper() { struct node *q; q = NULL; }
    void main() { }
  )", "helper"));
}

TEST(AnalyzerTest, DiagnosticsCarriedInException) {
  try {
    (void)prepare("void main() { undeclared = 1; }");
    FAIL() << "expected FrontendError";
  } catch (const FrontendError& e) {
    EXPECT_NE(std::string(e.what()).find("undeclared"), std::string::npos);
  }
}

TEST(AnalyzerTest, NonMainFunctionAnalyzable) {
  const ProgramAnalysis program = prepare(R"(
    struct node { struct node *nxt; };
    void build() {
      struct node *list; struct node *t; int i;
      list = NULL; i = 0;
      while (i < 5) {
        t = malloc(struct node);
        t->nxt = list;
        list = t;
        i = i + 1;
      }
    }
  )", "build");
  const AnalysisResult result = analyze_program(program, {});
  EXPECT_TRUE(result.converged());
  EXPECT_FALSE(result.at_exit(program.cfg).empty());
}

TEST(AnalyzerTest, EmptyMainConverges) {
  const AnalysisResult result = analyze_source("void main() { }");
  EXPECT_TRUE(result.converged());
}

TEST(AnalyzerTest, SalvagedPrepareBumpsTheSalvageCounters) {
  FrontendOptions frontend;
  frontend.salvage = true;
  const support::MetricsRegion region;
  const auto program = prepare(R"(
    struct node { struct node *nxt; };
    void broken() { x = ; }
    void main() {
      struct node *p;
      p = malloc(struct node);
      trace(p);
    }
  )", "main", frontend);
  EXPECT_EQ(program.salvage.havoc_sites, 1u);
  EXPECT_EQ(program.salvage.skipped_decls, 1u);
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kHavocSites], 1u);
  EXPECT_EQ(delta[support::Counter::kSkippedDecls], 1u);
  EXPECT_EQ(delta[support::Counter::kSalvagedUnits], 1u);
}

TEST(AnalyzerTest, CleanPrepareLeavesTheSalvageCountersUntouched) {
  const support::MetricsRegion region;
  (void)prepare("void main() { }");
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kHavocSites], 0u);
  EXPECT_EQ(delta[support::Counter::kSkippedDecls], 0u);
  EXPECT_EQ(delta[support::Counter::kSalvagedUnits], 0u);
}

}  // namespace
}  // namespace psa::analysis
