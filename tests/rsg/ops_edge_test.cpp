// Edge cases of the RSG operations: self-links, pvar self-stores, chained
// compatibility in COMPRESS, empty graphs, level interactions.
#include <gtest/gtest.h>

#include "rsg/canon.hpp"
#include "rsg/ops.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::rsg {
namespace {

using psa::testing::RsgBuilder;

constexpr LevelPolicy kL1{AnalysisLevel::kL1};
constexpr LevelPolicy kL2{AnalysisLevel::kL2};
constexpr LevelPolicy kL3{AnalysisLevel::kL3};

TEST(OpsEdgeTest, DivideOnSelfLink) {
  // x's node points to itself and to another node via nxt.
  RsgBuilder b;
  const NodeRef n = b.node();
  const NodeRef m = b.node();
  b.pvar("x", n).pvar("y", m);
  b.link(n, "nxt", n).link(n, "nxt", m);
  b.pos_selout(n, "nxt");
  const auto parts = divide(b.g, b.sym("x"), b.sym("nxt"));
  // Variants: null, self-target, m-target.
  ASSERT_EQ(parts.size(), 3u);
  int self_variants = 0;
  for (const Rsg& p : parts) {
    const NodeRef pn = p.pvar_target(b.sym("x"));
    const auto targets = p.sel_targets(pn, b.sym("nxt"));
    if (targets.size() == 1 && targets[0] == pn) ++self_variants;
  }
  EXPECT_EQ(self_variants, 1);
}

TEST(OpsEdgeTest, MaterializeSelfLinkedSummary) {
  // x -> n -nxt-> m where m only links to itself: a possibly-circular rest.
  RsgBuilder b;
  const NodeRef n = b.node();
  const NodeRef m = b.node(Cardinality::kMany);
  b.pvar("x", n);
  b.link(n, "nxt", m).selout(n, "nxt");
  b.link(m, "nxt", m);
  b.selin(m, "nxt");
  b.pos_selout(m, "nxt");
  b.shsel(m, "nxt").shared(m);  // permit genuine sharing: nothing prunable
  const auto mats = materialize(b.g, n, b.sym("nxt"));
  ASSERT_FALSE(mats.empty());
  for (const auto& mat : mats) {
    EXPECT_EQ(mat.graph.props(mat.one_node).cardinality, Cardinality::kOne);
    // The focused link exists and is unique.
    const auto targets = mat.graph.sel_targets(n, b.sym("nxt"));
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_EQ(targets[0], mat.one_node);
  }
}

TEST(OpsEdgeTest, CompressChainsCompatibility) {
  // Three deep nodes pairwise compatible -> all summarize into one.
  RsgBuilder b;
  const NodeRef h = b.node();
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  const NodeRef d = b.node();
  b.pvar("x", h);
  b.link(h, "nxt", a).link(a, "nxt", c).link(c, "nxt", d).link(d, "nxt", a);
  for (const NodeRef n : {a, c, d}) {
    b.selin(n, "nxt");
    b.pos_selout(n, "nxt");
    b.shsel(n, "nxt").shared(n);  // self-consistent cyclic tail
  }
  compress(b.g, kL1);
  // h stays (pvar-pointed); a, c, d merge (same props, same component).
  EXPECT_EQ(b.g.node_count(), 2u);
}

TEST(OpsEdgeTest, CompressFoldsCycleLinksAgainstTheGrowingClass) {
  // One class of three nodes, folded into the first in ascending order:
  // only the middle member has an nxt out-link, and the last carries
  // <nxt,prv>. By the last fold the representative owns the middle's nxt
  // link, so the pair no longer holds vacuously for it: the summary drops
  // it.
  RsgBuilder b;
  const NodeRef h = b.node();
  const NodeRef first = b.node();
  const NodeRef middle = b.node();
  const NodeRef last = b.node();
  b.pvar("x", h);
  for (const NodeRef n : {first, middle, last}) b.link(h, "lnk", n);
  b.link(middle, "nxt", last);
  b.cyclelink(last, "nxt", "prv");
  compress(b.g, kL1);
  ASSERT_EQ(b.g.node_count(), 2u);
  const auto summary =
      b.g.sel_targets(b.g.pvar_target(b.sym("x")), b.sym("lnk"));
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(b.g.props(summary[0]).cardinality, Cardinality::kMany);
  EXPECT_FALSE(b.g.props(summary[0]).cyclelinks.contains(
      SelPair{b.sym("nxt"), b.sym("prv")}));
}

TEST(OpsEdgeTest, CompressRespectsLevel) {
  // The node one step from the pvar merges with deeper nodes at L1 only.
  auto build = [](RsgBuilder& b) {
    const NodeRef h = b.node();
    const NodeRef second = b.node();
    const NodeRef deep = b.node();
    b.pvar("x", h);
    b.link(h, "nxt", second).link(second, "nxt", deep);
    b.selout(h, "nxt");
    for (const NodeRef n : {second, deep}) {
      b.selin(n, "nxt");
      b.pos_selout(n, "nxt");
    }
  };
  RsgBuilder l1;
  build(l1);
  compress(l1.g, kL1);
  EXPECT_EQ(l1.g.node_count(), 2u);  // second+deep summarized

  RsgBuilder l2(l1.interner_ptr());
  build(l2);
  compress(l2.g, kL2);
  EXPECT_EQ(l2.g.node_count(), 3u);  // C_SPATH1 keeps the second separate
}

TEST(OpsEdgeTest, CompressRespectsTouchOnlyAtL3) {
  auto build = [](RsgBuilder& b) {
    const NodeRef h = b.node();
    const NodeRef a = b.node();
    const NodeRef c = b.node();
    b.pvar("x", h);
    b.link(h, "nxt", a).link(h, "nxt", c);
    b.link(a, "nxt", c).link(c, "nxt", a);  // same component
    for (const NodeRef n : {a, c}) {
      b.pos_selin(n, "nxt");
      b.pos_selout(n, "nxt");
    }
    b.touch(a, "p");
  };
  RsgBuilder l2;
  build(l2);
  compress(l2.g, kL2);
  // L2 merges only if SPATH1 allows: both are one step from x via nxt.
  EXPECT_EQ(l2.g.node_count(), 2u);

  RsgBuilder l3(l2.interner_ptr());
  build(l3);
  compress(l3.g, kL3);
  EXPECT_EQ(l3.g.node_count(), 3u);  // TOUCH difference blocks the merge
}

TEST(OpsEdgeTest, JoinEmptyGraphs) {
  Rsg a;
  Rsg b;
  EXPECT_TRUE(compatible(a, b, kL1));
  const Rsg joined = join(a, b, kL1);
  EXPECT_EQ(joined.node_count(), 0u);
}

TEST(OpsEdgeTest, PruneEmptyGraphFeasible) {
  Rsg g;
  EXPECT_TRUE(prune(g));
}

TEST(OpsEdgeTest, CoarsenEmptyAndSingleton) {
  Rsg g;
  coarsen(g, kL1);
  EXPECT_EQ(g.node_count(), 0u);
  RsgBuilder b;
  b.pvar("x", b.node());
  coarsen(b.g, kL1);
  EXPECT_EQ(b.g.node_count(), 1u);
}

TEST(OpsEdgeTest, ForceJoinRequiresAliasEquality) {
  // force_join on alias-different graphs is a programming error upstream;
  // the widening layer guards it with alias_equal. Verify the guard's
  // building block here.
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  b.pvar("y", b.node());
  EXPECT_FALSE(alias_equal(a.g, b.g));
}

TEST(OpsEdgeTest, FingerprintOfWidenedFoldIsStable) {
  // coarsen is deterministic: applying it twice yields an isomorphic graph.
  RsgBuilder b;
  const NodeRef h = b.node();
  NodeRef prev = h;
  for (int i = 0; i < 4; ++i) {
    const NodeRef n = b.node(Cardinality::kMany);
    b.link(prev, "nxt", n);
    prev = n;
  }
  b.pvar("x", h);
  Rsg once = b.g;
  coarsen(once, kL1);
  Rsg twice = once;
  coarsen(twice, kL1);
  EXPECT_EQ(canonical_key(once), canonical_key(twice));
}

}  // namespace
}  // namespace psa::rsg
