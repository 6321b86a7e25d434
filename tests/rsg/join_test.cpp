// ALIAS / COMPATIBLE / JOIN (§4, §4.3) and the force-join widening.
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "rsg/canon.hpp"
#include "rsg/ops.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::rsg {
namespace {

using psa::testing::RsgBuilder;

constexpr LevelPolicy kL1{AnalysisLevel::kL1};

TEST(AliasEqualTest, SameBindingsEqual) {
  RsgBuilder a;
  a.pvar("x", a.node()).pvar("y", a.node());
  RsgBuilder b(a.interner_ptr());
  b.pvar("x", b.node()).pvar("y", b.node());
  EXPECT_TRUE(alias_equal(a.g, b.g));
}

TEST(AliasEqualTest, DifferentBoundSetsDiffer) {
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  b.pvar("y", b.node());
  EXPECT_FALSE(alias_equal(a.g, b.g));
}

TEST(AliasEqualTest, PartitionMatters) {
  // In a, x and y alias; in b they do not.
  RsgBuilder a;
  const NodeRef n = a.node();
  a.pvar("x", n).pvar("y", n);
  RsgBuilder b(a.interner_ptr());
  b.pvar("x", b.node()).pvar("y", b.node());
  EXPECT_FALSE(alias_equal(a.g, b.g));
}

TEST(CompatibleTest, RequiresPerPvarNodeCompatibility) {
  RsgBuilder a;
  const NodeRef na = a.node();
  a.pvar("x", na);
  a.shared(na);
  RsgBuilder b(a.interner_ptr());
  b.pvar("x", b.node());
  EXPECT_TRUE(alias_equal(a.g, b.g));
  EXPECT_FALSE(compatible(a.g, b.g, kL1));  // SHARED differs on x's node
}

TEST(CompatibleTest, IdenticalShapesCompatible) {
  auto make = [](RsgBuilder& b) {
    const NodeRef h = b.node();
    const NodeRef t = b.node(Cardinality::kMany);
    b.pvar("x", h);
    b.link(h, "nxt", t).selout(h, "nxt").selin(t, "nxt");
  };
  RsgBuilder a;
  make(a);
  RsgBuilder b(a.interner_ptr());
  make(b);
  EXPECT_TRUE(compatible(a.g, b.g, kL1));
}

TEST(JoinTest, JoinOfIdenticalIsIsomorphic) {
  auto make = [](RsgBuilder& b) {
    const NodeRef h = b.node();
    const NodeRef t = b.node(Cardinality::kMany);
    b.pvar("x", h);
    b.link(h, "nxt", t).selout(h, "nxt").selin(t, "nxt");
    b.link(t, "nxt", t).pos_selout(t, "nxt");
  };
  RsgBuilder a;
  make(a);
  RsgBuilder b(a.interner_ptr());
  make(b);
  const Rsg joined = join(a.g, b.g, kL1);
  EXPECT_EQ(joined.node_count(), 2u);
  EXPECT_NE(joined.pvar_target(a.sym("x")), kNoNode);
}

TEST(JoinTest, OneAndTwoElementListsAreIncompatible) {
  // {x -> n} vs {x -> h -nxt-> t}: x's node definitely has nxt in one
  // configuration and definitely lacks it in the other — C_REFPAT keeps
  // them apart and the RSRSG holds both (exactly what the engine's sll
  // result shows: empty/one/longer lists as separate member graphs).
  RsgBuilder a;
  const NodeRef n = a.node();
  a.pvar("x", n);
  RsgBuilder b(a.interner_ptr());
  const NodeRef h = b.node();
  const NodeRef t = b.node();
  b.pvar("x", h);
  b.link(h, "nxt", t).selout(h, "nxt").selin(t, "nxt");
  EXPECT_TRUE(alias_equal(a.g, b.g));
  EXPECT_FALSE(compatible(a.g, b.g, kL1));
}

TEST(JoinTest, TwoAndThreeElementListsJoin) {
  // {x -> h -nxt-> t} joined with {x -> h' -nxt-> m -nxt-> t'}: the heads
  // and the lasts merge; the middle stays separate (its definite selout
  // cannot cover the last's).
  RsgBuilder a;
  const NodeRef h1 = a.node();
  const NodeRef t1 = a.node();
  a.pvar("x", h1);
  a.link(h1, "nxt", t1).selout(h1, "nxt").selin(t1, "nxt");

  RsgBuilder b(a.interner_ptr());
  const NodeRef h2 = b.node();
  const NodeRef m2 = b.node();
  const NodeRef t2 = b.node();
  b.pvar("x", h2);
  b.link(h2, "nxt", m2).selout(h2, "nxt").selin(m2, "nxt");
  b.link(m2, "nxt", t2).selout(m2, "nxt").selin(t2, "nxt");

  ASSERT_TRUE(compatible(a.g, b.g, kL1));
  const Rsg joined = join(a.g, b.g, kL1);
  const NodeRef xn = joined.pvar_target(a.sym("x"));
  ASSERT_NE(xn, kNoNode);
  EXPECT_TRUE(joined.props(xn).selout.contains(a.sym("nxt")));
  EXPECT_EQ(joined.node_count(), 3u);
}

TEST(JoinTest, CardinalityOnePreservedAcrossConfigs) {
  RsgBuilder a;
  a.pvar("x", a.node(Cardinality::kOne));
  RsgBuilder b(a.interner_ptr());
  b.pvar("x", b.node(Cardinality::kOne));
  const Rsg joined = join(a.g, b.g, kL1);
  EXPECT_EQ(joined.props(joined.pvar_target(a.sym("x"))).cardinality,
            Cardinality::kOne);
}

TEST(JoinTest, LinksOfBothInputsPreserved) {
  RsgBuilder a;
  const NodeRef ha = a.node();
  const NodeRef ta = a.node();
  a.pvar("x", ha).link(ha, "lft", ta);
  RsgBuilder b(a.interner_ptr());
  const NodeRef hb = b.node();
  const NodeRef tb = b.node();
  b.pvar("x", hb).link(hb, "rgt", tb);
  const Rsg joined = join(a.g, b.g, kL1);
  const NodeRef xn = joined.pvar_target(a.sym("x"));
  EXPECT_FALSE(joined.sel_targets(xn, a.sym("lft")).empty());
  EXPECT_FALSE(joined.sel_targets(xn, a.sym("rgt")).empty());
}

TEST(JoinTest, ClassFoldsCycleLinksAgainstTheRunningOutSelectors) {
  // The class {a1, a2, b1} folds in index order (a's nodes first): only the
  // middle member a2 has an nxt out-link, and the last member b1 carries
  // <nxt,prv>. The folded side's out-selectors are the union over the
  // members folded so far, which has nxt by then, so the joined node drops
  // the pair.
  RsgBuilder a;
  const NodeRef ha = a.node();
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node();
  a.pvar("x", ha).link(ha, "lnk", a1).link(ha, "lnk", a2);
  a.link(a2, "nxt", a1);
  RsgBuilder b(a.interner_ptr());
  const NodeRef hb = b.node();
  const NodeRef b1 = b.node();
  b.pvar("x", hb).link(hb, "lnk", b1).cyclelink(b1, "nxt", "prv");

  const Rsg joined = join(a.g, b.g, kL1);
  ASSERT_EQ(joined.node_count(), 2u);
  const auto summary =
      joined.sel_targets(joined.pvar_target(a.sym("x")), a.sym("lnk"));
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(joined.props(summary[0]).cardinality, Cardinality::kMany);
  EXPECT_FALSE(joined.props(summary[0]).cyclelinks.contains(
      SelPair{a.sym("nxt"), a.sym("prv")}));
}

TEST(ForceJoinTest, FusesIncompatibleAliasEqualGraphs) {
  RsgBuilder a;
  const NodeRef na = a.node();
  a.pvar("x", na);
  a.shared(na);  // makes the graphs COMPATIBLE-incompatible
  RsgBuilder b(a.interner_ptr());
  b.pvar("x", b.node());
  ASSERT_FALSE(compatible(a.g, b.g, kL1));
  const Rsg fused = force_join(a.g, b.g, kL1);
  const NodeRef xn = fused.pvar_target(a.sym("x"));
  ASSERT_NE(xn, kNoNode);
  // Conservative direction: SHARED grows.
  EXPECT_TRUE(fused.props(xn).shared);
}

TEST(ForceJoinTest, TouchIntersects) {
  RsgBuilder a;
  const NodeRef na = a.node();
  a.pvar("x", na).touch(na, "p").touch(na, "q");
  RsgBuilder b(a.interner_ptr());
  const NodeRef nb = b.node();
  b.pvar("x", nb).touch(nb, "p");
  const Rsg fused = force_join(a.g, b.g, LevelPolicy{AnalysisLevel::kL3});
  const NodeRef xn = fused.pvar_target(a.sym("x"));
  EXPECT_TRUE(fused.props(xn).touch.contains(a.sym("p")));
  EXPECT_FALSE(fused.props(xn).touch.contains(a.sym("q")));
}

TEST(CoarsenTest, BoundsByTypeAndSpath0) {
  RsgBuilder b;
  const NodeRef h = b.node();
  // Five same-typed deep nodes with assorted refpats.
  NodeRef prev = h;
  for (int i = 0; i < 5; ++i) {
    const NodeRef n = b.node(i % 2 == 0 ? Cardinality::kOne
                                        : Cardinality::kMany);
    b.link(prev, "nxt", n);
    if (i % 2 == 0) b.pos_selin(n, "prv");
    prev = n;
  }
  b.pvar("x", h);
  coarsen(b.g, kL1);
  // All deep nodes share (type, spath0 = {}): at most the pvar node plus one
  // summary remain... except the node one step from x may stay distinct via
  // compress-level sharing bits; allow a small bound.
  EXPECT_LE(b.g.node_count(), 3u);
  EXPECT_NE(b.g.pvar_target(b.sym("x")), kNoNode);
}

TEST(CoarsenTest, PvarNodesKeepIdentity) {
  RsgBuilder b;
  const NodeRef h1 = b.node();
  const NodeRef h2 = b.node();
  b.pvar("x", h1).pvar("y", h2);
  b.link(h1, "nxt", h2);
  coarsen(b.g, kL1);
  EXPECT_NE(b.g.pvar_target(b.sym("x")), b.g.pvar_target(b.sym("y")));
}

// An RSRSG insert hands JOIN the contexts it already holds. On corpus states
// (each member of a statement's set against each input graph its
// predecessors feed it), the context-taking JOIN and force_join must build
// the graphs the context-computing ones build.
TEST(JoinTest, CallerContextsGiveTheSameGraphs) {
  std::size_t joins = 0;
  std::size_t force_joins = 0;
  for (const char* name : {"dll", "sparse_matvec", "barnes_hut_small"}) {
    for (const AnalysisLevel level : {AnalysisLevel::kL1, AnalysisLevel::kL2}) {
      const auto program =
          analysis::prepare(corpus::find_program(name)->source);
      analysis::Options options;
      options.level = level;
      const auto result = analysis::analyze_program(program, options);
      const LevelPolicy policy{level};
      for (cfg::NodeId id = 0; id < program.cfg.size(); ++id) {
        for (const cfg::NodeId p : program.cfg.node(id).preds) {
          for (const Rsg& member : result.per_node[id].graphs()) {
            const CompatContexts member_ctx = compute_compat_contexts(member);
            for (const Rsg& input : result.per_node[p].graphs()) {
              if (!alias_equal(member, input)) continue;
              const CompatContexts input_ctx = compute_compat_contexts(input);
              if (compatible(member, input, policy)) {
                EXPECT_EQ(canonical_key(join(member, input, policy)),
                          canonical_key(join(member, member_ctx, input,
                                             input_ctx, policy)))
                    << name << " " << to_string(level) << " node " << id;
                ++joins;
              }
              EXPECT_EQ(
                  canonical_key(force_join(member, input, policy)),
                  canonical_key(force_join(member, member_ctx, input, policy)))
                  << name << " " << to_string(level) << " node " << id;
              ++force_joins;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(joins, 100u);
  EXPECT_GT(force_joins, 100u);
}

}  // namespace
}  // namespace psa::rsg
