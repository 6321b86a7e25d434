// MERGE_NODES property-combination formulas (§3.1 of the paper).
#include <gtest/gtest.h>

#include "rsg/compat.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::rsg {
namespace {

using psa::testing::RsgBuilder;

/// MERGE_NODES of two nodes of an RsgBuilder graph, each side with the
/// selectors of its own out-links.
NodeProps merge(const RsgBuilder& b, NodeRef x, NodeRef y,
                bool same_configuration) {
  return merge_node_props(b.g.props(x), b.g.out_selectors(x), b.g.props(y),
                          b.g.out_selectors(y), same_configuration);
}

TEST(MergeNodesTest, DefiniteSetsIntersect) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.selin(a, "nxt").selin(a, "prv");
  b.selin(c, "nxt");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.selin.contains(b.sym("nxt")));
  EXPECT_FALSE(m.selin.contains(b.sym("prv")));
  // prv moves to the possible set: SELIN(n1) ∪ ... minus the new SELIN.
  EXPECT_TRUE(m.pos_selin.contains(b.sym("prv")));
}

TEST(MergeNodesTest, PossibleSetsAccumulate) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.pos_selout(a, "lft");
  b.pos_selout(c, "rgt");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.pos_selout.contains(b.sym("lft")));
  EXPECT_TRUE(m.pos_selout.contains(b.sym("rgt")));
  EXPECT_TRUE(m.selout.empty());
}

TEST(MergeNodesTest, DefiniteAndPossibleStayDisjoint) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.selout(a, "nxt");
  b.selout(c, "nxt");
  b.pos_selout(a, "prv");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.selout.contains(b.sym("nxt")));
  EXPECT_FALSE(m.pos_selout.contains(b.sym("nxt")));
  EXPECT_TRUE(m.pos_selout.contains(b.sym("prv")));
}

TEST(MergeNodesTest, SharedGrowsTouchShrinks) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.shared(a);
  b.touch(a, "p").touch(a, "q");
  b.touch(c, "p");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.shared);
  EXPECT_TRUE(m.touch.contains(b.sym("p")));
  EXPECT_FALSE(m.touch.contains(b.sym("q")));  // definite info: intersection
}

TEST(MergeNodesTest, ShselUnions) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.shsel(a, "nxt");
  b.shsel(c, "prv");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.shsel.contains(b.sym("nxt")));
  EXPECT_TRUE(m.shsel.contains(b.sym("prv")));
}

TEST(MergeNodesTest, CommonCycleLinksKept) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.cyclelink(a, "nxt", "prv");
  b.cyclelink(c, "nxt", "prv");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.cyclelinks.contains(SelPair{b.sym("nxt"), b.sym("prv")}));
}

TEST(MergeNodesTest, VacuousCycleLinkKept) {
  // <nxt, prv> of a is kept when c has no outgoing nxt link (the pair holds
  // vacuously for c's locations).
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.cyclelink(a, "nxt", "prv");
  const NodeProps m = merge(b, a, c, true);
  EXPECT_TRUE(m.cyclelinks.contains(SelPair{b.sym("nxt"), b.sym("prv")}));
}

TEST(MergeNodesTest, ContradictedCycleLinkDropped) {
  // c *does* have an outgoing nxt link and does not assert the pair: the
  // merged node cannot keep it.
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  const NodeRef d = b.node();
  b.cyclelink(a, "nxt", "prv");
  b.link(c, "nxt", d);
  const NodeProps m = merge(b, a, c, true);
  EXPECT_FALSE(m.cyclelinks.contains(SelPair{b.sym("nxt"), b.sym("prv")}));
}

TEST(MergeNodesTest, OutSelectorSetsDecideCycleLinks) {
  // The rule reads only each side's out-selector set, however it was
  // obtained: a folded side passes the union over its folded members.
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.cyclelink(c, "nxt", "prv");
  const SmallSet<Symbol> none;
  const SmallSet<Symbol> nxt{b.sym("nxt")};
  const SelPair pair{b.sym("nxt"), b.sym("prv")};
  EXPECT_TRUE(merge_node_props(b.g.props(a), none, b.g.props(c), none, true)
                  .cyclelinks.contains(pair));
  EXPECT_FALSE(merge_node_props(b.g.props(a), nxt, b.g.props(c), none, true)
                   .cyclelinks.contains(pair));
  // c's own out-selectors never veto its own pair.
  EXPECT_TRUE(merge_node_props(b.g.props(a), none, b.g.props(c), nxt, true)
                  .cyclelinks.contains(pair));
}

TEST(MergeNodesTest, SameConfigurationAlwaysSummary) {
  RsgBuilder b;
  const NodeRef a = b.node(Cardinality::kOne);
  const NodeRef c = b.node(Cardinality::kOne);
  EXPECT_EQ(merge(b, a, c, true).cardinality,
            Cardinality::kMany);
}

TEST(MergeNodesTest, CrossConfigurationOnePlusOneStaysOne) {
  RsgBuilder b;
  const NodeRef a = b.node(Cardinality::kOne);
  const NodeRef c = b.node(Cardinality::kOne);
  EXPECT_EQ(merge(b, a, c, false).cardinality,
            Cardinality::kOne);
}

TEST(MergeNodesTest, ManyIsInfectious) {
  RsgBuilder b;
  const NodeRef a = b.node(Cardinality::kOne);
  const NodeRef c = b.node(Cardinality::kMany);
  EXPECT_EQ(merge(b, a, c, false).cardinality,
            Cardinality::kMany);
}

TEST(MergeNodesTest, MergeIsCommutativeOnProperties) {
  RsgBuilder b;
  const NodeRef a = b.node();
  const NodeRef c = b.node();
  b.selin(a, "nxt").pos_selin(a, "prv").shsel(a, "nxt");
  b.selin(c, "prv").pos_selout(c, "nxt").shared(c);
  const NodeProps ac = merge(b, a, c, true);
  const NodeProps ca = merge(b, c, a, true);
  EXPECT_EQ(ac.selin, ca.selin);
  EXPECT_EQ(ac.selout, ca.selout);
  EXPECT_EQ(ac.pos_selin, ca.pos_selin);
  EXPECT_EQ(ac.pos_selout, ca.pos_selout);
  EXPECT_EQ(ac.shared, ca.shared);
  EXPECT_EQ(ac.shsel, ca.shsel);
  EXPECT_EQ(ac.touch, ca.touch);
}

}  // namespace
}  // namespace psa::rsg
