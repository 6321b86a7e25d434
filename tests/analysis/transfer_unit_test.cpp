// Direct unit tests of execute_statement on hand-built graphs — the six
// statements isolated from the engine (no fixpoint, no joins).
#include <gtest/gtest.h>

#include "analysis/semantics.hpp"

#include "rsg/canon.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::analysis {
namespace {

using psa::testing::RsgBuilder;
using rsg::Cardinality;
using rsg::kNoNode;
using rsg::NodeRef;
using rsg::Rsg;

/// A minimal harness: one statement, one input graph, no CFG context.
struct Harness {
  RsgBuilder b;
  cfg::Cfg cfg;  // unused by the transfer except for TOUCH (empty here)
  cfg::InductionInfo induction;
  TransferContext ctx;
  cfg::CfgNode node;

  explicit Harness(rsg::AnalysisLevel level = rsg::AnalysisLevel::kL2) {
    ctx.policy = rsg::LevelPolicy{level};
    ctx.cfg = &cfg;
    ctx.induction = &induction;
  }

  std::vector<Rsg> exec(cfg::SimpleOp op, std::string_view x = "",
                        std::string_view y = "", std::string_view sel = "") {
    node.stmt.op = op;
    if (!x.empty()) node.stmt.x = b.sym(x);
    if (!y.empty()) node.stmt.y = b.sym(y);
    if (!sel.empty()) node.stmt.sel = b.sym(sel);
    node.stmt.type = static_cast<lang::StructId>(0);
    return execute_statement(b.g, node, ctx);
  }
};

TEST(TransferUnitTest, MallocOnEmptyGraph) {
  Harness h;
  const auto out = h.exec(cfg::SimpleOp::kPtrMalloc, "x");
  ASSERT_EQ(out.size(), 1u);
  const NodeRef n = out[0].pvar_target(h.b.sym("x"));
  ASSERT_NE(n, kNoNode);
  EXPECT_EQ(out[0].props(n).cardinality, Cardinality::kOne);
  EXPECT_EQ(out[0].node_count(), 1u);
}

TEST(TransferUnitTest, PtrNullCollectsUnreachable) {
  Harness h;
  const NodeRef n = h.b.node();
  h.b.pvar("x", n);
  const auto out = h.exec(cfg::SimpleOp::kPtrNull, "x");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node_count(), 0u);
}

TEST(TransferUnitTest, CopyOntoSelfIsIdentity) {
  Harness h;
  h.b.pvar("x", h.b.node());
  h.node.stmt.y = h.b.sym("x");
  const auto out = h.exec(cfg::SimpleOp::kPtrCopy, "x", "x");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0].pvar_target(h.b.sym("x")), kNoNode);
}

TEST(TransferUnitTest, CopyOfUnboundUnbinds) {
  Harness h;
  h.b.pvar("x", h.b.node());
  // y is unbound.
  (void)h.b.sym("y");
  const auto out = h.exec(cfg::SimpleOp::kPtrCopy, "x", "y");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pvar_target(h.b.sym("x")), kNoNode);
}

TEST(TransferUnitTest, StoreThroughUnboundDropsConfiguration) {
  Harness h;
  (void)h.b.sym("x");
  const auto out = h.exec(cfg::SimpleOp::kStoreNull, "x", "", "nxt");
  EXPECT_TRUE(out.empty());
}

TEST(TransferUnitTest, LoadThroughUnboundDropsConfiguration) {
  Harness h;
  (void)h.b.sym("x");
  (void)h.b.sym("y");
  const auto out = h.exec(cfg::SimpleOp::kLoad, "x", "y", "nxt");
  EXPECT_TRUE(out.empty());
}

TEST(TransferUnitTest, StoreNullOnAlreadyNullIsIdentityShape) {
  Harness h;
  const NodeRef n = h.b.node();
  h.b.pvar("x", n);
  const auto out = h.exec(cfg::SimpleOp::kStoreNull, "x", "", "nxt");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0]
                  .sel_targets(out[0].pvar_target(h.b.sym("x")), h.b.sym("nxt"))
                  .empty());
}

TEST(TransferUnitTest, StoreBindsDefiniteLink) {
  Harness h;
  const NodeRef nx = h.b.node();
  const NodeRef ny = h.b.node();
  h.b.pvar("x", nx).pvar("y", ny);
  const auto out = h.exec(cfg::SimpleOp::kStore, "x", "y", "nxt");
  ASSERT_EQ(out.size(), 1u);
  const Rsg& g = out[0];
  const NodeRef gx = g.pvar_target(h.b.sym("x"));
  const NodeRef gy = g.pvar_target(h.b.sym("y"));
  EXPECT_TRUE(g.has_link(gx, h.b.sym("nxt"), gy));
  EXPECT_TRUE(g.props(gx).selout.contains(h.b.sym("nxt")));
  EXPECT_TRUE(g.props(gy).selin.contains(h.b.sym("nxt")));
}

TEST(TransferUnitTest, StoreWithUnboundSourceActsAsStoreNull) {
  Harness h;
  const NodeRef nx = h.b.node();
  const NodeRef old = h.b.node();
  h.b.pvar("x", nx);
  h.b.pvar("keep", old);  // keep the old target reachable
  h.b.link(nx, "nxt", old).selout(nx, "nxt").selin(old, "nxt");
  (void)h.b.sym("y");
  const auto out = h.exec(cfg::SimpleOp::kStore, "x", "y", "nxt");
  ASSERT_EQ(out.size(), 1u);
  const Rsg& g = out[0];
  EXPECT_TRUE(
      g.sel_targets(g.pvar_target(h.b.sym("x")), h.b.sym("nxt")).empty());
}

TEST(TransferUnitTest, LoadFromSummaryMaterializes) {
  Harness h;
  const NodeRef nx = h.b.node();
  const NodeRef m = h.b.node(Cardinality::kMany);
  h.b.pvar("y", nx);
  h.b.link(nx, "nxt", m).selout(nx, "nxt");
  h.b.link(m, "nxt", m);
  h.b.selin(m, "nxt").pos_selout(m, "nxt");
  (void)h.b.sym("x");
  const auto out = h.exec(cfg::SimpleOp::kLoad, "x", "y", "nxt");
  ASSERT_FALSE(out.empty());
  for (const Rsg& g : out) {
    const NodeRef gx = g.pvar_target(h.b.sym("x"));
    ASSERT_NE(gx, kNoNode);
    EXPECT_EQ(g.props(gx).cardinality, Cardinality::kOne);
  }
}

TEST(TransferUnitTest, LoadPossiblyNullForksNullOutcome) {
  Harness h;
  const NodeRef nx = h.b.node();
  const NodeRef t = h.b.node();
  h.b.pvar("y", nx).pvar("keep", t);
  h.b.link(nx, "nxt", t);
  h.b.pos_selout(nx, "nxt");  // nxt only possible: the NULL outcome exists
  // t's incoming reference must be possible too, or the NULL variant would
  // be self-contradictory (definite selin with no witness) and PRUNEd away.
  h.b.pos_selin(t, "nxt");
  (void)h.b.sym("x");
  const auto out = h.exec(cfg::SimpleOp::kLoad, "x", "y", "nxt");
  bool bound = false;
  bool unbound = false;
  for (const Rsg& g : out) {
    (g.pvar_target(h.b.sym("x")) == kNoNode ? unbound : bound) = true;
  }
  EXPECT_TRUE(bound);
  EXPECT_TRUE(unbound);
}

TEST(TransferUnitTest, AssumeFiltersByBinding) {
  Harness h;
  h.b.pvar("x", h.b.node());
  EXPECT_TRUE(h.exec(cfg::SimpleOp::kAssumeNull, "x").empty());
  EXPECT_EQ(h.exec(cfg::SimpleOp::kAssumeNotNull, "x").size(), 1u);
}

TEST(TransferUnitTest, BookkeepingOpsAreIdentity) {
  Harness h;
  h.b.pvar("x", h.b.node());
  for (const auto op :
       {cfg::SimpleOp::kScalar, cfg::SimpleOp::kBranch, cfg::SimpleOp::kNop,
        cfg::SimpleOp::kFieldRead, cfg::SimpleOp::kFieldWrite}) {
    const auto out = h.exec(op, "x", "", "nxt");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(rsg::canonical_key(out[0]), rsg::canonical_key(h.b.g));
  }
}

TEST(TransferUnitTest, FreeMarksTargetNodeFreed) {
  Harness h;
  h.b.pvar("x", h.b.node());
  const auto out = h.exec(cfg::SimpleOp::kFree, "x");
  ASSERT_EQ(out.size(), 1u);
  const NodeRef n = out[0].pvar_target(h.b.sym("x"));
  ASSERT_NE(n, kNoNode);  // x still dangles at the freed node
  EXPECT_EQ(out[0].props(n).free_state, rsg::FreeState::kFreed);
  // The only change is the FREED bit: the graphs differ exactly there.
  EXPECT_NE(rsg::canonical_key(out[0]), rsg::canonical_key(h.b.g));
}

TEST(TransferUnitTest, FreeOfNullPointerIsIdentity) {
  Harness h;
  h.b.pvar("y", h.b.node());  // x stays unbound
  const auto out = h.exec(cfg::SimpleOp::kFree, "x");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(rsg::canonical_key(out[0]), rsg::canonical_key(h.b.g));
}

TEST(TransferUnitTest, RefreeKeepsNodeDefinitelyFreed) {
  Harness h;
  const NodeRef n = h.b.node();
  h.b.pvar("x", n);
  h.b.g.props(n).free_state = rsg::FreeState::kMaybeFreed;
  const auto out = h.exec(cfg::SimpleOp::kFree, "x");
  ASSERT_EQ(out.size(), 1u);
  const NodeRef gn = out[0].pvar_target(h.b.sym("x"));
  EXPECT_EQ(out[0].props(gn).free_state, rsg::FreeState::kFreed);
}

TEST(TransferUnitTest, TouchClearRemovesInductionTouch) {
  Harness h(rsg::AnalysisLevel::kL3);
  const NodeRef n = h.b.node();
  h.b.pvar("x", n).touch(n, "p");
  // Fake induction info: p is the induction pvar of loop 1.
  h.induction.per_loop[1] = {h.b.sym("p")};
  h.node.stmt.loop_id = 1;
  const auto out = h.exec(cfg::SimpleOp::kTouchClear, "");
  ASSERT_EQ(out.size(), 1u);
  const NodeRef gn = out[0].pvar_target(h.b.sym("x"));
  EXPECT_TRUE(out[0].props(gn).touch.empty());
}

TEST(TransferUnitTest, TouchClearIsIdentityBelowL3) {
  Harness h(rsg::AnalysisLevel::kL2);
  const NodeRef n = h.b.node();
  h.b.pvar("x", n).touch(n, "p");
  h.induction.per_loop[1] = {h.b.sym("p")};
  h.node.stmt.loop_id = 1;
  const auto out = h.exec(cfg::SimpleOp::kTouchClear, "");
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(rsg::canonical_key(out[0]), rsg::canonical_key(h.b.g));
}

}  // namespace
}  // namespace psa::analysis
