// Rsrsg: reduced-set insertion, join-on-insert, equality, widening.
#include "analysis/rsrsg.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/snapshot.hpp"
#include "support/memory_stats.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::analysis {
namespace {

using psa::testing::RsgBuilder;
using rsg::AnalysisLevel;
using rsg::Cardinality;
using rsg::NodeRef;

constexpr LevelPolicy kL1{AnalysisLevel::kL1};

TEST(RsrsgTest, StartsEmpty) {
  Rsrsg set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
}

TEST(RsrsgTest, InsertAddsGraph) {
  Rsrsg set;
  RsgBuilder b;
  b.pvar("x", b.node());
  EXPECT_TRUE(set.insert(b.g, kL1));
  EXPECT_EQ(set.size(), 1u);
}

TEST(RsrsgTest, DuplicateRejected) {
  Rsrsg set;
  RsgBuilder b;
  b.pvar("x", b.node());
  EXPECT_TRUE(set.insert(b.g, kL1));
  EXPECT_FALSE(set.insert(b.g, kL1));
  EXPECT_EQ(set.size(), 1u);
}

TEST(RsrsgTest, IsomorphicDuplicateRejected) {
  Rsrsg set;
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node(Cardinality::kMany);
  a.pvar("x", a1).link(a1, "nxt", a2);
  set.insert(a.g, kL1);
  RsgBuilder b(a.interner_ptr());
  const NodeRef b2 = b.node(Cardinality::kMany);
  const NodeRef b1 = b.node();
  b.pvar("x", b1).link(b1, "nxt", b2);
  EXPECT_FALSE(set.insert(b.g, kL1));
}

TEST(RsrsgTest, IncompatibleGraphsCoexist) {
  Rsrsg set;
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  b.pvar("y", b.node());  // different ALIAS: never joined
  set.insert(a.g, kL1);
  set.insert(b.g, kL1);
  EXPECT_EQ(set.size(), 2u);
}

/// Two compatible list graphs (2 and 3 elements, same head/last patterns).
struct CompatiblePair {
  RsgBuilder a;
  RsgBuilder b;

  CompatiblePair() : b(a.interner_ptr()) {
    const NodeRef h1 = a.node();
    const NodeRef t1 = a.node();
    a.pvar("x", h1);
    a.link(h1, "nxt", t1).selout(h1, "nxt").selin(t1, "nxt");
    const NodeRef h2 = b.node();
    const NodeRef m2 = b.node();
    const NodeRef t2 = b.node();
    b.pvar("x", h2);
    b.link(h2, "nxt", m2).selout(h2, "nxt").selin(m2, "nxt");
    b.link(m2, "nxt", t2).selout(m2, "nxt").selin(t2, "nxt");
  }
};

TEST(RsrsgTest, CompatibleGraphsJoinOnInsert) {
  Rsrsg set;
  CompatiblePair pair;
  set.insert(pair.a.g, kL1);
  set.insert(pair.b.g, kL1);
  EXPECT_EQ(set.size(), 1u);  // fused into one RSG
}

TEST(RsrsgTest, JoinDisabledKeepsBoth) {
  Rsrsg set;
  CompatiblePair pair;
  set.insert(pair.a.g, kL1, /*enable_join=*/false);
  set.insert(pair.b.g, kL1, /*enable_join=*/false);
  EXPECT_EQ(set.size(), 2u);
}

TEST(RsrsgTest, EqualsIsOrderInsensitive) {
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  b.pvar("y", b.node());

  Rsrsg s1;
  s1.insert(a.g, kL1);
  s1.insert(b.g, kL1);
  Rsrsg s2;
  s2.insert(b.g, kL1);
  s2.insert(a.g, kL1);
  EXPECT_TRUE(s1.equals(s2));
  EXPECT_TRUE(s2.equals(s1));
}

TEST(RsrsgTest, EqualsDetectsDifference) {
  RsgBuilder a;
  a.pvar("x", a.node());
  Rsrsg s1;
  s1.insert(a.g, kL1);
  Rsrsg s2;
  EXPECT_FALSE(s1.equals(s2));
}

TEST(RsrsgTest, RestoredSetDedupsAndCompares) {
  // restore() computes no keys; a restored set must still dedup and compare
  // exactly once it is used.
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node(Cardinality::kMany);
  a.pvar("x", a1).link(a1, "nxt", a2).link(a2, "nxt", a2);
  RsgBuilder other(a.interner_ptr());
  other.pvar("y", other.node());
  Rsrsg original;
  original.insert(a.g, kL1);
  original.insert(other.g, kL1);
  const std::string bytes = serialize_rsrsg(original, a.interner());

  const Rsrsg compared = deserialize_rsrsg(bytes, *a.interner_ptr());
  EXPECT_TRUE(compared.equals(original));
  EXPECT_TRUE(original.equals(compared));

  RsgBuilder b(a.interner_ptr());  // isomorphic to a, other slot order
  const NodeRef b2 = b.node(Cardinality::kMany);
  const NodeRef b1 = b.node();
  b.pvar("x", b1).link(b1, "nxt", b2).link(b2, "nxt", b2);
  Rsrsg inserted = deserialize_rsrsg(bytes, *a.interner_ptr());
  EXPECT_FALSE(inserted.insert(b.g, kL1));
  EXPECT_EQ(inserted.size(), 2u);
  EXPECT_TRUE(inserted.equals(original));
}

TEST(RsrsgTest, StatsAccumulate) {
  Rsrsg set;
  RsgBuilder a;
  const NodeRef n1 = a.node();
  const NodeRef n2 = a.node();
  a.pvar("x", n1).link(n1, "nxt", n2);
  set.insert(a.g, kL1);
  EXPECT_EQ(set.total_nodes(), 2u);
  EXPECT_GT(set.footprint_bytes(), 0u);
}

TEST(RsrsgTest, WidenCollapsesAliasEqualMembers) {
  Rsrsg set;
  // Three alias-equal but pairwise-incompatible graphs (different SHARED on
  // a deep node).
  auto make = [](RsgBuilder& b, int salt) {
    const NodeRef h = b.node();
    const NodeRef t = b.node(Cardinality::kMany);
    b.pvar("x", h).link(h, "nxt", t);
    if (salt == 1) b.shared(t);
    if (salt == 2) b.shsel(t, "nxt");
    b.pos_selin(t, "nxt");
  };
  RsgBuilder a;
  make(a, 0);
  RsgBuilder b(a.interner_ptr());
  make(b, 1);
  RsgBuilder c(a.interner_ptr());
  make(c, 2);
  set.insert(a.g, kL1, false);
  set.insert(b.g, kL1, false);
  set.insert(c.g, kL1, false);
  ASSERT_EQ(set.size(), 3u);
  set.widen(kL1);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.widened());
}

TEST(RsrsgTest, WidenedModeFoldsFurtherInserts) {
  Rsrsg set;
  RsgBuilder a;
  a.pvar("x", a.node());
  set.insert(a.g, kL1);
  set.widen(kL1);
  // Insert an alias-equal graph with extra structure: folds into the member.
  RsgBuilder b(a.interner_ptr());
  const NodeRef h = b.node();
  const NodeRef t = b.node();
  b.pvar("x", h).link(h, "nxt", t);
  EXPECT_TRUE(set.insert(b.g, kL1));
  EXPECT_EQ(set.size(), 1u);
  // Re-inserting the same information is absorbed silently.
  RsgBuilder c(a.interner_ptr());
  const NodeRef h2 = c.node();
  const NodeRef t2 = c.node();
  c.pvar("x", h2).link(h2, "nxt", t2);
  EXPECT_FALSE(set.insert(c.g, kL1));
}

TEST(RsrsgTest, WidenKeepsAliasDistinctMembers) {
  Rsrsg set;
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  b.pvar("y", b.node());
  set.insert(a.g, kL1);
  set.insert(b.g, kL1);
  set.widen(kL1);
  EXPECT_EQ(set.size(), 2u);  // cannot fuse different ALIAS relations
}

/// Graphs constructed so far in this process (copies included, moves not).
std::uint64_t graphs_created() {
  return support::MemoryStats::instance().snapshot().graphs_created;
}

/// Two alias-distinct members: x -> h -nxt-> t (summary), and y -> one node.
Rsrsg two_member_set(RsgBuilder& a, RsgBuilder& b) {
  const NodeRef h = a.node();
  const NodeRef t = a.node(Cardinality::kMany);
  a.pvar("x", h).link(h, "nxt", t);
  b.pvar("y", b.node());
  Rsrsg set;
  set.insert(a.g, kL1);
  set.insert(b.g, kL1);
  return set;
}

TEST(RsrsgTest, WideningAWidenedSetChangesNothing) {
  // A widened set holds one member per ALIAS pattern, so widening it again
  // could fold nothing: the call builds no graph and keeps every member,
  // even the ones another set shares (a rebuild would copy those).
  RsgBuilder a;
  RsgBuilder b(a.interner_ptr());
  Rsrsg set = two_member_set(a, b);
  set.widen(kL1);
  ASSERT_TRUE(set.widened());
  ASSERT_EQ(set.size(), 2u);
  const Rsrsg holder = set;

  const std::uint64_t before = graphs_created();
  set.widen(kL1);
  EXPECT_EQ(graphs_created(), before);
  EXPECT_TRUE(set.widened());
  ASSERT_EQ(set.size(), holder.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(&set.graphs()[i], &holder.graphs()[i]);
    EXPECT_EQ(set.key_at(i), holder.key_at(i));
  }
}

TEST(RsrsgTest, CopiesShareMembersAndMutationsReplaceThem) {
  RsgBuilder a;
  RsgBuilder b(a.interner_ptr());
  const Rsrsg original = two_member_set(a, b);
  ASSERT_EQ(original.size(), 2u);
  const std::vector<rsg::CanonicalKey> keys = {original.key_at(0),
                                               original.key_at(1)};

  // A copy holds the same members: no graph is built, no address moves.
  const std::uint64_t before = graphs_created();
  Rsrsg copy = original;
  EXPECT_EQ(graphs_created(), before);
  ASSERT_EQ(copy.size(), original.size());
  for (std::size_t i = 0; i < copy.size(); ++i) {
    EXPECT_EQ(&copy.graphs()[i], &original.graphs()[i]);
  }
  EXPECT_TRUE(copy.equals(original));

  // Insert, widen and degrade the copy; the original's graphs stay as they
  // were (keys recomputed from the graphs, not read from the members).
  RsgBuilder c(a.interner_ptr());
  const NodeRef c1 = c.node();
  const NodeRef c2 = c.node();
  c.pvar("x", c1).link(c1, "nxt", c2).shared(c2);
  EXPECT_TRUE(copy.insert(c.g, kL1));
  copy.widen(kL1);
  copy.degrade_members(kL1, [](Rsg& g) { rsg::drop_must_info(g); });
  EXPECT_TRUE(copy.widened());
  EXPECT_FALSE(original.widened());
  ASSERT_EQ(original.size(), 2u);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rsg::canonical_key(original.graphs()[i]), keys[i]);
    EXPECT_EQ(original.key_at(i), keys[i]);
  }
}

TEST(RsrsgTest, RebuildMovesSoleMembersAndCopiesSharedOnes) {
  RsgBuilder a;
  RsgBuilder b(a.interner_ptr());
  Rsrsg sole = two_member_set(a, b);
  std::uint64_t before = graphs_created();
  sole.widen(kL1);
  const std::uint64_t sole_cost = graphs_created() - before;

  RsgBuilder a2(a.interner_ptr());
  RsgBuilder b2(a.interner_ptr());
  Rsrsg shared = two_member_set(a2, b2);
  const Rsrsg holder = shared;
  before = graphs_created();
  shared.widen(kL1);
  // Each member another set still holds is copied once; the rest is the
  // same work the sole owner did.
  EXPECT_EQ(graphs_created() - before, sole_cost + holder.size());
  EXPECT_TRUE(shared.equals(sole));
  EXPECT_FALSE(holder.widened());
}

TEST(RsrsgTest, DumpListsMembers) {
  Rsrsg set;
  RsgBuilder a;
  a.pvar("head", a.node());
  set.insert(a.g, kL1);
  const std::string text = set.dump(a.interner());
  EXPECT_NE(text.find("1 graph"), std::string::npos);
  EXPECT_NE(text.find("head"), std::string::npos);
}

}  // namespace
}  // namespace psa::analysis
