// Canonical keys, fingerprints and isomorphism: the fixpoint's equality
// oracle.
#include "rsg/canon.hpp"

#include <gtest/gtest.h>

#include <random>

#include "support/metrics.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::rsg {
namespace {

using psa::testing::RsgBuilder;

TEST(CanonTest, EmptyGraphsEqual) {
  Rsg a;
  Rsg b;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_TRUE(rsg_equal(a, b));
}

TEST(CanonTest, NodeCountDifferenceDetected) {
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  const NodeRef n = b.node();
  b.pvar("x", n);
  b.link(n, "nxt", b.node());
  EXPECT_FALSE(rsg_equal(a.g, b.g));
}

TEST(CanonTest, IsomorphicUnderSlotPermutation) {
  // Same structure built in different node orders.
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node(Cardinality::kMany);
  a.pvar("x", a1);
  a.link(a1, "nxt", a2).link(a2, "nxt", a2);

  RsgBuilder b(a.interner_ptr());
  const NodeRef b2 = b.node(Cardinality::kMany);  // summary first
  const NodeRef b1 = b.node();
  b.pvar("x", b1);
  b.link(b1, "nxt", b2).link(b2, "nxt", b2);

  EXPECT_EQ(fingerprint(a.g), fingerprint(b.g));
  EXPECT_TRUE(rsg_equal(a.g, b.g));
}

TEST(CanonTest, PropertyDifferenceDetected) {
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  const NodeRef n = b.node();
  b.pvar("x", n);
  b.shared(n);
  EXPECT_FALSE(rsg_equal(a.g, b.g));
  EXPECT_NE(fingerprint(a.g), fingerprint(b.g));
}

TEST(CanonTest, PvarBindingMatters) {
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node();
  a.pvar("x", a1).pvar("y", a2).link(a1, "nxt", a2);
  RsgBuilder b(a.interner_ptr());
  const NodeRef b1 = b.node();
  const NodeRef b2 = b.node();
  b.pvar("x", b2).pvar("y", b1).link(b1, "nxt", b2);  // swapped roles
  EXPECT_FALSE(rsg_equal(a.g, b.g));
}

TEST(CanonTest, SelectorLabelsMatter) {
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node();
  a.pvar("x", a1).link(a1, "lft", a2);
  RsgBuilder b(a.interner_ptr());
  const NodeRef b1 = b.node();
  const NodeRef b2 = b.node();
  b.pvar("x", b1).link(b1, "rgt", b2);
  EXPECT_FALSE(rsg_equal(a.g, b.g));
}

TEST(CanonTest, SymmetricGraphWithAutomorphism) {
  // x -> root with two indistinguishable children: still isomorphic to an
  // identically-built copy (forces the matcher through a symmetric orbit).
  auto make = [](RsgBuilder& b) {
    const NodeRef r = b.node();
    const NodeRef c1 = b.node(Cardinality::kMany);
    const NodeRef c2 = b.node(Cardinality::kMany);
    b.pvar("x", r);
    b.link(r, "nxt", c1).link(r, "nxt", c2);
    b.link(c1, "nxt", c2).link(c2, "nxt", c1);
  };
  RsgBuilder a;
  make(a);
  RsgBuilder b(a.interner_ptr());
  make(b);
  EXPECT_TRUE(rsg_equal(a.g, b.g));
}

TEST(CanonTest, DirectionalityDetected) {
  auto make = [](RsgBuilder& b, bool forward) {
    const NodeRef r = b.node();
    const NodeRef s = b.node();
    const NodeRef t = b.node();
    b.pvar("x", r).pvar("y", s).pvar("z", t);
    if (forward) {
      b.link(r, "nxt", s).link(s, "nxt", t);
    } else {
      b.link(t, "nxt", s).link(s, "nxt", r);
    }
  };
  RsgBuilder a;
  make(a, true);
  RsgBuilder b(a.interner_ptr());
  make(b, false);
  EXPECT_FALSE(rsg_equal(a.g, b.g));
}

TEST(CanonTest, FingerprintStableUnderCompaction) {
  RsgBuilder a;
  const NodeRef n1 = a.node();
  const NodeRef dead = a.node();
  const NodeRef n2 = a.node(Cardinality::kMany);
  a.pvar("x", n1).link(n1, "nxt", n2);
  a.g.remove_node(dead);
  const auto before = fingerprint(a.g);
  a.g.compact();
  EXPECT_EQ(fingerprint(a.g), before);
}

TEST(CanonTest, KeyIgnoresSlotOrderAndDeadSlots) {
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef dead = a.node();
  const NodeRef a2 = a.node(Cardinality::kMany);
  a.pvar("x", a1).link(a1, "nxt", a2).link(a2, "nxt", a2);
  a.g.remove_node(dead);

  RsgBuilder b(a.interner_ptr());
  const NodeRef b2 = b.node(Cardinality::kMany);
  const NodeRef b1 = b.node();
  b.pvar("x", b1).link(b1, "nxt", b2).link(b2, "nxt", b2);

  const CanonicalKey ka = canonical_key(a.g);
  EXPECT_TRUE(ka.exact());
  EXPECT_EQ(ka, canonical_key(b.g));
  a.g.compact();
  EXPECT_EQ(ka, canonical_key(a.g));
}

TEST(CanonTest, HavocTaintIsPartOfTheKey) {
  RsgBuilder a;
  a.pvar("x", a.node());
  Rsg tainted = a.g;
  tainted.set_havoc(true);
  EXPECT_NE(canonical_key(a.g), canonical_key(tainted));
}

TEST(CanonTest, AutomorphicGraphTakesTheFallback) {
  // x -> root with two identical nxt successors: swapping the successors is
  // an automorphism, so no refinement can separate them and the key falls
  // back to the fingerprint plus the isomorphism search.
  RsgBuilder a;
  const NodeRef root = a.node();
  const NodeRef c1 = a.node(Cardinality::kMany);
  const NodeRef c2 = a.node(Cardinality::kMany);
  a.pvar("x", root).link(root, "nxt", c1).link(root, "nxt", c2);

  RsgBuilder b(a.interner_ptr());  // the same graph, slots permuted
  const NodeRef b2 = b.node(Cardinality::kMany);
  const NodeRef b1 = b.node(Cardinality::kMany);
  const NodeRef broot = b.node();
  b.pvar("x", broot).link(broot, "nxt", b1).link(broot, "nxt", b2);

  Rsg shared = a.g;  // one successor marked SHARED: no longer symmetric
  shared.props(c2).shared = true;

  const auto fallbacks = [] {
    return support::MetricsRegistry::instance()
        .snapshot()[support::Counter::kCanonFallbacks];
  };
  const std::uint64_t before = fallbacks();
  const CanonicalKey ka = canonical_key(a.g);
  const CanonicalKey kb = canonical_key(b.g);
  const CanonicalKey ks = canonical_key(shared);
  EXPECT_EQ(fallbacks() - before, 2u);  // a and b; `shared` is discrete

  EXPECT_FALSE(ka.exact());
  EXPECT_EQ(ka.hash(), fingerprint(a.g));
  EXPECT_TRUE(same_graph(ka, a.g, kb, b.g));
  EXPECT_TRUE(ks.exact());
  EXPECT_FALSE(same_graph(ka, a.g, ks, shared));
}

// Property sweep: random graph, random slot permutation (rebuild in a
// shuffled order) -> fingerprints and equality must agree.
class CanonPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CanonPropertyTest, PermutationInvariance) {
  std::mt19937 rng(GetParam());
  const std::size_t n = 3 + rng() % 6;

  RsgBuilder a;
  std::vector<NodeRef> nodes_a;
  for (std::size_t i = 0; i < n; ++i) {
    nodes_a.push_back(
        a.node(rng() % 2 ? Cardinality::kOne : Cardinality::kMany));
  }
  a.pvar("x", nodes_a[0]);
  std::vector<std::tuple<std::size_t, const char*, std::size_t>> links;
  const char* sels[2] = {"nxt", "prv"};
  for (std::size_t i = 0; i < 2 * n; ++i) {
    links.emplace_back(rng() % n, sels[rng() % 2], rng() % n);
  }
  for (const auto& [f, s, t] : links) a.link(nodes_a[f], s, nodes_a[t]);

  // Rebuild with slots allocated in a shuffled order.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);

  RsgBuilder b(a.interner_ptr());
  std::vector<NodeRef> nodes_b(n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t original = perm[slot];
    nodes_b[original] =
        b.node(a.g.props(nodes_a[original]).cardinality, 0);
  }
  b.pvar("x", nodes_b[0]);
  for (const auto& [f, s, t] : links) b.link(nodes_b[f], s, nodes_b[t]);

  EXPECT_EQ(fingerprint(a.g), fingerprint(b.g));
  EXPECT_TRUE(rsg_equal(a.g, b.g));
  const CanonicalKey ka = canonical_key(a.g);
  const CanonicalKey kb = canonical_key(b.g);
  // Every seed refines to a discrete partition, so the bytes decide.
  EXPECT_TRUE(ka.exact());
  EXPECT_EQ(ka, kb);
  EXPECT_TRUE(same_graph(ka, a.g, kb, b.g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonPropertyTest, ::testing::Range(0u, 24u));

// Property sweep: a single mutation must be detected.
class CanonMutationTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CanonMutationTest, MutationDetected) {
  std::mt19937 rng(GetParam());
  RsgBuilder a;
  const std::size_t n = 4;
  std::vector<NodeRef> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(a.node());
  a.pvar("x", nodes[0]);
  a.link(nodes[0], "nxt", nodes[1]).link(nodes[1], "nxt", nodes[2]);
  a.link(nodes[2], "nxt", nodes[3]);

  Rsg mutated = a.g;
  switch (rng() % 3) {
    case 0:
      mutated.add_link(nodes[3], a.sym("nxt"), nodes[0]);
      break;
    case 1:
      mutated.props(nodes[1 + rng() % 3]).shared = true;
      break;
    default:
      mutated.props(nodes[1 + rng() % 3]).selin.insert(a.sym("nxt"));
      break;
  }
  EXPECT_FALSE(rsg_equal(a.g, mutated));
  const CanonicalKey ka = canonical_key(a.g);
  const CanonicalKey km = canonical_key(mutated);
  EXPECT_NE(ka, km);
  EXPECT_FALSE(same_graph(ka, a.g, km, mutated));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonMutationTest, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace psa::rsg
