// Canonical keys: the fixpoint's equality oracle.
#include "rsg/canon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <tuple>
#include <vector>

#include "support/memory_stats.hpp"
#include "support/metrics.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::rsg {
namespace {

using psa::testing::RsgBuilder;

TEST(CanonTest, EmptyGraphsEqual) {
  Rsg a;
  Rsg b;
  EXPECT_EQ(canonical_key(a), canonical_key(b));
}

TEST(CanonTest, NodeCountDifferenceDetected) {
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  const NodeRef n = b.node();
  b.pvar("x", n);
  b.link(n, "nxt", b.node());
  EXPECT_NE(canonical_key(a.g), canonical_key(b.g));
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

  EXPECT_EQ(canonical_key(a.g), canonical_key(b.g));
}

// A key's bytes live in one shared block: a copy is a handle, so copies add
// no live bytes, and the block is counted until its last handle goes.
TEST(CanonTest, CopyingAKeyDoesNotCopyItsBytes) {
  RsgBuilder b;
  const NodeRef n = b.node();
  b.pvar("x", n);
  b.link(n, "nxt", b.node(Cardinality::kMany));
  const auto live = [] {
    return support::MemoryStats::instance().snapshot().live_bytes;
  };
  const std::uint64_t base = live();
  {
    const CanonicalKey key = canonical_key(b.g);
    const std::uint64_t with_key = live();
    EXPECT_GE(with_key - base, key.bytes().size());
    std::vector<CanonicalKey> copies(64, key);
    CanonicalKey assigned;
    assigned = key;
    EXPECT_EQ(live(), with_key);
    for (const CanonicalKey& copy : copies) {
      EXPECT_EQ(copy, key);
      EXPECT_EQ(copy.bytes().data(), key.bytes().data());
    }
    CanonicalKey moved = std::move(copies.back());
    copies.clear();
    EXPECT_EQ(moved, key);
    EXPECT_EQ(live(), with_key);
  }
  EXPECT_EQ(live(), base);
}

TEST(CanonTest, SeparatelyBuiltKeysOfIsomorphicGraphsAreEqual) {
  RsgBuilder a;
  const NodeRef a1 = a.node();
  const NodeRef a2 = a.node(Cardinality::kMany);
  a.pvar("x", a1);
  a.link(a1, "nxt", a2).link(a2, "prv", a1);
  RsgBuilder b(a.interner_ptr());
  const NodeRef b2 = b.node(Cardinality::kMany);
  const NodeRef b1 = b.node();
  b.pvar("x", b1);
  b.link(b1, "nxt", b2).link(b2, "prv", b1);

  const CanonicalKey ka = canonical_key(a.g);
  const CanonicalKey kb = canonical_key(b.g);
  EXPECT_NE(ka.bytes().data(), kb.bytes().data());  // two blocks
  EXPECT_EQ(ka.bytes(), kb.bytes());
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(CanonicalKey::Hash{}(ka), CanonicalKey::Hash{}(kb));
  const CanonicalKey copy = kb;
  EXPECT_EQ(ka, copy);
  b.link(b1, "prv", b1);
  EXPECT_NE(ka, canonical_key(b.g));
}

TEST(CanonTest, PropertyDifferenceDetected) {
  RsgBuilder a;
  a.pvar("x", a.node());
  RsgBuilder b(a.interner_ptr());
  const NodeRef n = b.node();
  b.pvar("x", n);
  b.shared(n);
  EXPECT_NE(canonical_key(a.g), canonical_key(b.g));
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
  EXPECT_NE(canonical_key(a.g), canonical_key(b.g));
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
  EXPECT_NE(canonical_key(a.g), canonical_key(b.g));
}

TEST(CanonTest, SymmetricGraphWithAutomorphism) {
  // x -> root with two indistinguishable children: still isomorphic to an
  // identically-built copy (forces the key through a symmetric orbit).
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
  EXPECT_EQ(canonical_key(a.g), canonical_key(b.g));
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
  EXPECT_NE(canonical_key(a.g), canonical_key(b.g));
}

TEST(CanonTest, FingerprintStableUnderCompaction) {
  RsgBuilder a;
  const NodeRef n1 = a.node();
  const NodeRef dead = a.node();
  const NodeRef n2 = a.node(Cardinality::kMany);
  a.pvar("x", n1).link(n1, "nxt", n2);
  a.g.remove_node(dead);
  const CanonicalKey before = canonical_key(a.g);
  a.g.compact();
  EXPECT_EQ(canonical_key(a.g), before);
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

TEST(CanonTest, AutomorphicGraphTakesTheSearch) {
  // x -> root with two identical nxt successors: swapping the successors is
  // an automorphism, so no refinement can separate them and the key needs
  // the individualization search.
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

  EXPECT_EQ(ka, kb);
  EXPECT_NE(ka, ks);
}

TEST(CanonTest, RefinementEquivalentGraphsGetDifferentKeys) {
  // x -> root -nxt-> six identical summary nodes whose prv links form one
  // 6-cycle or two 3-cycles. Each summary node has one nxt in-link and one
  // prv link each way, so refinement gives all six one colour in both
  // graphs; they are not isomorphic, and only the search tells them apart.
  using Cycles = std::array<std::size_t, 6>;  // prv successor of each node
  const Cycles six = {1, 2, 3, 4, 5, 0};
  const Cycles two_threes = {1, 2, 0, 4, 5, 3};
  RsgBuilder shared_names;
  const auto make = [&](const Cycles& prv, bool permuted) {
    RsgBuilder b(shared_names.interner_ptr());
    std::array<NodeRef, 6> nodes{};
    NodeRef root = permuted ? kNoNode : b.node();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[permuted ? nodes.size() - 1 - i : i] = b.node(Cardinality::kMany);
    }
    if (permuted) root = b.node();
    b.pvar("x", root);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      b.link(root, "nxt", nodes[i]).link(nodes[i], "prv", nodes[prv[i]]);
    }
    return b.g;
  };

  const support::MetricsRegion region;
  const CanonicalKey k_six = canonical_key(make(six, false));
  const CanonicalKey k_threes = canonical_key(make(two_threes, false));
  EXPECT_EQ(region.delta()[support::Counter::kCanonFallbacks], 2u);
  EXPECT_NE(k_six, k_threes);
  EXPECT_EQ(k_six, canonical_key(make(six, true)));
  EXPECT_EQ(k_threes, canonical_key(make(two_threes, true)));
}

// Property sweep: random graph, random slot permutation (rebuild in a
// shuffled order) -> equal keys.
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

  EXPECT_EQ(canonical_key(a.g), canonical_key(b.g));
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
  EXPECT_NE(canonical_key(a.g), canonical_key(mutated));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonMutationTest, ::testing::Range(0u, 12u));

// Brute-force oracle: key equality must agree with an exhaustive search over
// node permutations, on small graphs built to contain the symmetric
// structures that refinement cannot split.
struct GraphSpec {
  std::vector<std::uint32_t> types;  // one summary node per entry
  std::vector<std::pair<const char*, std::size_t>> pvars;
  std::vector<std::tuple<std::size_t, const char*, std::size_t>> links;
};

/// Three shapes in turn: random links; a random base with twins of one
/// node (automorphic, so tied); a root whose identical children carry a
/// random prv permutation (refinement-equivalent across cycle types).
GraphSpec random_spec(std::mt19937& rng, std::size_t shape) {
  const char* sels[2] = {"nxt", "prv"};
  GraphSpec spec;
  const auto random_links = [&](std::size_t n) {
    for (std::size_t f = 0; f < n; ++f) {
      for (std::size_t t = 0; t < n; ++t) {
        for (const char* sel : sels) {
          if (rng() % 10 < 3) spec.links.emplace_back(f, sel, t);
        }
      }
    }
  };
  if (shape == 0) {
    const std::size_t n = 2 + rng() % 5;
    for (std::size_t i = 0; i < n; ++i) spec.types.push_back(rng() % 2);
    random_links(n);
  } else if (shape == 1) {
    const std::size_t base = 2 + rng() % 3;
    for (std::size_t i = 0; i < base; ++i) spec.types.push_back(rng() % 2);
    random_links(base);
    const std::size_t v = 1 + rng() % (base - 1);
    const auto base_links = spec.links;
    for (std::size_t t = 1 + rng() % (6 - base); t > 0; --t) {
      const std::size_t twin = spec.types.size();
      spec.types.push_back(spec.types[v]);
      for (const auto& [f, sel, to] : base_links) {
        if (f == v) spec.links.emplace_back(twin, sel, to == v ? twin : to);
        if (to == v && f != v) spec.links.emplace_back(f, sel, twin);
      }
    }
  } else {
    const std::size_t kids = 2 + rng() % 4;
    spec.types.push_back(rng() % 2);
    const std::uint32_t kid_type = rng() % 2;
    std::vector<std::size_t> prv(kids);
    for (std::size_t i = 0; i < kids; ++i) prv[i] = 1 + i;
    std::shuffle(prv.begin(), prv.end(), rng);
    for (std::size_t i = 0; i < kids; ++i) {
      spec.types.push_back(kid_type);
      spec.links.emplace_back(0, "nxt", 1 + i);
      spec.links.emplace_back(1 + i, "prv", prv[i]);
    }
  }
  spec.pvars.emplace_back("x", 0);
  if (rng() % 4 == 0) spec.pvars.emplace_back("y", rng() % spec.types.size());
  return spec;
}

/// Build `spec`, allocating node slots and adding links in `rng`'s order
/// when `shuffled`.
Rsg build(const GraphSpec& spec, RsgBuilder& names, std::mt19937& rng,
          bool shuffled) {
  const std::size_t n = spec.types.size();
  std::vector<std::size_t> slot_order(n);
  for (std::size_t i = 0; i < n; ++i) slot_order[i] = i;
  auto links = spec.links;
  if (shuffled) {
    std::shuffle(slot_order.begin(), slot_order.end(), rng);
    std::shuffle(links.begin(), links.end(), rng);
  }
  RsgBuilder b(names.interner_ptr());
  std::vector<NodeRef> nodes(n);
  for (const std::size_t i : slot_order) {
    nodes[i] = b.node(Cardinality::kMany, spec.types[i]);
  }
  for (const auto& [pvar, i] : spec.pvars) b.pvar(pvar, nodes[i]);
  for (const auto& [f, sel, t] : links) b.link(nodes[f], sel, nodes[t]);
  return b.g;
}

/// True when some bijection of a's nodes onto b's preserves properties,
/// links and pvar bindings.
bool isomorphic_by_brute_force(const Rsg& a, const Rsg& b) {
  const NodeRefs ra = a.node_refs();
  NodeRefs rb = b.node_refs();
  if (a.havoc() != b.havoc() || ra.size() != rb.size() ||
      a.link_count() != b.link_count() ||
      a.pvar_links().size() != b.pvar_links().size()) {
    return false;
  }
  std::sort(rb.begin(), rb.end());
  std::vector<NodeRef> map(a.node_capacity(), kNoNode);
  const auto preserves = [&] {
    for (const NodeRef n : ra) {
      if (!(a.props(n) == b.props(map[n]))) return false;
      for (const Link& l : a.out_links(n)) {
        if (!b.has_link(map[n], l.sel, map[l.target])) return false;
      }
    }
    for (const auto& [pvar, n] : a.pvar_links()) {
      if (b.pvar_target(pvar) != map[n]) return false;
    }
    return true;
  };
  do {
    for (std::size_t i = 0; i < ra.size(); ++i) map[ra[i]] = rb[i];
    if (preserves()) return true;
  } while (std::next_permutation(rb.begin(), rb.end()));
  return false;
}

class CanonBruteTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CanonBruteTest, KeyEqualityIsIsomorphism) {
  std::mt19937 rng(GetParam());
  RsgBuilder names;
  std::vector<Rsg> graphs;
  for (std::size_t i = 0; i < 30; ++i) {
    const GraphSpec spec = random_spec(rng, i % 3);
    graphs.push_back(build(spec, names, rng, false));
    graphs.push_back(build(spec, names, rng, true));
  }
  const support::MetricsRegion region;
  std::vector<CanonicalKey> keys;
  for (const Rsg& g : graphs) keys.push_back(canonical_key(g));
  EXPECT_GT(region.delta()[support::Counter::kCanonFallbacks], 0u);

  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (std::size_t j = i; j < graphs.size(); ++j) {
      ASSERT_EQ(keys[i] == keys[j],
                isomorphic_by_brute_force(graphs[i], graphs[j]))
          << "graphs " << i << " and " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonBruteTest, ::testing::Range(0u, 16u));

}  // namespace
}  // namespace psa::rsg
