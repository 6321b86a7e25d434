// SmallVector and SmallSet against std::vector and std::set: randomized
// operation sequences that cross the inline/heap boundary in both
// directions, plus the layout and hash the canonical keys rely on.
#include "support/small_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "support/hash.hpp"
#include "support/interner.hpp"
#include "support/small_set.hpp"

namespace psa::support {
namespace {

using Vec = SmallVector<std::uint32_t>;  // 4 inline
static_assert(Vec::kInline == 4);

template <typename T, std::size_t N>
std::vector<T> as_vector(const SmallVector<T, N>& v) {
  return {v.begin(), v.end()};
}

template <typename T>
std::vector<T> as_vector(const SmallSet<T>& s) {
  return {s.begin(), s.end()};
}

template <typename T>
std::vector<T> as_vector(const std::set<T>& s) {
  return {s.begin(), s.end()};
}

TEST(SmallVectorTest, LayoutMatchesStdVector) {
  EXPECT_EQ(sizeof(SmallVector<std::uint32_t>), 24u);
  EXPECT_EQ(sizeof(SmallVector<std::uint64_t>), 24u);
  EXPECT_EQ(sizeof(SmallSet<Symbol>), 24u);
  EXPECT_EQ(sizeof(SmallSet<std::uint32_t>), 24u);
  EXPECT_EQ(SmallVector<Symbol>::kInline, 4u);
}

TEST(SmallVectorTest, SpillsPastTheInlineCapacity) {
  Vec v;
  for (std::uint32_t i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.on_heap());
  v.push_back(4);
  EXPECT_TRUE(v.on_heap());
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  // A copy takes only the capacity its elements need.
  v.erase(v.begin() + 1, v.end());
  EXPECT_TRUE(v.on_heap());
  const Vec copy = v;
  EXPECT_FALSE(copy.on_heap());
  EXPECT_EQ(as_vector(copy), (std::vector<std::uint32_t>{0}));
}

TEST(SmallVectorTest, PushBackOfOwnElementSurvivesGrowth) {
  Vec v{1, 2, 3, 4};
  v.push_back(v[0]);
  v.insert(v.begin(), v[4]);
  EXPECT_EQ(as_vector(v), (std::vector<std::uint32_t>{1, 1, 2, 3, 4, 1}));
}

TEST(SmallVectorTest, SelfAssignmentKeepsTheElements) {
  for (const std::size_t n : {2u, 9u}) {
    Vec v;
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(i);
    const std::vector<std::uint32_t> before = as_vector(v);
    Vec& alias = v;
    v = alias;
    EXPECT_EQ(as_vector(v), before);
    v = std::move(alias);
    EXPECT_EQ(as_vector(v), before);
  }
}

TEST(SmallVectorTest, MovedFromIsEmptyAndReusable) {
  for (const std::size_t n : {3u, 12u}) {
    Vec v;
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(i);
    Vec taken = std::move(v);
    EXPECT_EQ(taken.size(), n);
    EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(v.on_heap());
    for (std::uint32_t i = 0; i < 7; ++i) v.push_back(i * 10);
    EXPECT_EQ(as_vector(v),
              (std::vector<std::uint32_t>{0, 10, 20, 30, 40, 50, 60}));
    Vec assigned;
    assigned = std::move(taken);
    EXPECT_EQ(assigned.size(), n);
    EXPECT_TRUE(taken.empty());  // NOLINT(bugprone-use-after-move)
    taken.push_back(5);
    EXPECT_EQ(as_vector(taken), (std::vector<std::uint32_t>{5}));
  }
}

// Random operation sequences on a SmallVector and a std::vector side by
// side; sizes wander between 0 and ~12, so every run crosses the 4-element
// inline capacity upward and back down many times.
class SmallVectorDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmallVectorDifferentialTest, AgreesWithStdVector) {
  std::mt19937 rng(GetParam());
  Vec mine;
  std::vector<std::uint32_t> ref;
  bool went_heap = false;
  bool came_back = false;
  for (int step = 0; step < 3000; ++step) {
    const auto v = static_cast<std::uint32_t>(rng() % 16);
    // Bias growth while small and shrinkage while large.
    const unsigned op = rng() % 10;
    const bool grow = ref.size() < 3 || (ref.size() < 12 && rng() % 2 == 0);
    if (op < 4 && grow) {
      mine.push_back(v);
      ref.push_back(v);
    } else if (op < 5 && grow) {
      const std::size_t at = rng() % (ref.size() + 1);
      mine.insert(mine.begin() + at, v);
      ref.insert(ref.begin() + static_cast<std::ptrdiff_t>(at), v);
    } else if (op < 7 && !ref.empty()) {
      const std::size_t at = rng() % ref.size();
      const std::size_t len = 1 + rng() % (ref.size() - at);
      mine.erase(mine.begin() + at, mine.begin() + at + len);
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(at),
                ref.begin() + static_cast<std::ptrdiff_t>(at + len));
    } else if (op < 8) {
      const auto pred = [v](std::uint32_t x) { return x % 4 == v % 4; };
      const std::size_t removed = mine.erase_if(pred);
      EXPECT_EQ(removed, std::erase_if(ref, pred));
    } else if (op < 9) {
      // Copy, move and reassign through fresh objects.
      Vec copy = mine;
      Vec moved = std::move(copy);
      copy = moved;  // reuse after the move
      mine = std::move(copy);
      EXPECT_EQ(as_vector(moved), ref);
    } else if (!ref.empty()) {
      mine.pop_back();
      ref.pop_back();
    }
    went_heap |= mine.on_heap() || ref.size() > Vec::kInline;
    came_back |= went_heap && ref.size() <= Vec::kInline;
    ASSERT_EQ(as_vector(mine), ref) << "step " << step;
    // Comparisons agree with std::vector's.
    Vec other;
    const std::size_t other_size = rng() % 8;
    for (std::size_t i = 0; i < other_size; ++i) {
      other.push_back(static_cast<std::uint32_t>(rng() % 16));
    }
    const std::vector<std::uint32_t> other_ref = as_vector(other);
    EXPECT_EQ(mine == other, ref == other_ref);
    EXPECT_EQ(mine <=> other, ref <=> other_ref);
  }
  EXPECT_TRUE(went_heap);
  EXPECT_TRUE(came_back);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVectorDifferentialTest,
                         ::testing::Range(0u, 8u));

// SmallSet against std::set: every operation of its API, on sets whose
// sizes cross the inline capacity in both directions.
class SmallSetDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmallSetDifferentialTest, AgreesWithStdSet) {
  std::mt19937 rng(GetParam());
  using Set = SmallSet<std::uint32_t>;
  const auto random_pair = [&] {
    Set mine;
    std::set<std::uint32_t> ref;
    const std::size_t n = rng() % 10;  // 0..9: inline or spilled
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::uint32_t>(rng() % 12);
      EXPECT_EQ(mine.insert(v), ref.insert(v).second);
    }
    return std::pair{mine, ref};
  };
  for (int round = 0; round < 400; ++round) {
    auto [a, ra] = random_pair();
    const auto [b, rb] = random_pair();

    std::set<std::uint32_t> u, i, d;
    std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                   std::inserter(u, u.end()));
    std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                          std::inserter(i, i.end()));
    std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::inserter(d, d.end()));
    EXPECT_EQ(as_vector(set_union(a, b)), as_vector(u));
    EXPECT_EQ(as_vector(set_intersection(a, b)), as_vector(i));
    EXPECT_EQ(as_vector(set_difference(a, b)), as_vector(d));
    EXPECT_EQ(intersects(a, b), !i.empty());
    EXPECT_EQ(a.is_subset_of(b),
              std::includes(rb.begin(), rb.end(), ra.begin(), ra.end()));
    EXPECT_EQ(a == b, ra == rb);
    EXPECT_EQ(a <=> b, as_vector(ra) <=> as_vector(rb));

    // Grow past the inline capacity, then shrink back under it.
    for (std::uint32_t v = 0; v < 8; ++v) {
      EXPECT_EQ(a.insert(v), ra.insert(v).second);
    }
    for (std::uint32_t v = 0; v < 12; v += 1 + rng() % 2) {
      EXPECT_EQ(a.erase(v), ra.erase(v) != 0);
    }
    const std::uint32_t m = 2 + rng() % 3;
    a.erase_if([m](std::uint32_t v) { return v % m == 0; });
    std::erase_if(ra, [m](std::uint32_t v) { return v % m == 0; });
    ASSERT_EQ(as_vector(a), as_vector(ra));
    for (std::uint32_t v = 0; v < 12; ++v) {
      EXPECT_EQ(a.contains(v), ra.count(v) != 0);
    }

    // Copy, move, self-assignment and reuse after a move.
    Set copy = a;
    Set& alias = copy;
    copy = alias;
    Set moved = std::move(copy);
    EXPECT_EQ(moved, a);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy.insert(7);
    EXPECT_EQ(as_vector(copy), (std::vector<std::uint32_t>{7}));
    copy = std::move(moved);
    EXPECT_EQ(copy, a);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallSetDifferentialTest,
                         ::testing::Range(0u, 8u));

// The canonical keys and WL colours hash property sets through
// SmallSet::hash; it must stay hash_range over the sorted elements wherever
// they live, or every key and digest golden would move.
TEST(SmallSetTest, HashIsHashRangeOverTheElements) {
  const auto sym_hash = [](Symbol s) { return hash_value(s.id()); };
  for (std::uint32_t n = 0; n <= 9; ++n) {
    SmallSet<Symbol> set;
    std::vector<Symbol> elements;
    for (std::uint32_t i = n; i > 0; --i) set.insert(Symbol(i * 3));
    for (std::uint32_t i = 1; i <= n; ++i) elements.push_back(Symbol(i * 3));
    EXPECT_EQ(set.hash(sym_hash), hash_range(elements, sym_hash)) << n;
  }
}

}  // namespace
}  // namespace psa::support
