#include "support/hash.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace psa::support {
namespace {

TEST(HashTest, Mix64IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(HashTest, Mix64SpreadsSmallInputs) {
  // Consecutive integers must land far apart (avalanche sanity check).
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, Fnv1aMatchesTheReferenceVectors) {
  // Snapshot checksums, cache keys and checkpoint unit keys on disk are
  // FNV-1a values: the function must stay exactly the published one.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

TEST(HashTest, CombineIsOrderSensitive) {
  const auto ab = hash_combine(hash_value(1), hash_value(2));
  const auto ba = hash_combine(hash_value(2), hash_value(1));
  EXPECT_NE(ab, ba);
}

TEST(HashTest, UnorderedAccumulateIsOrderInsensitive) {
  std::uint64_t h1 = 0;
  h1 = hash_accumulate_unordered(h1, hash_value(10));
  h1 = hash_accumulate_unordered(h1, hash_value(20));
  std::uint64_t h2 = 0;
  h2 = hash_accumulate_unordered(h2, hash_value(20));
  h2 = hash_accumulate_unordered(h2, hash_value(10));
  EXPECT_EQ(h1, h2);
}

TEST(HashTest, UnorderedAccumulateDistinguishesMultiplicity) {
  std::uint64_t once = hash_accumulate_unordered(0, hash_value(7));
  std::uint64_t twice = hash_accumulate_unordered(once, hash_value(7));
  EXPECT_NE(once, twice);
}

TEST(HashTest, HashValueWorksOnEnums) {
  enum class E : int { kA = 1, kB = 2 };
  EXPECT_NE(hash_value(E::kA), hash_value(E::kB));
  EXPECT_EQ(hash_value(E::kA), hash_value(1));
}

TEST(HashTest, HashRangeOrderSensitive) {
  const std::vector<int> a{1, 2, 3};
  const std::vector<int> b{3, 2, 1};
  auto eh = [](int v) { return hash_value(v); };
  EXPECT_NE(hash_range(a, eh), hash_range(b, eh));
  EXPECT_EQ(hash_range(a, eh), hash_range(a, eh));
}

TEST(HashTest, HashRangeEmptyUsesSeed) {
  const std::vector<int> empty;
  auto eh = [](int v) { return hash_value(v); };
  EXPECT_NE(hash_range(empty, eh, 1), hash_range(empty, eh, 2));
}

}  // namespace
}  // namespace psa::support
