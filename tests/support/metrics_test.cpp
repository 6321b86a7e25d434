// The operation-counter registry (support/metrics.hpp): snapshot
// arithmetic, region deltas, macro behavior, the counter-name table, and
// the timer/operation split. Counters are process-global and other threads
// never touch them in this binary, so deltas are exact.
#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace psa::support {
namespace {

TEST(Metrics, CounterNamesAreUniqueNonEmptySnakeCase) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string name{counter_name(static_cast<Counter>(i))};
    EXPECT_FALSE(name.empty()) << "counter " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_')
          << name;
    }
  }
}

TEST(Metrics, TimerSplitMatchesEnumLayout) {
  EXPECT_FALSE(is_timer(Counter::kCompressCalls));
  EXPECT_FALSE(is_timer(Counter::kGovernorDrains));
  EXPECT_TRUE(is_timer(Counter::kPhaseParseWallNs));
  EXPECT_TRUE(is_timer(Counter::kPhaseCacheLookupCpuNs));
  // Every timer name carries the _ns suffix; no operation counter does.
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string name{counter_name(c)};
    const bool ns_suffix =
        name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
    EXPECT_EQ(ns_suffix, is_timer(c)) << name;
  }
}

TEST(Metrics, RegistryCountsAreMonotonic) {
  auto& registry = MetricsRegistry::instance();
  std::vector<MetricsSnapshot> snaps;
  snaps.push_back(registry.snapshot());
  for (int i = 0; i < 5; ++i) {
    PSA_COUNT(Counter::kJoinAttempts);
    PSA_COUNT_N(Counter::kPruneLinksRemoved, 3);
    snaps.push_back(registry.snapshot());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      EXPECT_GE(snaps[i].values[c], snaps[i - 1].values[c])
          << counter_name(static_cast<Counter>(c));
    }
  }
}

TEST(Metrics, MacrosIncrementTheRegistry) {
  const MetricsRegion region;
  PSA_COUNT(Counter::kCompressCalls);
  PSA_COUNT(Counter::kCompressCalls);
  PSA_COUNT_N(Counter::kDivideVariants, 7);
  const MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[Counter::kCompressCalls], 2u);
  EXPECT_EQ(delta[Counter::kDivideVariants], 7u);
}

TEST(Metrics, RegionsNestAndCompose) {
  const MetricsRegion outer;
  PSA_COUNT_N(Counter::kJoinAccepts, 2);
  {
    const MetricsRegion inner;
    PSA_COUNT_N(Counter::kJoinAccepts, 5);
    EXPECT_EQ(inner.delta()[Counter::kJoinAccepts], 5u);
  }
  EXPECT_EQ(outer.delta()[Counter::kJoinAccepts], 7u);
}

TEST(Metrics, SnapshotSinceClampsInsteadOfUnderflowing) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.at(Counter::kWidenings) = 10;
  b.at(Counter::kWidenings) = 4;
  EXPECT_EQ(b.since(a)[Counter::kWidenings], 0u);
  EXPECT_EQ(a.since(b)[Counter::kWidenings], 6u);
}

TEST(Metrics, SnapshotSumAddsElementwise) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.at(Counter::kPruneCalls) = 3;
  b.at(Counter::kPruneCalls) = 4;
  b.at(Counter::kForceJoins) = 1;
  a += b;
  EXPECT_EQ(a[Counter::kPruneCalls], 7u);
  EXPECT_EQ(a[Counter::kForceJoins], 1u);
}

TEST(Metrics, SameOperationsIgnoresTimers) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.at(Counter::kPhaseParseWallNs) = 123456;
  b.at(Counter::kPhaseParseWallNs) = 654321;
  EXPECT_TRUE(a.same_operations(b));
  b.at(Counter::kJoinAttempts) = 1;
  EXPECT_FALSE(a.same_operations(b));
}

TEST(Metrics, PhaseTimerAccumulatesIntoItsCounters) {
  const MetricsRegion region;
  {
    PSA_PHASE_TIMER(timer, Counter::kPhaseCfgWallNs, Counter::kPhaseCfgCpuNs);
    // Touch the clock so the elapsed window is nonzero on any platform.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const MetricsSnapshot delta = region.delta();
  EXPECT_GT(delta[Counter::kPhaseCfgWallNs], 0u);
}

TEST(Metrics, RegistryAddIsThreadSafe) {
  const MetricsRegion region;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        PSA_COUNT(Counter::kWorklistVisits);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(region.delta()[Counter::kWorklistVisits],
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace psa::support
