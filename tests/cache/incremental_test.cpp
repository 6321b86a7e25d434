// The function-granular incremental tier (docs/CACHING.md): key sensitivity
// of the per-function entries, and the supervisor-level contract that a
// one-line edit in an N-function unit re-runs exactly one fixpoint —
// func_cache_hits == N-1, func_cache_misses == 1, byte-identical report.
// Also: summary-visible changes cascade to callers, whitespace/line-shift
// edits behave exactly as documented, and corrupt per-function entries
// quarantine and self-heal transparently.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "cache/cache.hpp"
#include "cache/key.hpp"
#include "corpus/corpus.hpp"
#include "driver/incremental.hpp"
#include "driver/supervisor.hpp"
#include "ipa/summarize.hpp"
#include "ipa/summary_io.hpp"
#include "support/metrics.hpp"

namespace psa::cache {
namespace {

namespace fs = std::filesystem;

// A call chain main -> f1 -> f2 -> f3 (leaf): N = 4 functions. f3's body
// line is the edit target — every edit below replaces that single line
// without changing the unit's line count, so sibling locations never shift.
constexpr std::string_view kLeafLine = "  a->next = NULL;\n";

std::string chain_source(std::string_view leaf_line = kLeafLine) {
  std::string src =
      "struct node { struct node *next; int v; };\n"
      "void f3(struct node *a) {\n"
      "%s"
      "}\n"
      "void f2(struct node *a) {\n"
      "  f3(a);\n"
      "  a->next = NULL;\n"
      "}\n"
      "void f1(struct node *a) {\n"
      "  f2(a);\n"
      "}\n"
      "void main() {\n"
      "  struct node *p;\n"
      "  p = malloc(sizeof(struct node));\n"
      "  f1(p);\n"
      "  p->next = NULL;\n"
      "}\n";
  src.replace(src.find("%s"), 2, leaf_line);
  return src;
}

constexpr std::size_t kChainFunctions = 4;  // main, f1, f2, f3

driver::AnalysisUnit inline_unit(std::string name, std::string source) {
  driver::AnalysisUnit u;
  u.name = std::move(name);
  u.source = std::move(source);
  return u;
}

class IncrementalCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("psa-inc-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  driver::BatchOptions cached_options(std::string dir) const {
    driver::BatchOptions options;
    options.isolate = false;  // counters must land in THIS process's registry
    options.check = true;
    options.cache_dir = std::move(dir);
    return options;
  }

  /// The report a cold, cache-less run of `source` renders — the oracle
  /// every cached path must match byte for byte.
  std::string uncached_report(const std::string& source) {
    const driver::BatchResult result = driver::run_batch(
        {inline_unit("chain.c", source)}, [] {
          driver::BatchOptions options;
          options.isolate = false;
          options.check = true;
          return options;
        }());
    return driver::format_batch_report(result);
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Key-level sensitivity: the per-function keys move exactly when the
// documented inputs move.

class FunctionKeyTest : public ::testing::Test {
 protected:
  static analysis::ProgramAnalysis prepared(std::string_view source) {
    analysis::FrontendOptions frontend;
    frontend.salvage = true;
    return analysis::prepare(source, "main", frontend);
  }
};

TEST_F(FunctionKeyTest, CalleeSummaryHashIsInTheKey) {
  const analysis::ProgramAnalysis program = prepared(chain_source());
  const analysis::FunctionCfg* f2 = program.find_cfg(program.symbol("f2"));
  ASSERT_NE(f2, nullptr);

  CalleeDep dep;
  dep.name = "f3";
  dep.has_summary = true;
  dep.summary_hash = 0x1111;
  CalleeDep moved = dep;
  moved.summary_hash = 0x2222;
  CalleeDep absent = dep;
  absent.has_summary = false;
  absent.summary_hash = 0;

  const analysis::Options engine;
  const CacheKey base =
      function_summary_key(program, *f2, engine, /*salvage=*/true, {dep});
  // The callee's summary CONTENT is the dependency: a different hash is a
  // different key, and "no summary yet" (extern, unanalyzed) is distinct
  // from any real summary — an extern gaining a body must invalidate.
  EXPECT_NE(base, function_summary_key(program, *f2, engine, true, {moved}));
  EXPECT_NE(base, function_summary_key(program, *f2, engine, true, {absent}));
  EXPECT_NE(base, function_summary_key(program, *f2, engine, true, {}));
  EXPECT_EQ(base, function_summary_key(program, *f2, engine, true, {dep}));
}

TEST_F(FunctionKeyTest, SummaryKeysAreCheckerBlindButResultKeysAreNot) {
  // Summaries never depend on whether checkers run, so a --check flip must
  // re-serve the same summary entries; the result entry carries findings,
  // so its key must move.
  const analysis::ProgramAnalysis program = prepared(chain_source());
  const analysis::FunctionCfg* f3 = program.find_cfg(program.symbol("f3"));
  ASSERT_NE(f3, nullptr);
  const analysis::Options engine;

  EXPECT_EQ(function_summary_key(program, *f3, engine, true, {}),
            function_summary_key(program, *f3, engine, true, {}));
  EXPECT_NE(function_result_key(program, engine, /*check=*/true,
                                /*salvage=*/true, {}),
            function_result_key(program, engine, /*check=*/false,
                                /*salvage=*/true, {}));
  // The two entry kinds can never collide, even for identical inputs: the
  // key preimages carry distinct tags.
  EXPECT_NE(function_summary_key(program, *program.find_cfg(
                                     program.symbol("main")),
                                 engine, true, {}),
            function_result_key(program, engine, /*check=*/false, true, {}));
}

TEST_F(FunctionKeyTest, OwnBodyIsInTheKeyButSiblingsAreNot) {
  // The whole point of the tier: f2's key covers f2's own CFG and its
  // callee summary identities — NOT sibling bodies. An edit to f3 that
  // leaves its summary identical must leave f2's key untouched.
  const analysis::ProgramAnalysis before = prepared(chain_source());
  const analysis::ProgramAnalysis after =
      prepared(chain_source("  a->next = a;\n"));
  const analysis::Options engine;
  CalleeDep dep;
  dep.name = "f3";
  dep.has_summary = true;
  dep.summary_hash = 0xfeed;

  const analysis::FunctionCfg* f2_before = before.find_cfg(before.symbol("f2"));
  const analysis::FunctionCfg* f2_after = after.find_cfg(after.symbol("f2"));
  const analysis::FunctionCfg* f3_before = before.find_cfg(before.symbol("f3"));
  const analysis::FunctionCfg* f3_after = after.find_cfg(after.symbol("f3"));
  ASSERT_NE(f2_before, nullptr);
  ASSERT_NE(f2_after, nullptr);
  ASSERT_NE(f3_before, nullptr);
  ASSERT_NE(f3_after, nullptr);

  EXPECT_EQ(function_summary_key(before, *f2_before, engine, true, {dep}),
            function_summary_key(after, *f2_after, engine, true, {dep}));
  EXPECT_NE(function_summary_key(before, *f3_before, engine, true, {}),
            function_summary_key(after, *f3_after, engine, true, {}));
}

TEST_F(FunctionKeyTest, SummaryHashIsContentAddressed) {
  // Identical summaries hash identically across separately-prepared units
  // (the hash covers spellings, not Symbol ids); a summary-visible change
  // moves it.
  const analysis::ProgramAnalysis a = prepared(chain_source());
  const analysis::ProgramAnalysis b =
      prepared(chain_source("  a->next = a;\n"));
  const analysis::Options engine;
  const ipa::SummaryTable ta = ipa::compute_summaries(a, engine);
  const ipa::SummaryTable tb = ipa::compute_summaries(b, engine);
  const auto hash_of = [](const analysis::ProgramAnalysis& p,
                          const ipa::SummaryTable& t, std::string_view fn) {
    const auto it = t.find(p.symbol(fn));
    EXPECT_NE(it, t.end()) << fn;
    return ipa::summary_hash(it->second, p.interner());
  };
  // f3's edit (a->next = NULL  ->  a->next = a) leaves the summary facts
  // (mutates_heap, no alloc/free, void return) identical.
  EXPECT_EQ(hash_of(a, ta, "f3"), hash_of(b, tb, "f3"));
  EXPECT_EQ(hash_of(a, ta, "f2"), hash_of(b, tb, "f2"));

  const analysis::ProgramAnalysis c = prepared(chain_source("  free(a);\n"));
  const ipa::SummaryTable tc = ipa::compute_summaries(c, engine);
  EXPECT_NE(hash_of(a, ta, "f3"), hash_of(c, tc, "f3"));
}

// ---------------------------------------------------------------------------
// Supervisor contract: the headline hits == N-1 / misses == 1 guarantee.

TEST_F(IncrementalCacheTest, OneLineEditRerunsExactlyOneFixpoint) {
  const std::string original = chain_source();
  // Replace the leaf's single body line in place: same line count, same
  // summary facts (still a heap mutation, no alloc/free), different CFG.
  const std::string edited = chain_source("  a->next = a;\n");

  // Cold: the unit misses, and the function tier populates — one summary
  // entry per demanded function (f1, f2, f3) plus the result entry.
  support::MetricsRegion cold_region;
  const driver::BatchResult cold = driver::run_batch(
      {inline_unit("chain.c", original)}, cached_options(dir_));
  const support::MetricsSnapshot cold_delta = cold_region.delta();
  EXPECT_EQ(cold_delta[support::Counter::kCacheMisses], 1u);
  EXPECT_EQ(cold_delta[support::Counter::kCacheStores], 1u);
  EXPECT_EQ(cold_delta[support::Counter::kFuncCacheHits], 0u);
  EXPECT_EQ(cold_delta[support::Counter::kFuncCacheMisses], kChainFunctions);
  EXPECT_EQ(cold_delta[support::Counter::kFuncCacheStores], kChainFunctions);
  EXPECT_EQ(cold_delta[support::Counter::kSummaryReuse], 0u);

  // Warm, unedited: the unit tier answers; the function tier is never
  // consulted (its counters stay exactly zero).
  support::MetricsRegion warm_region;
  (void)driver::run_batch({inline_unit("chain.c", original)},
                          cached_options(dir_));
  const support::MetricsSnapshot warm_delta = warm_region.delta();
  EXPECT_EQ(warm_delta[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(warm_delta[support::Counter::kFuncCacheHits], 0u);
  EXPECT_EQ(warm_delta[support::Counter::kFuncCacheMisses], 0u);

  // The edit: exactly ONE fixpoint re-runs (f3's summary). f2 and f1 are
  // served from the function tier because their own CFGs did not change and
  // f3's recomputed summary hashed identically; main's result entry hits
  // for the same reason. hits == N-1, misses == 1.
  support::MetricsRegion edit_region;
  const driver::BatchResult rerun = driver::run_batch(
      {inline_unit("chain.c", edited)}, cached_options(dir_));
  const support::MetricsSnapshot edit_delta = edit_region.delta();
  EXPECT_EQ(edit_delta[support::Counter::kCacheHits], 0u);
  EXPECT_EQ(edit_delta[support::Counter::kCacheMisses], 1u);
  EXPECT_EQ(edit_delta[support::Counter::kFuncCacheHits], kChainFunctions - 1);
  EXPECT_EQ(edit_delta[support::Counter::kFuncCacheMisses], 1u);
  EXPECT_EQ(edit_delta[support::Counter::kSummaryReuse],
            kChainFunctions - 2);  // f1, f2 — the result hit is not a summary
  // The served result is indistinguishable from a cold, cache-less run of
  // the edited source.
  EXPECT_EQ(driver::format_batch_report(rerun), uncached_report(edited));

  // The function-tier hit promoted the result back under the edited unit's
  // key: the next unedited run takes the unit fast path again.
  support::MetricsRegion promoted_region;
  (void)driver::run_batch({inline_unit("chain.c", edited)},
                          cached_options(dir_));
  const support::MetricsSnapshot promoted = promoted_region.delta();
  EXPECT_EQ(promoted[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(promoted[support::Counter::kFuncCacheMisses], 0u);
}

TEST_F(IncrementalCacheTest, SummaryVisibleChangeCascadesToDirectCallers) {
  // free(a) flips the leaf's may_free fact: the summary bytes change, so
  // the hash cascade reaches f2 (its key embeds f3's hash) — and keeps
  // cascading exactly as far as the recomputed summaries keep changing.
  const std::string original = chain_source();
  const std::string edited = chain_source("  free(a);\n");
  (void)driver::run_batch({inline_unit("chain.c", original)},
                          cached_options(dir_));

  support::MetricsRegion region;
  const driver::BatchResult rerun = driver::run_batch(
      {inline_unit("chain.c", edited)}, cached_options(dir_));
  const support::MetricsSnapshot delta = region.delta();
  // At minimum the leaf AND its direct caller recompute; hits can no longer
  // reach N-1.
  EXPECT_GE(delta[support::Counter::kFuncCacheMisses], 2u);
  EXPECT_LE(delta[support::Counter::kFuncCacheHits], kChainFunctions - 2);
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);
  // Correctness before economy: the report matches a cache-less run — the
  // cascade never serves a result computed against the old summary.
  EXPECT_EQ(driver::format_batch_report(rerun), uncached_report(edited));
}

TEST_F(IncrementalCacheTest, WhitespaceOnlyEditStaysOnTheUnitFastPath) {
  // Extra spaces inside a line change neither the token stream nor any
  // source location: the lowered CFGs are identical, the unit key holds,
  // and the function tier is never consulted.
  const std::string original = chain_source();
  const std::string padded = chain_source("  a->next   =   NULL;\n");
  (void)driver::run_batch({inline_unit("chain.c", original)},
                          cached_options(dir_));

  support::MetricsRegion region;
  (void)driver::run_batch({inline_unit("chain.c", padded)},
                          cached_options(dir_));
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(delta[support::Counter::kFuncCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kFuncCacheMisses], 0u);
}

TEST_F(IncrementalCacheTest, LineShiftInvalidatesEveryFunction) {
  // A leading newline shifts every function's locations. Findings quote
  // line numbers, so every per-function key legitimately moves: the edit
  // re-runs everything, exactly as docs/CACHING.md warns.
  const std::string original = chain_source();
  const std::string shifted = "\n" + original;
  (void)driver::run_batch({inline_unit("chain.c", original)},
                          cached_options(dir_));

  support::MetricsRegion region;
  const driver::BatchResult rerun = driver::run_batch(
      {inline_unit("chain.c", shifted)}, cached_options(dir_));
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kFuncCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kFuncCacheMisses], kChainFunctions);
  EXPECT_EQ(delta[support::Counter::kSummaryReuse], 0u);
  EXPECT_EQ(driver::format_batch_report(rerun), uncached_report(shifted));
}

TEST_F(IncrementalCacheTest, CorruptFunctionEntriesSelfHealByteIdentically) {
  // Rot every per-function entry on disk (and remove the unit entry so the
  // function tier is actually consulted): every probe must evict, count a
  // self-heal, recompute, and re-render the identical report.
  const std::string source = chain_source();
  driver::AnalysisUnit unit = inline_unit("chain.c", source);
  ResultCache cache(dir_);
  const std::string cold = driver::run_unit_serialized(
      unit, {}, /*check=*/true, /*salvage=*/true, &cache);

  analysis::FrontendOptions frontend;
  frontend.salvage = true;
  const analysis::ProgramAnalysis program =
      analysis::prepare(source, "main", frontend);
  const std::string unit_entry =
      cache.entry_path(cache_key(program, {}, /*check=*/true,
                                 /*salvage=*/true));
  ASSERT_TRUE(fs::exists(unit_entry));
  fs::remove(unit_entry);
  std::size_t corrupted = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() != ".entry") continue;
    std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                     std::ios::binary);
    f.seekp(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellp());
    f.seekp(size / 2);
    f.put('\x7f');
    ++corrupted;
  }
  ASSERT_EQ(corrupted, kChainFunctions);  // 3 summaries + 1 result entry

  support::MetricsRegion region;
  const std::string healed = driver::run_unit_serialized(
      unit, {}, /*check=*/true, /*salvage=*/true, &cache);
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheSelfHeals], kChainFunctions);
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], kChainFunctions);
  EXPECT_EQ(delta[support::Counter::kFuncCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kFuncCacheMisses], kChainFunctions);
  EXPECT_EQ(delta[support::Counter::kFuncCacheStores], kChainFunctions);
  // Hostile bytes never reach the caller: the evidence lands in quarantine
  // and the recomputed payload matches the cold one.
  EXPECT_FALSE(fs::is_empty(fs::path(dir_) / "quarantine"));
  const driver::UnitPayload before = driver::deserialize_unit_payload(cold);
  const driver::UnitPayload after = driver::deserialize_unit_payload(healed);
  EXPECT_EQ(after.findings.size(), before.findings.size());
  EXPECT_EQ(after.exit_graphs(), before.exit_graphs());

  // Fully healed: the next run takes the unit fast path.
  support::MetricsRegion warm_region;
  (void)driver::run_unit_serialized(unit, {}, /*check=*/true,
                                    /*salvage=*/true, &cache);
  EXPECT_EQ(warm_region.delta()[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(warm_region.delta()[support::Counter::kCacheSelfHeals], 0u);
}

TEST_F(IncrementalCacheTest, NoSummariesSiblingEditServesFromTheResultEntry) {
  // --no-summaries call sites take the havoc fallback, so the target's
  // result depends on its own CFG alone: the function tier keys with an
  // empty dependency list (no summary entries at all), and a sibling edit
  // — which moves the unit key — still serves the result entry.
  driver::BatchOptions options = cached_options(dir_);
  options.engine.enable_summaries = false;

  support::MetricsRegion cold_region;
  (void)driver::run_batch({inline_unit("chain.c", chain_source())}, options);
  const support::MetricsSnapshot cold_delta = cold_region.delta();
  EXPECT_EQ(cold_delta[support::Counter::kFuncCacheMisses], 1u);  // result only
  EXPECT_EQ(cold_delta[support::Counter::kFuncCacheStores], 1u);
  EXPECT_EQ(cold_delta[support::Counter::kSummaryReuse], 0u);

  support::MetricsRegion region;
  const driver::BatchResult rerun = driver::run_batch(
      {inline_unit("chain.c", chain_source("  a->next = a;\n"))}, options);
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);    // unit key moved
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);
  EXPECT_EQ(delta[support::Counter::kFuncCacheHits], 1u);  // result entry held
  EXPECT_EQ(delta[support::Counter::kFuncCacheMisses], 0u);

  driver::BatchOptions uncached;
  uncached.isolate = false;
  uncached.check = true;
  uncached.engine.enable_summaries = false;
  const driver::BatchResult fresh = driver::run_batch(
      {inline_unit("chain.c", chain_source("  a->next = a;\n"))}, uncached);
  EXPECT_EQ(driver::format_batch_report(rerun),
            driver::format_batch_report(fresh));
}

TEST_F(IncrementalCacheTest, ColdCacheBatchDoesTheUncachedBatchsWork) {
  // The cached path resolves the summaries the target's calls reach before
  // it runs the target; the uncached path lets analyze_program resolve
  // them. Both summarize the same functions, so every analysis, rsg and ipa
  // counter of each unit agrees (summary_reuse, a cache counter, aside).
  std::vector<driver::AnalysisUnit> units = driver::corpus_units();
  for (const corpus::BuggyProgram& p : corpus::buggy_programs()) {
    units.push_back(inline_unit(std::string(p.name), std::string(p.source)));
  }
  for (driver::AnalysisUnit& unit : driver::corpus_dirty_units()) {
    units.push_back(std::move(unit));
  }
  driver::BatchOptions uncached;
  uncached.isolate = false;
  driver::BatchOptions cold = uncached;
  cold.cache_dir = dir_;
  const driver::BatchResult plain = driver::run_batch(units, uncached);
  const driver::BatchResult cached = driver::run_batch(units, cold);

  ASSERT_EQ(plain.units.size(), units.size());
  ASSERT_EQ(cached.units.size(), units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    SCOPED_TRACE(units[u].name);
    ASSERT_TRUE(plain.units[u].payload.has_value());
    ASSERT_TRUE(cached.units[u].payload.has_value());
    const support::MetricsSnapshot& a = plain.units[u].payload->metrics;
    const support::MetricsSnapshot& b = cached.units[u].payload->metrics;
    EXPECT_EQ(b[support::Counter::kCacheMisses], 1u);
    // Everything before the cache counters: rsg operations, the fixpoint,
    // the governor, the salvage frontend and the summary pass.
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(support::Counter::kCacheHits); ++i) {
      const auto c = static_cast<support::Counter>(i);
      EXPECT_EQ(a[c], b[c]) << support::counter_name(c);
    }
  }
}

}  // namespace
}  // namespace psa::cache
