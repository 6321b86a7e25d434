// The content-addressed result cache: key determinism and sensitivity,
// store/lookup round-trips, corruption rejection (single-bit flip, torn
// write), startup recovery, and the supervisor-level warm-cache contract —
// a warm re-run skips recomputation (proven by hit/miss counters) and
// renders a byte-identical batch report.
#include "cache/cache.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.hpp"
#include "cache/key.hpp"
#include "driver/supervisor.hpp"
#include "support/metrics.hpp"

namespace psa::cache {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kSourceA =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  struct node *q;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  q = p;\n"
    "  p->next = NULL;\n"
    "}\n";

constexpr std::string_view kSourceB =
    "struct node { struct node *next; int v; };\n"
    "void main() {\n"
    "  struct node *p;\n"
    "  p = malloc(sizeof(struct node));\n"
    "  p->next = NULL;\n"
    "  free(p);\n"
    "}\n";

CacheKey key_of(std::string_view source, const analysis::Options& options = {},
                bool check = true, bool salvage = true) {
  analysis::FrontendOptions frontend;
  frontend.salvage = salvage;
  const analysis::ProgramAnalysis program =
      analysis::prepare(source, "main", frontend);
  return cache_key(program, options, check, salvage);
}

/// Flip one bit in the middle of the file at `path`: on-disk rot of a
/// completed entry.
void flip_middle_bit(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(0, std::ios::end);
  const auto middle = static_cast<std::streamoff>(f.tellg()) / 2;
  char byte = 0;
  f.seekg(middle);
  f.get(byte);
  f.seekp(middle);
  f.put(static_cast<char>(byte ^ 0x10));
}

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("psa-cache-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Real entry bytes: the serialized UnitPayload of one analyzed unit —
  /// the exact bytes the supervisor would store.
  static std::string real_payload_bytes(std::string_view source = kSourceA) {
    driver::AnalysisUnit unit;
    unit.name = "unit-a";
    unit.source = std::string(source);
    return driver::run_unit_serialized(unit, analysis::Options{},
                                       /*check=*/true);
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// CacheKey

TEST(CacheKeyTest, HexIs32LowercaseChars) {
  CacheKey key;
  key.hi = 0x0123456789abcdefULL;
  key.lo = 0xfedcba9876543210ULL;
  EXPECT_EQ(key.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(CacheKey{}.hex(), std::string(32, '0'));
}

TEST(CacheKeyTest, SameContentSameKey) {
  EXPECT_EQ(key_of(kSourceA), key_of(kSourceA));
}

TEST(CacheKeyTest, DifferentContentDifferentKey) {
  EXPECT_NE(key_of(kSourceA), key_of(kSourceB));
}

TEST(CacheKeyTest, LineShiftChangesKey) {
  // Findings quote source locations, so a pure line shift IS an output
  // change: the key must move even though the token stream is identical.
  const std::string shifted = "\n" + std::string(kSourceA);
  EXPECT_NE(key_of(kSourceA), key_of(shifted));
}

TEST(CacheKeyTest, EngineOptionsAreInTheKey) {
  analysis::Options l3;
  l3.level = rsg::AnalysisLevel::kL3;
  analysis::Options widened;
  widened.widen_threshold += 7;
  analysis::Options deadline;
  deadline.deadline_ms = 1234;
  const CacheKey base = key_of(kSourceA);
  EXPECT_NE(base, key_of(kSourceA, l3));
  EXPECT_NE(base, key_of(kSourceA, widened));
  EXPECT_NE(base, key_of(kSourceA, deadline));
}

TEST(CacheKeyTest, SummaryOptionsAreInTheKey) {
  // Summaries change which transfer runs at every call site; flipping any
  // interprocedural knob must not resurface an entry computed without it.
  analysis::Options off;
  off.enable_summaries = false;
  analysis::Options iters;
  iters.max_summary_iters += 3;
  analysis::Options budget;
  budget.summary_visit_budget += 1000;
  const CacheKey base = key_of(kSourceA);
  EXPECT_NE(base, key_of(kSourceA, off));
  EXPECT_NE(base, key_of(kSourceA, iters));
  EXPECT_NE(base, key_of(kSourceA, budget));
}

TEST(CacheKeyTest, SiblingFunctionBodyIsInTheKey) {
  // The target function's own CFG is identical in both units; only the
  // helper it calls changed. The summary feeds the cached result, so the
  // key must move.
  constexpr std::string_view kCallerTemplate =
      "struct node { struct node *next; };\n"
      "void tweak(struct node *a) {\n"
      "%s"
      "}\n"
      "void main() {\n"
      "  struct node *p;\n"
      "  p = malloc(sizeof(struct node));\n"
      "  tweak(p);\n"
      "}\n";
  const auto with_body = [&](std::string_view body) {
    std::string src(kCallerTemplate);
    src.replace(src.find("%s"), 2, body);
    return src;
  };
  EXPECT_NE(key_of(with_body("  a->next = NULL;\n")),
            key_of(with_body("  free(a);\n")));
}

TEST(CacheKeyTest, CheckerSwitchIsInTheKey) {
  EXPECT_NE(key_of(kSourceA, {}, /*check=*/true),
            key_of(kSourceA, {}, /*check=*/false));
}

// ---------------------------------------------------------------------------
// ResultCache

TEST_F(ResultCacheTest, ConstructorCreatesDirectory) {
  ResultCache cache(dir_);
  EXPECT_TRUE(fs::is_directory(dir_));
}

TEST_F(ResultCacheTest, ConstructorThrowsOnUnwritableDir) {
  // A *file* where the directory should be: create_directories fails.
  fs::create_directories(fs::path(dir_).parent_path());
  { std::ofstream block(dir_); }
  EXPECT_THROW(ResultCache cache(dir_), std::runtime_error);
}

TEST_F(ResultCacheTest, MissThenStoreThenHitRoundTrip) {
  ResultCache cache(dir_);
  const CacheKey key = key_of(kSourceA);
  const std::string bytes = real_payload_bytes();

  support::MetricsRegion region;
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kMiss);
  ASSERT_TRUE(cache.store(key, bytes));

  const ResultCache::Lookup hit = cache.lookup(key);
  ASSERT_EQ(hit.status, ResultCache::Lookup::Status::kHit);
  EXPECT_EQ(hit.bytes, bytes);  // byte-exact: the envelope checksum held
  // The hit deserializes back into a usable payload.
  const driver::UnitPayload payload = driver::deserialize_unit_payload(hit.bytes);
  EXPECT_TRUE(payload.frontend_ok);
  EXPECT_TRUE(payload.checked);

  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheStores], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], 0u);
}

TEST_F(ResultCacheTest, StoreLeavesNoTmpStragglers) {
  ResultCache cache(dir_);
  ASSERT_TRUE(cache.store(key_of(kSourceA), real_payload_bytes()));
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().extension(), ".entry")
        << "unexpected file " << entry.path();
  }
}

TEST_F(ResultCacheTest, SingleBitFlipIsRejectedAndQuarantined) {
  ResultCache cache(dir_);
  const CacheKey key = key_of(kSourceA);
  // A completed store, then one bit of the entry file rots on disk.
  ASSERT_TRUE(cache.store(key, real_payload_bytes()));
  flip_middle_bit(cache.entry_path(key));

  support::MetricsRegion region;
  const ResultCache::Lookup lookup = cache.lookup(key);
  EXPECT_EQ(lookup.status, ResultCache::Lookup::Status::kEvicted);
  EXPECT_TRUE(lookup.bytes.empty());  // hostile bytes never reach the caller
  EXPECT_FALSE(lookup.diagnostic.empty());
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  EXPECT_FALSE(fs::is_empty(fs::path(dir_) / "quarantine"));

  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);  // eviction IS a miss
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);

  // The poisoned entry is gone for good: next lookup is a clean miss, and a
  // fresh store heals the slot.
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kMiss);
  ASSERT_TRUE(cache.store(key, real_payload_bytes()));
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kHit);
}

TEST_F(ResultCacheTest, TornWriteIsRejected) {
  ResultCache cache(dir_);
  const CacheKey key = key_of(kSourceA);
  // Truncated bytes sitting at the final entry path: what a writer without
  // the tmp-rename guard would leave behind after a crash mid-write.
  const std::string bytes = real_payload_bytes();
  {
    std::ofstream torn(cache.entry_path(key),
                       std::ios::binary | std::ios::trunc);
    torn.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kEvicted);
}

TEST_F(ResultCacheTest, EvictQuarantinesAnEnvelopeValidEntry) {
  // evict() is the deep-validation escape hatch: the envelope checksum held
  // but the caller's full deserialization did not.
  ResultCache cache(dir_);
  const CacheKey key = key_of(kSourceA);
  ASSERT_TRUE(cache.store(key, real_payload_bytes()));
  cache.evict(key, "deep validation failed");
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kMiss);
}

TEST_F(ResultCacheTest, RecoverSweepsTmpAndQuarantinesCorruptEntries) {
  const CacheKey good_key = key_of(kSourceA);
  {
    ResultCache cache(dir_);
    ASSERT_TRUE(cache.store(good_key, real_payload_bytes()));
  }
  // Plant the two kinds of damage a crash can leave behind.
  {
    std::ofstream tmp(
        (fs::path(dir_) / (key_of(kSourceB).hex() + ".entry.tmp.123-0"))
            .string(),
        std::ios::binary);
    tmp << "half-written";
  }
  {
    std::ofstream bad((fs::path(dir_) / (key_of(kSourceB).hex() + ".entry"))
                          .string(),
                      std::ios::binary);
    bad << "not a PSASNAP1 envelope";
  }

  ResultCache reopened(dir_);
  const ResultCache::RecoveryReport report = reopened.recover();
  EXPECT_EQ(report.entries_kept, 1u);
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_FALSE(report.clean());

  // The surviving entry still serves; the damage is gone.
  EXPECT_EQ(reopened.lookup(good_key).status,
            ResultCache::Lookup::Status::kHit);
  EXPECT_EQ(reopened.lookup(key_of(kSourceB)).status,
            ResultCache::Lookup::Status::kMiss);
  const ResultCache::RecoveryReport second = reopened.recover();
  EXPECT_TRUE(second.clean());
  EXPECT_EQ(second.entries_kept, 1u);
}

// ---------------------------------------------------------------------------
// sweep(): the bounded, crash-safe eviction policy (--cache-max-bytes /
// --cache-max-age). Recency is use-recency (lookup touches mtime), corrupt
// entries are quarantined rather than deleted, and a concurrent sweeper
// skips instead of racing.

class SweepTest : public ResultCacheTest {
 protected:
  static CacheKey synthetic_key(std::uint64_t n) {
    CacheKey key;
    key.hi = 0x5eedu;
    key.lo = n;
    return key;
  }

  /// Store one valid entry under a synthetic key and back-date its mtime so
  /// the sweep sees a deterministic recency order.
  std::string store_aged(ResultCache& cache, std::uint64_t n,
                         std::chrono::minutes age) {
    const CacheKey key = synthetic_key(n);
    EXPECT_TRUE(cache.store(key, payload_));
    const std::string path = cache.entry_path(key);
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now() - age, ec);
    EXPECT_FALSE(ec) << ec.message();
    return path;
  }

  const std::string payload_ = real_payload_bytes();
};

TEST_F(SweepTest, UnboundedLimitsNeverScan) {
  ResultCache cache(dir_);
  store_aged(cache, 1, std::chrono::minutes(90));
  const ResultCache::SweepReport report = cache.sweep({});
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(cache.lookup(synthetic_key(1)).status,
            ResultCache::Lookup::Status::kHit);
}

TEST_F(SweepTest, ByteCapEvictsLeastRecentlyUsedFirst) {
  ResultCache cache(dir_);
  store_aged(cache, 1, std::chrono::minutes(30));  // oldest: first to go
  store_aged(cache, 2, std::chrono::minutes(20));
  store_aged(cache, 3, std::chrono::minutes(10));
  const auto size = static_cast<std::uint64_t>(payload_.size());

  support::MetricsRegion region;
  ResultCache::SweepLimits limits;
  limits.max_bytes = 2 * size;
  const ResultCache::SweepReport report = cache.sweep(limits);
  EXPECT_TRUE(report.ran);
  EXPECT_EQ(report.scanned, 3u);
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.bytes_before, 3 * size);
  EXPECT_EQ(report.bytes_after, 2 * size);
  EXPECT_EQ(report.bytes_reclaimed(), size);

  // Exactly the oldest entry is gone; the survivors still serve.
  EXPECT_EQ(cache.lookup(synthetic_key(1)).status,
            ResultCache::Lookup::Status::kMiss);
  EXPECT_EQ(cache.lookup(synthetic_key(2)).status,
            ResultCache::Lookup::Status::kHit);
  EXPECT_EQ(cache.lookup(synthetic_key(3)).status,
            ResultCache::Lookup::Status::kHit);

  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheSweepRuns], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheSweepEvictions], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheSweepBytes], size);
  // Policy eviction is NOT corruption: the cache_evictions health signal
  // must stay untouched.
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], 0u);
}

TEST_F(SweepTest, AgeExpiryEvictsOnlyStaleEntries) {
  ResultCache cache(dir_);
  store_aged(cache, 1, std::chrono::minutes(60));  // stale
  store_aged(cache, 2, std::chrono::minutes(1));   // fresh

  ResultCache::SweepLimits limits;
  limits.max_age_ms = 15 * 60 * 1000;  // 15 minutes
  const ResultCache::SweepReport report = cache.sweep(limits);
  EXPECT_TRUE(report.ran);
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_EQ(cache.lookup(synthetic_key(1)).status,
            ResultCache::Lookup::Status::kMiss);
  EXPECT_EQ(cache.lookup(synthetic_key(2)).status,
            ResultCache::Lookup::Status::kHit);
}

TEST_F(SweepTest, LookupTouchProtectsAnEntryFromTheByteCap) {
  // Use-recency, not write-recency: a HIT refreshes the entry, so the byte
  // cap evicts the entry nobody asked for even though it was written later.
  ResultCache cache(dir_);
  store_aged(cache, 1, std::chrono::minutes(30));  // older write, then used
  store_aged(cache, 2, std::chrono::minutes(20));  // newer write, never used
  ASSERT_EQ(cache.lookup(synthetic_key(1)).status,
            ResultCache::Lookup::Status::kHit);  // touches entry 1

  ResultCache::SweepLimits limits;
  limits.max_bytes = static_cast<std::uint64_t>(payload_.size());
  const ResultCache::SweepReport report = cache.sweep(limits);
  EXPECT_TRUE(report.ran);
  EXPECT_EQ(report.evicted, 1u);
  EXPECT_EQ(cache.lookup(synthetic_key(1)).status,
            ResultCache::Lookup::Status::kHit);
  EXPECT_EQ(cache.lookup(synthetic_key(2)).status,
            ResultCache::Lookup::Status::kMiss);
}

TEST_F(SweepTest, CorruptEntryIsQuarantinedNotDeleted) {
  ResultCache cache(dir_);
  store_aged(cache, 1, std::chrono::minutes(1));  // fresh and valid: kept
  // Plant rot that the policy would expire: the sweep must notice the entry
  // is not a valid envelope and preserve the evidence instead of unlinking.
  const std::string rotten = cache.entry_path(synthetic_key(2));
  {
    std::ofstream out(rotten, std::ios::binary);
    out << "not a PSASNAP1 envelope";
  }
  {
    std::error_code ec;
    fs::last_write_time(
        rotten, fs::file_time_type::clock::now() - std::chrono::hours(2), ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  ResultCache::SweepLimits limits;
  limits.max_age_ms = 15 * 60 * 1000;
  const ResultCache::SweepReport report = cache.sweep(limits);
  EXPECT_TRUE(report.ran);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.evicted, 0u);
  EXPECT_FALSE(fs::exists(rotten));
  EXPECT_FALSE(fs::is_empty(fs::path(dir_) / "quarantine"));
  EXPECT_EQ(cache.lookup(synthetic_key(1)).status,
            ResultCache::Lookup::Status::kHit);

  // Every decision was journaled before the entry was touched.
  std::ifstream journal(fs::path(dir_) / "sweep.journal");
  const std::string text((std::istreambuf_iterator<char>(journal)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("psa-sweep-journal v1"), std::string::npos);
  EXPECT_NE(text.find("quarantine"), std::string::npos);
  EXPECT_NE(text.find("sweep end"), std::string::npos);
}

TEST_F(SweepTest, ConcurrentSweeperSkipsInsteadOfRacing) {
  ResultCache cache(dir_);
  store_aged(cache, 1, std::chrono::minutes(60));
  ResultCache::SweepLimits limits;
  limits.max_age_ms = 1000;

  // Hold the advisory lock the way a concurrent batch's sweep would (flock
  // conflicts are per open-file-description, so this works in-process).
  const std::string lock_path = (fs::path(dir_) / "sweep.lock").string();
  const int fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::flock(fd, LOCK_EX), 0);

  const ResultCache::SweepReport blocked = cache.sweep(limits);
  EXPECT_FALSE(blocked.ran);  // someone else is bounding the cache
  // Existence checked on disk, not via lookup(): a hit would refresh the
  // entry's mtime and un-age it for the second sweep below.
  EXPECT_TRUE(fs::exists(cache.entry_path(synthetic_key(1))));

  ASSERT_EQ(::flock(fd, LOCK_UN), 0);
  ::close(fd);
  const ResultCache::SweepReport unblocked = cache.sweep(limits);
  EXPECT_TRUE(unblocked.ran);
  EXPECT_EQ(unblocked.evicted, 1u);
}

TEST_F(SweepTest, VanishedEntryIsACleanMiss) {
  // A concurrent sweep's unlink lands between the decision to read and the
  // read. Must be a plain miss — no torn bytes, no spurious corruption
  // eviction.
  ResultCache cache(dir_);
  const CacheKey key = synthetic_key(1);
  ASSERT_TRUE(cache.store(key, payload_));
  ASSERT_TRUE(fs::remove(cache.entry_path(key)));

  support::MetricsRegion region;
  const ResultCache::Lookup raced = cache.lookup(key);
  EXPECT_EQ(raced.status, ResultCache::Lookup::Status::kMiss);
  EXPECT_TRUE(raced.bytes.empty());
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], 0u);

  // The slot heals like any miss: recompute, store, hit.
  ASSERT_TRUE(cache.store(key, payload_));
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kHit);
}

TEST_F(SweepTest, WritersAndSweeperShareTheDirectorySafely) {
  // Soak: two writers (separate ResultCache instances, like two batches
  // sharing --cache-dir) churn a small key space while a sweeper bounds it.
  // Invariant: a reader afterwards sees only whole entries — every lookup is
  // a hit that deep-deserializes or a clean miss, never an eviction.
  constexpr std::uint64_t kKeys = 10;
  constexpr int kStoresPerWriter = 60;
  std::atomic<bool> done{false};
  const auto writer = [&](std::uint64_t salt) {
    ResultCache mine(dir_);
    for (int i = 0; i < kStoresPerWriter; ++i) {
      mine.store(synthetic_key((salt + static_cast<std::uint64_t>(i)) % kKeys),
                 payload_);
    }
  };
  std::thread sweeper([&] {
    ResultCache mine(dir_);
    ResultCache::SweepLimits limits;
    limits.max_bytes = 3 * static_cast<std::uint64_t>(payload_.size());
    while (!done.load()) {
      (void)mine.sweep(limits);
      std::this_thread::yield();
    }
  });
  std::thread a(writer, 0);
  std::thread b(writer, kKeys / 2);
  a.join();
  b.join();
  done.store(true);
  sweeper.join();

  ResultCache reader(dir_);
  std::size_t hits = 0;
  for (std::uint64_t n = 0; n < kKeys; ++n) {
    const ResultCache::Lookup lookup = reader.lookup(synthetic_key(n));
    ASSERT_NE(lookup.status, ResultCache::Lookup::Status::kEvicted)
        << "torn read surfaced for key " << n << ": " << lookup.diagnostic;
    if (lookup.status == ResultCache::Lookup::Status::kHit) {
      ++hits;
      EXPECT_EQ(lookup.bytes, payload_);
      const driver::UnitPayload payload =
          driver::deserialize_unit_payload(lookup.bytes);
      EXPECT_TRUE(payload.frontend_ok);
    }
  }
  // The churn must not have destroyed everything or validated nothing.
  EXPECT_GT(hits, 0u);
  // And the directory is structurally clean: no .tmp stragglers, and every
  // surviving entry passes the startup scan.
  const ResultCache::RecoveryReport recovery = reader.recover();
  EXPECT_EQ(recovery.tmp_removed, 0u);
  EXPECT_EQ(recovery.quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Supervisor integration: the warm-cache acceptance contract.

driver::AnalysisUnit inline_unit(std::string name, std::string_view source) {
  driver::AnalysisUnit u;
  u.name = std::move(name);
  u.source = std::string(source);
  return u;
}

class WarmCacheTest : public ResultCacheTest {
 protected:
  driver::BatchOptions cached_options() const {
    driver::BatchOptions options;
    options.isolate = false;  // counters must land in THIS process's registry
    options.check = true;
    options.cache_dir = dir_;
    return options;
  }
};

TEST_F(WarmCacheTest, WarmRerunHitsEveryUnitAndReportsByteIdentically) {
  const std::vector<driver::AnalysisUnit> units = {
      inline_unit("a.c", kSourceA), inline_unit("b.c", kSourceB)};

  support::MetricsRegion cold_region;
  const driver::BatchResult cold = driver::run_batch(units, cached_options());
  const support::MetricsSnapshot cold_delta = cold_region.delta();
  EXPECT_EQ(cold_delta[support::Counter::kCacheHits], 0u);
  EXPECT_EQ(cold_delta[support::Counter::kCacheMisses], 2u);
  EXPECT_EQ(cold_delta[support::Counter::kCacheStores], 2u);

  support::MetricsRegion warm_region;
  const driver::BatchResult warm = driver::run_batch(units, cached_options());
  const support::MetricsSnapshot warm_delta = warm_region.delta();
  EXPECT_EQ(warm_delta[support::Counter::kCacheHits], 2u);
  EXPECT_EQ(warm_delta[support::Counter::kCacheMisses], 0u);
  EXPECT_EQ(warm_delta[support::Counter::kCacheStores], 0u);

  // The acceptance bar: warm and cold reports are byte-identical.
  EXPECT_EQ(driver::format_batch_report(warm),
            driver::format_batch_report(cold));
  EXPECT_EQ(driver::batch_exit_code(warm), driver::batch_exit_code(cold));
}

TEST_F(WarmCacheTest, EditedUnitMissesWhileUntouchedUnitHits) {
  const std::vector<driver::AnalysisUnit> units = {
      inline_unit("a.c", kSourceA), inline_unit("b.c", kSourceB)};
  (void)driver::run_batch(units, cached_options());

  // Edit a.c (a leading newline shifts every location, and findings quote
  // line numbers — a real output change); b.c is untouched.
  std::vector<driver::AnalysisUnit> edited = units;
  edited[0].source = "\n" + edited[0].source;

  support::MetricsRegion region;
  const driver::BatchResult rerun =
      driver::run_batch(edited, cached_options());
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheHits], 1u);    // b.c
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);  // a.c re-analyzed
  EXPECT_EQ(rerun.units[0].outcome.kind, driver::UnitOutcomeKind::kOk);
  EXPECT_EQ(rerun.units[1].outcome.kind, driver::UnitOutcomeKind::kOk);
}

TEST_F(WarmCacheTest, RenamedUnitStillHits) {
  // Content-addressed: the unit NAME is not in the key, but the payload is
  // re-issued under the new name so the report stays truthful.
  (void)driver::run_batch({inline_unit("old-name.c", kSourceA)},
                          cached_options());

  support::MetricsRegion region;
  const driver::BatchResult rerun = driver::run_batch(
      {inline_unit("new-name.c", kSourceA)}, cached_options());
  EXPECT_EQ(region.delta()[support::Counter::kCacheHits], 1u);
  ASSERT_TRUE(rerun.units[0].payload.has_value());
  EXPECT_EQ(rerun.units[0].payload->unit_name, "new-name.c");
}

TEST_F(WarmCacheTest, CorruptEntrySelfHealsWithIdenticalReport) {
  const std::vector<driver::AnalysisUnit> units = {
      inline_unit("a.c", kSourceA)};
  const driver::BatchResult cold = driver::run_batch(units, cached_options());

  ResultCache cache(dir_);
  const std::string path = cache.entry_path(key_of(kSourceA));
  ASSERT_TRUE(fs::exists(path));
  flip_middle_bit(path);

  support::MetricsRegion region;
  const driver::BatchResult healed = driver::run_batch(units, cached_options());
  const support::MetricsSnapshot delta = region.delta();
  // The startup recover() scan quarantines the rotten entry before any unit
  // runs, so the unit sees a clean miss and recomputes.
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);
  // Self-heal is transparent: same report as the cold run, and the
  // recomputed entry serves the next lookup.
  EXPECT_EQ(driver::format_batch_report(healed),
            driver::format_batch_report(cold));
  support::MetricsRegion warm_region;
  (void)driver::run_batch(units, cached_options());
  EXPECT_EQ(warm_region.delta()[support::Counter::kCacheHits], 1u);
}

TEST_F(WarmCacheTest, MidRunCorruptionSelfHealsAtTheLookup) {
  // Corruption that appears AFTER the startup scan (rot during a long
  // batch, or under another batch sharing the directory): the worker's own
  // lookup evicts it and recomputes — that is what cache_self_heals counts.
  driver::AnalysisUnit unit = inline_unit("a.c", kSourceA);
  ResultCache cache(dir_);
  const std::string cold =
      driver::run_unit_serialized(unit, {}, /*check=*/true,
                                  /*salvage=*/true, &cache);
  const std::string path = cache.entry_path(key_of(kSourceA));
  ASSERT_TRUE(fs::exists(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put('\x7f');
  }

  support::MetricsRegion region;
  const std::string healed =
      driver::run_unit_serialized(unit, {}, /*check=*/true,
                                  /*salvage=*/true, &cache);
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheSelfHeals], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheEvictions], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kCacheStores], 1u);  // stored back

  // The recomputed result is equivalent (identical findings and exit shape;
  // only the metrics delta differs) and the healed entry serves the next
  // lookup as a hit.
  const driver::UnitPayload before = driver::deserialize_unit_payload(cold);
  const driver::UnitPayload after = driver::deserialize_unit_payload(healed);
  EXPECT_EQ(after.findings.size(), before.findings.size());
  EXPECT_EQ(after.exit_graphs(), before.exit_graphs());
  support::MetricsRegion warm_region;
  (void)driver::run_unit_serialized(unit, {}, /*check=*/true,
                                    /*salvage=*/true, &cache);
  EXPECT_EQ(warm_region.delta()[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(warm_region.delta()[support::Counter::kCacheSelfHeals], 0u);
}

TEST_F(WarmCacheTest, WarmHitPayloadCarriesItsOwnLookupTime) {
  // A served payload's metrics are this run's: one unit-tier hit and the
  // time of the lookup that found it, so the metrics delta must be taken
  // after the lookup timer closes.
  const std::vector<driver::AnalysisUnit> units = {
      inline_unit("a.c", kSourceA)};
  (void)driver::run_batch(units, cached_options());
  const driver::BatchResult warm = driver::run_batch(units, cached_options());
  ASSERT_TRUE(warm.units[0].payload.has_value());
  const support::MetricsSnapshot& served = warm.units[0].payload->metrics;
  EXPECT_EQ(served[support::Counter::kCacheHits], 1u);
  EXPECT_EQ(served[support::Counter::kCacheMisses], 0u);
  EXPECT_GT(served[support::Counter::kPhaseCacheLookupWallNs], 0u);
}

TEST_F(WarmCacheTest, FailedStoreNeverFailsTheUnit) {
  // Every entry store fails half-way (PSA_IO_FAULT, support/io.hpp): the
  // analysis succeeds anyway, no entry lands at its final path, and the
  // next clean run recomputes and stores the unit.
  const std::vector<driver::AnalysisUnit> units = {
      inline_unit("a.c", kSourceA)};
  ::setenv("PSA_IO_FAULT", "@.entry:shortwrite", 1);
  const driver::BatchResult faulted =
      driver::run_batch(units, cached_options());
  ::unsetenv("PSA_IO_FAULT");
  EXPECT_EQ(faulted.units[0].outcome.kind, driver::UnitOutcomeKind::kOk);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".entry")
        << "entry published by a failed store: " << entry.path();
  }

  support::MetricsRegion region;
  const driver::BatchResult healed = driver::run_batch(units, cached_options());
  EXPECT_EQ(healed.units[0].outcome.kind, driver::UnitOutcomeKind::kOk);
  // Nothing was ever published, so nothing is quarantined and the unit is
  // a clean miss.
  EXPECT_FALSE(fs::exists(fs::path(dir_) / "quarantine"));
  const support::MetricsSnapshot delta = region.delta();
  EXPECT_EQ(delta[support::Counter::kCacheMisses], 1u);
  EXPECT_EQ(delta[support::Counter::kCacheHits], 0u);
  EXPECT_EQ(delta[support::Counter::kCacheStores], 1u);
  EXPECT_EQ(driver::format_batch_report(healed),
            driver::format_batch_report(faulted));

  support::MetricsRegion warm_region;
  (void)driver::run_batch(units, cached_options());
  EXPECT_EQ(warm_region.delta()[support::Counter::kCacheHits], 1u);
}

TEST_F(WarmCacheTest, FrontendErrorIsNeverCached) {
  const std::vector<driver::AnalysisUnit> units = {
      inline_unit("bad.c", "void main() { syntax error")};
  driver::BatchOptions options = cached_options();
  options.strict_frontend = true;
  (void)driver::run_batch(units, options);

  support::MetricsRegion region;
  (void)driver::run_batch(units, options);
  EXPECT_EQ(region.delta()[support::Counter::kCacheHits], 0u);
  // Nothing but bookkeeping in the cache dir: no .entry files at all.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".entry");
  }
}

// ---------------------------------------------------------------------------
// Durable-I/O faults (PSA_IO_FAULT, docs/RESILIENCE.md "The I/O fault
// space"): every store/sweep failure must be a *sound degradation* — a clean
// miss or a skipped eviction, never a torn entry served or a record dropped
// silently.

class IoFaultCacheTest : public ResultCacheTest {
 protected:
  void SetUp() override {
    ResultCacheTest::SetUp();
    ::unsetenv("PSA_IO_FAULT");
  }
  void TearDown() override {
    ::unsetenv("PSA_IO_FAULT");
    ResultCacheTest::TearDown();
  }
};

TEST_F(IoFaultCacheTest, StoreUnderEnospcIsACleanMiss) {
  ResultCache cache(dir_);
  const CacheKey key = key_of(kSourceA);
  const std::string bytes = real_payload_bytes();

  support::MetricsRegion region;
  ::setenv("PSA_IO_FAULT", "@.entry:enospc", 1);
  EXPECT_FALSE(cache.store(key, bytes));  // failure reported, not thrown
  ::unsetenv("PSA_IO_FAULT");

  // Sound degradation: the final path never appeared, the next lookup is a
  // clean miss, and the failure was counted.
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kMiss);
  EXPECT_GE(region.delta()[support::Counter::kIoDegradations], 1u);

  // The device recovered: the same store heals the slot.
  ASSERT_TRUE(cache.store(key, bytes));
  const ResultCache::Lookup hit = cache.lookup(key);
  ASSERT_EQ(hit.status, ResultCache::Lookup::Status::kHit);
  EXPECT_EQ(hit.bytes, bytes);
}

TEST_F(IoFaultCacheTest, StoreUnderShortWriteNeverLeavesATornEntry) {
  ResultCache cache(dir_);
  const CacheKey key = key_of(kSourceA);

  ::setenv("PSA_IO_FAULT", "@.entry:shortwrite", 1);
  EXPECT_FALSE(cache.store(key, real_payload_bytes()));
  ::unsetenv("PSA_IO_FAULT");

  // Half the bytes landed — in the tmp file only. The entry path must not
  // exist: a torn entry at the final path is the one corruption lookup's
  // checksum could only catch after the fact, and the atomic-write protocol
  // makes it impossible by construction.
  EXPECT_FALSE(fs::exists(cache.entry_path(key)));
  EXPECT_EQ(cache.lookup(key).status, ResultCache::Lookup::Status::kMiss);

  // The torn tmp is junk awaiting the startup recovery sweep.
  ResultCache reopened(dir_);
  const ResultCache::RecoveryReport report = reopened.recover();
  EXPECT_EQ(report.tmp_removed, 1u);
  EXPECT_EQ(report.quarantined, 0u);
  ASSERT_TRUE(reopened.store(key, real_payload_bytes()));
  EXPECT_EQ(reopened.lookup(key).status, ResultCache::Lookup::Status::kHit);
}

TEST_F(IoFaultCacheTest, SweepWithoutDurableJournalEvictsNothing) {
  ResultCache cache(dir_);
  const CacheKey key_a = key_of(kSourceA);
  const CacheKey key_b = key_of(kSourceB);
  ASSERT_TRUE(cache.store(key_a, real_payload_bytes(kSourceA)));
  ASSERT_TRUE(cache.store(key_b, real_payload_bytes(kSourceB)));

  // Journal-before-unlink: with the sweep journal on a failing device no
  // "evict" record can be made durable, so no entry may be unlinked — a
  // sweep that deletes results without a durable record of why would turn
  // an io fault into silent data loss.
  ::setenv("PSA_IO_FAULT", "@sweep.journal:eio", 1);
  ResultCache::SweepLimits limits;
  limits.max_bytes = 1;  // would evict everything if journaling worked
  const ResultCache::SweepReport faulted = cache.sweep(limits);
  ::unsetenv("PSA_IO_FAULT");
  EXPECT_TRUE(faulted.ran);
  EXPECT_EQ(faulted.evicted, 0u);
  EXPECT_EQ(cache.lookup(key_a).status, ResultCache::Lookup::Status::kHit);
  EXPECT_EQ(cache.lookup(key_b).status, ResultCache::Lookup::Status::kHit);

  // Device healthy again: the same sweep bounds the cache normally.
  const ResultCache::SweepReport healed = cache.sweep(limits);
  EXPECT_TRUE(healed.ran);
  EXPECT_GE(healed.evicted, 1u);
}

}  // namespace
}  // namespace psa::cache
