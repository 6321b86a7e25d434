#include "cache/cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "rsg/serialize.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"

namespace psa::cache {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kEntrySuffix = ".entry";

/// Envelope-level validation: magic, version, size and checksum — cheap and
/// catches every torn write and bit flip. Payload-level skew is left to the
/// caller's full deserialization (see ResultCache::evict).
bool envelope_valid(std::string_view bytes, std::string& diagnostic) {
  try {
    (void)rsg::unwrap_snapshot(bytes);
    return true;
  } catch (const rsg::SnapshotError& e) {
    diagnostic = e.what();
    return false;
  }
}

std::uint64_t writer_id() { return static_cast<std::uint64_t>(::getpid()); }

/// Advisory sweep lock: one sweeper per cache directory at a time. A busy
/// lock means another batch is already bounding the cache — skipping
/// is the correct (and the only race-free) answer. The lock dies with the
/// holder's fd, so a SIGKILLed sweeper never wedges the directory.
class SweepLock {
 public:
  explicit SweepLock(const std::string& dir) {
    const std::string path = (fs::path(dir) / "sweep.lock").string();
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~SweepLock() {
    if (fd_ >= 0) ::close(fd_);  // closing releases the flock
  }
  SweepLock(const SweepLock&) = delete;
  SweepLock& operator=(const SweepLock&) = delete;

  [[nodiscard]] bool held() const noexcept { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// One journaled sweep: decisions are appended (and made durable) BEFORE the
/// entry is touched, so a sweeper killed mid-eviction leaves a journal that
/// explains exactly what it was doing. record() reports whether the decision
/// landed durably — an eviction whose record did not land must be skipped
/// (journal-before-unlink), while bookkeeping records stay best-effort.
class SweepJournal {
 public:
  explicit SweepJournal(const std::string& dir)
      : path_((fs::path(dir) / "sweep.journal").string()) {
    std::error_code ec;
    if (!fs::exists(path_, ec) || fs::file_size(path_, ec) == 0) {
      (void)record("psa-sweep-journal v1");
    }
  }

  [[nodiscard]] bool record(const std::string& line) {
    const auto result = support::io::checked_append(path_, line + '\n');
    if (!result) PSA_COUNT(support::Counter::kIoDegradations);
    return result.ok;
  }

 private:
  std::string path_;
};

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Probe writability now: a cache that cannot store is a configuration
  // error, not something to discover one silent store-failure at a time.
  const std::string probe =
      (fs::path(dir_) / (".probe." + std::to_string(writer_id()))).string();
  {
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cache: cannot write to " + dir_);
    }
  }
  fs::remove(probe, ec);
}

std::string ResultCache::entry_path(const CacheKey& key) const {
  return (fs::path(dir_) / (key.hex() + std::string(kEntrySuffix))).string();
}

ResultCache::Lookup ResultCache::lookup(const CacheKey& key, EntryTier tier) {
  const support::Counter miss_counter = tier == EntryTier::kUnit
                                            ? support::Counter::kCacheMisses
                                            : support::Counter::kFuncCacheMisses;
  Lookup result;
  const std::string path = entry_path(key);
  std::optional<std::string> bytes = support::io::read_file(path);
  if (!bytes) {
    result.status = Lookup::Status::kMiss;
    PSA_COUNT(miss_counter);
    return result;
  }
  std::string diagnostic;
  if (!envelope_valid(*bytes, diagnostic)) {
    quarantine(path, diagnostic);
    result.status = Lookup::Status::kEvicted;
    result.diagnostic = diagnostic;
    PSA_COUNT(miss_counter);
    return result;
  }
  // Touch: sweep() evicts least-recently-USED, so a hit refreshes the
  // entry's mtime. Best effort — a failed touch only ages the entry.
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  result.status = Lookup::Status::kHit;
  result.bytes = std::move(*bytes);
  PSA_COUNT(tier == EntryTier::kUnit ? support::Counter::kCacheHits
                                     : support::Counter::kFuncCacheHits);
  return result;
}

bool ResultCache::store(const CacheKey& key, std::string_view bytes,
                        StoreFault /*fault*/, EntryTier tier) {
  const support::Counter store_counter = tier == EntryTier::kUnit
                                             ? support::Counter::kCacheStores
                                             : support::Counter::kFuncCacheStores;
  const std::string final_path = entry_path(key);
  const std::string tmp =
      final_path + ".tmp." + std::to_string(writer_id()) + "-" +
      std::to_string(tmp_seq_++);
  if (const auto result = support::io::atomic_write(tmp, final_path, bytes);
      !result) {
    // Sound degradation: the entry simply does not exist, so the next lookup
    // is a clean miss and recomputes. A torn tmp (short write) is swept by
    // recover(); the final path is never touched on failure.
    PSA_COUNT(support::Counter::kIoDegradations);
    return false;
  }
  PSA_COUNT(store_counter);
  return true;
}

void ResultCache::evict(const CacheKey& key, std::string_view reason) {
  quarantine(entry_path(key), reason);
}

void ResultCache::quarantine(const std::string& path,
                             std::string_view reason) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return;
  const fs::path qdir = fs::path(dir_) / "quarantine";
  fs::create_directories(qdir, ec);
  const std::string target =
      (qdir / (fs::path(path).filename().string() + "." +
               std::to_string(writer_id()) + "-" +
               std::to_string(tmp_seq_++)))
          .string();
  if (!support::io::checked_rename(path, target)) {
    // Quarantine failed: removal still heals the cache, at the cost of the
    // post-mortem bytes — a degradation, not a corrupt entry left serveable.
    PSA_COUNT(support::Counter::kIoDegradations);
    fs::remove(path, ec);
  }
  (void)reason;  // surfaced through Lookup::diagnostic / caller logs
  PSA_COUNT(support::Counter::kCacheEvictions);
}

std::size_t ResultCache::recover() {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file(ec) ||
        name.find(std::string(kEntrySuffix) + ".tmp.") == std::string::npos) {
      continue;
    }
    // A writer died mid-store; the rename never happened, so the bytes were
    // never trusted. Sweep the straggler.
    fs::remove(entry.path(), ec);
    ++removed;
    PSA_COUNT(support::Counter::kCacheEvictions);
  }
  return removed;
}

ResultCache::SweepReport ResultCache::sweep(const SweepLimits& limits) {
  SweepReport report;
  if (!limits.bounded()) return report;
  const SweepLock lock(dir_);
  if (!lock.held()) return report;  // a concurrent sweeper is on it
  report.ran = true;
  PSA_COUNT(support::Counter::kCacheSweepRuns);
  SweepJournal journal(dir_);
  (void)journal.record("sweep start writer=" + std::to_string(writer_id()) +
                       " max_bytes=" + std::to_string(limits.max_bytes) +
                       " max_age_ms=" + std::to_string(limits.max_age_ms));

  struct EntryInfo {
    std::string path;
    std::string name;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<EntryInfo> entries;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    EntryInfo info;
    info.name = entry.path().filename().string();
    if (!info.name.ends_with(kEntrySuffix)) continue;
    info.path = entry.path().string();
    info.bytes = static_cast<std::uint64_t>(entry.file_size(ec));
    if (ec) continue;  // vanished under us (concurrent writer): skip
    info.mtime = entry.last_write_time(ec);
    if (ec) continue;
    entries.push_back(std::move(info));
  }
  report.scanned = entries.size();
  for (const EntryInfo& e : entries) report.bytes_before += e.bytes;
  report.bytes_after = report.bytes_before;

  // The journal precedes the unlink (crash-safety: a dead sweeper's journal
  // explains the directory) and the unlink is atomic (concurrency: a reader
  // mid-lookup keeps its open fd or takes a clean miss — never torn bytes).
  const auto evict_entry = [&](const EntryInfo& e, std::string_view why) {
    const std::optional<std::string> bytes = support::io::read_file(e.path);
    std::string diagnostic = "unreadable entry";
    if (!bytes || !envelope_valid(*bytes, diagnostic)) {
      // Suspicious under the sweep's feet: quarantine, never delete — the
      // post-mortem trail matters more than the disk it occupies. The move
      // preserves the bytes, so a lost journal record costs nothing.
      (void)journal.record("quarantine " + e.name + " " + diagnostic);
      quarantine(e.path, diagnostic);
      ++report.quarantined;
      report.bytes_after -= std::min(report.bytes_after, e.bytes);
      return;
    }
    if (!journal.record("evict " + e.name + " " + std::to_string(e.bytes) +
                        " reason=" + std::string(why))) {
      // Journal-before-unlink: the decision did not land durably, so the
      // unlink must not happen — a valid entry outliving its byte budget is
      // a degradation, an unexplained disappearance is a contract breach.
      return;
    }
    std::error_code remove_ec;
    if (fs::remove(e.path, remove_ec)) {
      ++report.evicted;
      report.bytes_after -= std::min(report.bytes_after, e.bytes);
      PSA_COUNT(support::Counter::kCacheSweepEvictions);
      PSA_COUNT_N(support::Counter::kCacheSweepBytes, e.bytes);
    }
  };

  // Pass 1: age expiry.
  std::vector<EntryInfo> kept;
  if (limits.max_age_ms > 0) {
    const auto now = fs::file_time_type::clock::now();
    const auto horizon = std::chrono::milliseconds(limits.max_age_ms);
    for (const EntryInfo& e : entries) {
      if (now - e.mtime > horizon) {
        evict_entry(e, "age");
      } else {
        kept.push_back(e);
      }
    }
  } else {
    kept = std::move(entries);
  }

  // Pass 2: oldest-first until the survivors fit the byte cap.
  if (limits.max_bytes > 0 && report.bytes_after > limits.max_bytes) {
    std::sort(kept.begin(), kept.end(),
              [](const EntryInfo& a, const EntryInfo& b) {
                return a.mtime < b.mtime;
              });
    for (const EntryInfo& e : kept) {
      if (report.bytes_after <= limits.max_bytes) break;
      evict_entry(e, "size");
    }
  }

  (void)journal.record(
      "sweep end scanned=" + std::to_string(report.scanned) +
                 " evicted=" + std::to_string(report.evicted) +
                 " quarantined=" + std::to_string(report.quarantined) +
                 " bytes=" + std::to_string(report.bytes_after));
  return report;
}

}  // namespace psa::cache
