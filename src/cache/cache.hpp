// The crash-safe, content-addressed, on-disk result cache (docs/CACHING.md).
//
// One entry per CacheKey (cache/key.hpp), holding the serialized UnitPayload
// bytes of a completed analysis — the same PSASNAP1-enveloped, checksummed
// format the batch driver uses for worker results and checkpoints, so every
// read is self-validating.
//
// Directory layout (--cache-dir=DIR):
//   <32-hex-key>.entry            one validated result payload
//   <key>.entry.tmp.<pid>-<seq>   in-flight write; renamed to .entry on
//                                 completion (writer-unique suffix, so
//                                 concurrent workers never clobber each
//                                 other's half-written bytes)
//   quarantine/                   entries that failed validation, kept for
//                                 post-mortem instead of silently deleted
//   sweep.lock                    advisory flock taken by sweep(); a second
//                                 concurrent sweeper skips instead of racing
//   sweep.journal                 append-only record of every sweep decision
//
// Robustness contract — every failure mode is contained, never propagated:
//   * lookup() verifies the PSASNAP1 envelope checksum of every entry it
//     reads; a corrupt, truncated or version-skewed entry is EVICTED
//     (quarantined) and reported as a miss — hostile bytes are never
//     returned to a caller. This is the gate: recover() reads no entry, so
//     a rotten entry that no lookup reads stays on disk, never served,
//     until a sweep picks it (and quarantines it);
//   * deep validation failures the cache cannot see (payload-level skew
//     caught only by full deserialization) are reported back through
//     evict() and handled the same way;
//   * store() writes tmp-then-rename, so a crash mid-write leaves only a
//     .tmp straggler that recover() deletes at the next batch start; store
//     failures (disk full, permissions) degrade to "no cache" — they never
//     fail the analysis;
//   * sweep() bounds the cache (--cache-max-bytes / --cache-max-age): age
//     expiry first, then oldest-first eviction until the directory fits the
//     byte cap. lookup() touches an entry's mtime on every hit, so recency
//     is use-recency, not write-recency. The sweep is crash-safe and safe
//     under concurrent batches sharing the directory: an advisory
//     flock serializes sweepers (a busy lock skips the sweep — someone else
//     is already bounding the cache), every decision is journaled before the
//     entry is touched, policy evictions use atomic unlink (a concurrent
//     reader that already opened the file keeps a consistent view; one that
//     hasn't gets a clean miss), and anything suspicious — an entry that
//     fails envelope validation mid-sweep — is quarantined, never deleted.
//
// All methods are nothrow-by-contract except the constructor (an unusable
// directory is a configuration error the caller must see). Counting goes
// through the global metrics registry: cache_hits / cache_misses /
// cache_stores / cache_evictions / cache_self_heals (self-heals are counted
// by the caller that recomputes after an eviction — see
// driver::run_unit_serialized).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/key.hpp"

namespace psa::cache {

/// Only kNone: kept because perfbench/corpus.cpp passes it; remove together.
enum class StoreFault : std::uint8_t { kNone };

/// Which metrics vocabulary a probe counts into. Entries are otherwise
/// identical (same directory, same envelope validation, same sweep policy):
/// kUnit probes count cache_hits/misses/stores, kFunction probes count
/// func_cache_hits/misses/stores — so unit-level hit-rate dashboards are
/// not diluted by the (much chattier) function-granular tier.
enum class EntryTier : std::uint8_t { kUnit, kFunction };

class ResultCache {
 public:
  /// Open (and create) `dir`. Throws std::runtime_error when the directory
  /// cannot be created or written — a misconfigured cache must be loud, a
  /// degraded one silent.
  explicit ResultCache(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  struct Lookup {
    enum class Status : std::uint8_t {
      kHit,      // bytes hold a checksum-valid entry
      kMiss,     // no entry on disk
      kEvicted,  // entry existed but failed validation; quarantined
    };
    Status status = Status::kMiss;
    std::string bytes;
    std::string diagnostic;  // kEvicted: what was wrong with the entry
  };

  /// Envelope-validated entry bytes for `key`. Counts hits on kHit and
  /// misses on kMiss/kEvicted (an evicted entry IS a miss — the caller
  /// recomputes) in the `tier`'s vocabulary; eviction additionally counts
  /// cache_evictions. A hit touches the entry's mtime (best effort) so
  /// sweep() evicts by recency of use. An entry that vanishes before the
  /// whole-file read (a concurrent sweep's unlink) is a plain kMiss.
  [[nodiscard]] Lookup lookup(const CacheKey& key,
                              EntryTier tier = EntryTier::kUnit);

  /// Atomically store entry bytes (support::io::atomic_write: write .tmp,
  /// fsync, rename), so no torn entry ever lands at the final path. Returns
  /// false on I/O failure; never throws. Counts the `tier`'s store counter on
  /// success. `fault` is always StoreFault::kNone.
  bool store(const CacheKey& key, std::string_view bytes,
             StoreFault fault = StoreFault::kNone,
             EntryTier tier = EntryTier::kUnit);

  /// Remove an entry the *caller* proved invalid (deep deserialization
  /// failure after an envelope-valid lookup). Quarantines and counts
  /// cache_evictions.
  void evict(const CacheKey& key, std::string_view reason);

  /// Startup sweep: delete the .entry.tmp.* stragglers of writers that died
  /// mid-store, and return how many. Reads no entry: lookup() validates
  /// every entry it serves, and sweep() every entry it unlinks. Never
  /// throws.
  std::size_t recover();

  /// Eviction policy for sweep(). Zero fields are unbounded.
  struct SweepLimits {
    std::uint64_t max_bytes = 0;  // total .entry bytes the cache may hold
    std::uint64_t max_age_ms = 0;  // entries unused longer than this expire

    [[nodiscard]] bool bounded() const noexcept {
      return max_bytes > 0 || max_age_ms > 0;
    }
  };

  struct SweepReport {
    /// False when another sweeper held the advisory lock (its sweep counts)
    /// or the limits were unbounded — nothing was scanned.
    bool ran = false;
    std::size_t scanned = 0;      // entries examined
    std::size_t evicted = 0;      // valid entries removed by the policy
    std::size_t quarantined = 0;  // suspicious entries moved, not deleted
    std::uint64_t bytes_before = 0;
    std::uint64_t bytes_after = 0;

    [[nodiscard]] std::uint64_t bytes_reclaimed() const noexcept {
      return bytes_before >= bytes_after ? bytes_before - bytes_after : 0;
    }
  };

  /// Bound the cache to `limits`: expire entries unused for max_age_ms, then
  /// unlink oldest-first until the directory fits max_bytes. Crash-safe and
  /// concurrent-safe (see the header comment); never throws, and a sweep
  /// failure of any kind degrades to "cache unbounded a little longer".
  /// Counts cache_sweep_runs / cache_sweep_evictions / cache_sweep_bytes.
  SweepReport sweep(const SweepLimits& limits);

  /// Path of the entry for `key` (tests and the cache drill corrupt it to
  /// model on-disk rot).
  [[nodiscard]] std::string entry_path(const CacheKey& key) const;

 private:
  /// Move `path` to quarantine/ (unique suffix), or delete it when the move
  /// fails. Counts cache_evictions.
  void quarantine(const std::string& path, std::string_view reason);

  std::string dir_;
  std::uint32_t tmp_seq_ = 0;
};

}  // namespace psa::cache
