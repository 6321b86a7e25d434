// Byte accounting for the RSG/RSRSG storage pools.
//
// Table 1 of the paper reports the *space* the compiler needed per analysis
// level. 2001-era MB numbers are not portable, so we reproduce the metric
// itself: every RSG node, link and graph registers its footprint here and the
// benchmark harness reports live/peak bytes (plus object counts) per run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace psa::support {

/// Snapshot of the accounting counters.
struct MemorySnapshot {
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t total_allocated_bytes = 0;
  std::uint64_t nodes_created = 0;
  std::uint64_t graphs_created = 0;
};

/// Process-wide accounting. The library starts no threads, but a program
/// that embeds it may run independent analyses on several threads at once,
/// so the counters stay atomic and exact under that use. `reset()` between
/// benchmark runs.
///
/// The counters are process-global, which makes per-run attribution wrong as
/// soon as runs share a process: the engine used to reset() at entry, so an
/// in-process batch zeroing live_bytes while earlier units' payload graphs
/// were still alive would underflow the gauge when those graphs died. Use a
/// MemoryRegion instead: a region snapshots a baseline at open, tracks its
/// own peak from there, and reports clamped deltas — concurrent regions and
/// surviving allocations from before the region never bleed in.
class MemoryStats {
 public:
  static MemoryStats& instance();

  void add(std::size_t bytes) noexcept;
  void remove(std::size_t bytes) noexcept;
  void note_node_created() noexcept { nodes_created_.fetch_add(1, std::memory_order_relaxed); }
  void note_graph_created() noexcept { graphs_created_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] MemorySnapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  friend class MemoryRegion;
  /// Concurrently open regions (engine run + any caller-side region).
  static constexpr std::size_t kMaxRegions = 8;
  struct RegionSlot {
    std::atomic<bool> active{false};
    std::atomic<std::uint64_t> peak{0};  // max live_bytes_ while active
  };

  std::atomic<std::uint64_t> live_bytes_{0};
  std::atomic<std::uint64_t> peak_bytes_{0};
  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::uint64_t> nodes_created_{0};
  std::atomic<std::uint64_t> graphs_created_{0};
  std::atomic<std::size_t> active_regions_{0};
  RegionSlot regions_[kMaxRegions];
};

/// Scoped attribution window over the global accounting. delta() yields a
/// MemorySnapshot relative to the region's baseline:
///   * live_bytes — growth since open, clamped at 0 (allocations from before
///     the region may die inside it);
///   * peak_bytes — the region's own high-water mark above its baseline;
///   * total/nodes/graphs — amounts added during the region.
/// At most MemoryStats::kMaxRegions regions can be open at once; further
/// regions degrade gracefully (peak falls back to the clamped live delta,
/// still monotonic and underflow-free).
class MemoryRegion {
 public:
  MemoryRegion() noexcept;
  ~MemoryRegion();

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  [[nodiscard]] MemorySnapshot delta() const noexcept;

 private:
  MemorySnapshot baseline_;
  std::size_t slot_ = SIZE_MAX;  // SIZE_MAX = no slot (degraded mode)
};

/// RAII registration of a fixed-size footprint.
class TrackedFootprint {
 public:
  TrackedFootprint() noexcept = default;
  explicit TrackedFootprint(std::size_t bytes) noexcept;
  TrackedFootprint(const TrackedFootprint& other) noexcept;
  TrackedFootprint& operator=(const TrackedFootprint& other) noexcept;
  TrackedFootprint(TrackedFootprint&& other) noexcept;
  TrackedFootprint& operator=(TrackedFootprint&& other) noexcept;
  ~TrackedFootprint();

  /// Re-register with a new size (e.g. after a graph mutation).
  void resize(std::size_t bytes) noexcept;

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

}  // namespace psa::support
