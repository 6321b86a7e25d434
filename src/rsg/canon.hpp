// Graph identity for fixpoint detection.
//
// The engine iterates the abstract interpretation until the RSRSG of every
// statement stops changing; "stops changing" is equality of RSGs up to node
// renaming. Every graph gets one canonical key when it enters an RSRSG.
// Weisfeiler-Lehman colour refinement (seeded with node properties and the
// pvars pointing at each node) nearly always gives every node its own
// colour, because gc() keeps only pvar-reachable nodes and the refinement
// spreads the pvar roots' identity along the links (Predator decides graph
// equality by the same rooted traversal). Ranking the nodes by colour then
// gives a canonical node order, and the key is an exact byte encoding of the
// graph in that order: equal keys mean isomorphic graphs, with no hash
// deciding the answer. Keys compare with memcmp and replace graph copies
// wherever a graph is only remembered, not read (the transfer cache).
//
// A graph whose refined partition is not discrete (a real automorphism, or
// two colours that hash alike) gets a *fallback* key: its structural
// fingerprint only. Such a graph keeps the old path: the fingerprint as a
// prefilter and the backtracking isomorphism search (rsg_equal) to decide.
// Fallbacks are counted (support::Counter::kCanonFallbacks).
//
// Keys hold interner ids, so they are meaningful only within one process and
// one interner; they are never serialized.
#pragma once

#include <cstdint>
#include <string>

#include "rsg/rsg.hpp"
#include "support/memory_stats.hpp"

namespace psa::rsg {

/// Canonical identity of one RSG; see the file comment. Its bytes register
/// with support::MemoryStats, so every stored key counts in peak_bytes.
class CanonicalKey {
 public:
  CanonicalKey() = default;

  /// True when the bytes decide equality (the partition was discrete).
  [[nodiscard]] bool exact() const noexcept { return exact_; }
  /// For bucketing only: a hash of the bytes, or the fingerprint of a
  /// fallback key.
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

  /// Exact keys: equal iff the graphs are isomorphic. Fallback keys: equal
  /// fingerprints, a prefilter that rsg_equal must confirm (same_graph).
  friend bool operator==(const CanonicalKey& a,
                         const CanonicalKey& b) noexcept {
    return a.hash_ == b.hash_ && a.exact_ == b.exact_ && a.bytes_ == b.bytes_;
  }

  struct Hash {
    std::size_t operator()(const CanonicalKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash_);
    }
  };

 private:
  friend CanonicalKey canonical_key(const Rsg& g);

  std::string bytes_;  // empty for a fallback key
  std::uint64_t hash_ = 0;
  bool exact_ = false;
  support::TrackedFootprint footprint_;
};

/// The canonical key of `g`.
[[nodiscard]] CanonicalKey canonical_key(const Rsg& g);

/// Graph identity through keys: byte equality when the keys are exact, the
/// isomorphism search behind a fingerprint match otherwise. `ka` must be the
/// key of `a` and `kb` the key of `b`.
[[nodiscard]] bool same_graph(const CanonicalKey& ka, const Rsg& a,
                              const CanonicalKey& kb, const Rsg& b);

/// Order-independent structural fingerprint. Equal graphs (up to renaming)
/// have equal fingerprints; the converse holds modulo hash collisions, which
/// rsg_equal resolves exactly.
[[nodiscard]] std::uint64_t fingerprint(const Rsg& g);

/// Exact isomorphism test respecting node properties, links, and PL.
[[nodiscard]] bool rsg_equal(const Rsg& a, const Rsg& b);

}  // namespace psa::rsg
