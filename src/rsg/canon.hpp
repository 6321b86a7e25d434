// Graph identity for fixpoint detection.
//
// The engine iterates the abstract interpretation until the RSRSG of every
// statement stops changing; "stops changing" is equality of RSGs up to node
// renaming. Every graph gets one canonical key when it enters an RSRSG.
// Weisfeiler-Lehman colour refinement (seeded with node properties and the
// pvars pointing at each node) ranks the nodes by colour, and the key is an
// exact byte encoding of the graph in that order: equal keys mean
// isomorphic graphs, with no hash deciding the answer. Keys compare with
// memcmp and replace graph copies wherever a graph is only remembered, not
// read (the transfer cache). Predator decides graph equality by the same
// rooted traversal.
//
// When refinement leaves two nodes with one colour, the order is finished by
// individualization-refinement: each member of the lowest tied cell gets its
// own colour in turn, refinement runs again, the search recurses until no
// ties remain, and the key keeps the smallest encoding. The cell and the new
// colour depend only on colours, so the set of leaves, and its minimum, is a
// function of the isomorphism class. Keys that needed the search are
// counted (support::Counter::kCanonFallbacks).
//
// Analysis states never need it. Every transfer output and JOIN result goes
// through COMPRESS, which merges C_NODES_RSG-compatible nodes until none
// remain, and two nodes refinement cannot separate have equal properties,
// SPATHs and component, so they are compatible; widened members are
// coarsened, which merges nodes with equal (TYPE, SPATH0, SHARED, SHSEL).
// A tie then needs a 64-bit colour collision or a hand-built graph, and the
// search has no pruning: it is factorial in the size of a symmetric
// structure (one key of a root with k identical successors takes ~0.8 s at
// k = 9; EXPERIMENTS.md, "Canonical keys"). StateDigestTest fails if any
// corpus run needs the search.
//
// Keys hold interner ids, so they are meaningful only within one process and
// one interner; they are never serialized.
//
// A key's bytes live in one shared, immutable, reference-counted block, so
// copying a key (a transfer-cache entry, a member shared between sets)
// copies a 16-byte handle, not the encoding. Two keys compare by hash first,
// then accept the same block or equal bytes: keys built separately for
// isomorphic graphs are equal although their blocks differ. Each block
// registers its size with support::MemoryStats once, when it is made, so
// peak_bytes counts every distinct encoding once however many handles hold
// it.
#pragma once

#include <cstdint>
#include <string_view>

#include "rsg/rsg.hpp"

namespace psa::rsg {

/// Canonical identity of one RSG; see the file comment.
class CanonicalKey {
 public:
  CanonicalKey() noexcept = default;
  CanonicalKey(const CanonicalKey& other) noexcept;
  CanonicalKey(CanonicalKey&& other) noexcept;
  CanonicalKey& operator=(const CanonicalKey& other) noexcept;
  CanonicalKey& operator=(CanonicalKey&& other) noexcept;
  ~CanonicalKey();

  /// The canonical encoding (empty for a default-constructed key).
  [[nodiscard]] std::string_view bytes() const noexcept;

  /// Equal iff the graphs are isomorphic.
  friend bool operator==(const CanonicalKey& a,
                         const CanonicalKey& b) noexcept {
    return a.hash_ == b.hash_ &&
           (a.block_ == b.block_ || a.bytes() == b.bytes());
  }

  struct Hash {
    std::size_t operator()(const CanonicalKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash_);
    }
  };

 private:
  struct Block;
  friend CanonicalKey canonical_key(const Rsg& g);

  /// A key holding a fresh block with a copy of `bytes`.
  explicit CanonicalKey(std::string_view bytes);
  /// Drop one reference to `block`; the last one frees it.
  static void release(Block* block) noexcept;

  Block* block_ = nullptr;
  std::uint64_t hash_ = 0;  // of the bytes, for bucketing
};

/// The canonical key of `g`.
[[nodiscard]] CanonicalKey canonical_key(const Rsg& g);

}  // namespace psa::rsg
