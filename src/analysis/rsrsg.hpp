// Reduced Set of Reference Shape Graphs (§4 of the paper).
//
// The abstract value attached to every program point: a set of RSGs where
// COMPATIBLE members (equal ALIAS relation + per-pvar node compatibility)
// have been fused by JOIN. The reduction is what keeps the analysis
// practicable — disabling it (ablation) makes the set grow with the number
// of control paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rsg/canon.hpp"
#include "rsg/level.hpp"
#include "rsg/ops.hpp"
#include "rsg/rsg.hpp"

namespace psa::analysis {

using rsg::LevelPolicy;
using rsg::Rsg;

class Rsrsg {
 public:
  /// Insert a graph: joined into the first COMPATIBLE member (repeatedly, in
  /// case the join enables further fusions); duplicates (isomorphic members)
  /// are dropped. With `enable_join` false only exact duplicates are merged.
  /// Returns true when the set changed.
  bool insert(Rsg g, const LevelPolicy& policy, bool enable_join = true);

  /// Widening: coarsen every member to its (TYPE, SPATH0) skeleton and
  /// force-join ALIAS-equal members. The set then enters *widened mode*:
  /// every further insert is coarsened and force-joined into its ALIAS-
  /// matching member, which makes the set evolve monotonically in a finite
  /// lattice (links/SHARED/SHSEL only grow; SELIN/SELOUT/TOUCH only shrink)
  /// and guarantees the fixpoint terminates. Members with pairwise different
  /// ALIAS relations cannot be fused; the set may stay above `max_graphs` —
  /// the caller decides whether that is a hard failure. Returns true when
  /// the set changed.
  bool widen(const LevelPolicy& policy, std::size_t max_graphs);

  [[nodiscard]] bool widened() const noexcept { return widened_; }

  /// Exact restore for the snapshot layer (rsg/serialize.hpp): adopt the
  /// members verbatim — no join, no coarsening, no dedup.
  /// `deserialize(serialize(s))` must reproduce the set member-for-member,
  /// so the restore path deliberately bypasses every reduction insert()
  /// would apply. It computes no canonical keys either: most restored sets
  /// (cache hits) are only read, so keys wait for the first insert, widen,
  /// equals or key_at.
  [[nodiscard]] static Rsrsg restore(std::vector<Rsg> graphs, bool widened);

  /// Degradation entry point for the resource governor: apply `transform` to
  /// every member, then rebuild the set through the widened-mode insert path
  /// (coarsen + force-join ALIAS-equal members). The set enters widened mode,
  /// so later inserts stay coarse and the fixpoint terminates. `transform`
  /// must only widen (merge nodes, grow may-info, shrink must-info) for the
  /// result to stay sound. Returns true when the set changed.
  bool degrade_members(const LevelPolicy& policy,
                       const std::function<void(Rsg&)>& transform);

  [[nodiscard]] std::size_t size() const noexcept { return graphs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return graphs_.empty(); }
  [[nodiscard]] const std::vector<Rsg>& graphs() const noexcept {
    return graphs_;
  }
  /// Canonical key of member `i` (parallel to graphs()).
  [[nodiscard]] const rsg::CanonicalKey& key_at(std::size_t i) const {
    ensure_keys();
    return keys_[i];
  }

  [[nodiscard]] std::size_t footprint_bytes() const;
  [[nodiscard]] std::size_t total_nodes() const;

  /// Set equality up to graph isomorphism and member order.
  [[nodiscard]] bool equals(const Rsrsg& other) const;

  [[nodiscard]] std::string dump(const support::Interner& interner) const;

 private:
  bool fold_widened(Rsg g, const LevelPolicy& policy);
  [[nodiscard]] bool contains(const rsg::CanonicalKey& key) const;
  /// Rebuild through insert() after `transform`; true when the set changed.
  bool reinsert_members(const LevelPolicy& policy,
                        const std::function<void(Rsg&)>& transform);
  void ensure_keys() const;
  const std::vector<rsg::NodeCompatContext>& member_contexts(std::size_t i) const;

  std::vector<Rsg> graphs_;
  /// Parallel to graphs_, or empty until ensure_keys() for a restored set.
  mutable std::vector<rsg::CanonicalKey> keys_;
  /// Lazily-computed compatibility contexts per member (hot path of insert).
  mutable std::vector<std::shared_ptr<const std::vector<rsg::NodeCompatContext>>>
      contexts_;
  bool widened_ = false;
};

}  // namespace psa::analysis
