// Reduced Set of Reference Shape Graphs (§4 of the paper).
//
// The abstract value attached to every program point: a set of RSGs where
// COMPATIBLE members (equal ALIAS relation + per-pvar node compatibility)
// have been fused by JOIN. The reduction is what keeps the analysis
// practicable — disabling it (ablation) makes the set grow with the number
// of control paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rsg/canon.hpp"
#include "rsg/compat.hpp"
#include "rsg/level.hpp"
#include "rsg/ops.hpp"
#include "rsg/rsg.hpp"

namespace psa::analysis {

using rsg::LevelPolicy;
using rsg::Rsg;

class Rsrsg {
  class Member;
  using Members = std::vector<std::shared_ptr<Member>>;

 public:
  /// Read-only view of the member graphs in member order: size(), [] and
  /// range-for. It refers to the set, which must outlive it.
  class GraphView {
   public:
    class iterator {
     public:
      const Rsg& operator*() const { return (*it_)->graph(); }
      iterator& operator++() {
        ++it_;
        return *this;
      }
      friend bool operator==(const iterator&, const iterator&) = default;

     private:
      friend class GraphView;
      explicit iterator(Members::const_iterator it) : it_(it) {}
      Members::const_iterator it_;
    };

    [[nodiscard]] std::size_t size() const noexcept { return members_->size(); }
    [[nodiscard]] const Rsg& operator[](std::size_t i) const {
      return (*members_)[i]->graph();
    }
    [[nodiscard]] iterator begin() const { return iterator(members_->begin()); }
    [[nodiscard]] iterator end() const { return iterator(members_->end()); }

   private:
    friend class Rsrsg;
    explicit GraphView(const Members& members) : members_(&members) {}
    const Members* members_;
  };

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
  /// ALIAS relations cannot be fused, so a widened set holds one member per
  /// ALIAS pattern and widening it again would change nothing: on a widened
  /// set the call does nothing.
  void widen(const LevelPolicy& policy);

  [[nodiscard]] bool widened() const noexcept { return widened_; }

  /// Exact restore for the snapshot layer (rsg/serialize.hpp): adopt the
  /// members verbatim — no join, no coarsening, no dedup.
  /// `deserialize(serialize(s))` must reproduce the set member-for-member,
  /// so the restore path deliberately bypasses every reduction insert()
  /// would apply. It computes no canonical keys either: most restored sets
  /// (cache hits) are only read, so each member's key waits for its first
  /// use by insert, widen, equals or key_at.
  [[nodiscard]] static Rsrsg restore(std::vector<Rsg> graphs, bool widened);

  /// Degradation entry point for the resource governor: apply `transform` to
  /// every member, then rebuild the set through the widened-mode insert path
  /// (coarsen + force-join ALIAS-equal members). The set enters widened mode,
  /// so later inserts stay coarse and the fixpoint terminates. `transform`
  /// must only widen (merge nodes, grow may-info, shrink must-info) for the
  /// result to stay sound.
  void degrade_members(const LevelPolicy& policy,
                       const std::function<void(Rsg&)>& transform);

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }
  [[nodiscard]] GraphView graphs() const noexcept {
    return GraphView(members_);
  }
  /// Canonical key of member `i` (parallel to graphs()).
  [[nodiscard]] const rsg::CanonicalKey& key_at(std::size_t i) const {
    return members_[i]->key();
  }

  [[nodiscard]] std::size_t footprint_bytes() const;
  [[nodiscard]] std::size_t total_nodes() const;

  /// Set equality up to graph isomorphism and member order.
  [[nodiscard]] bool equals(const Rsrsg& other) const;

  [[nodiscard]] std::string dump(const support::Interner& interner) const;

 private:
  using Contexts = rsg::CompatContexts;

  /// One member: a graph with its canonical key and its compatibility
  /// contexts (the hot path of insert), both computed on first use. Sets
  /// share members by handle, so copying a set copies no graph; no member
  /// is edited once it is in a set — a mutation replaces it.
  class Member {
   public:
    explicit Member(Rsg graph, std::optional<rsg::CanonicalKey> key = {},
                    std::optional<Contexts> contexts = {})
        : graph_(std::move(graph)),
          key_(std::move(key)),
          contexts_(std::move(contexts)) {}

    [[nodiscard]] const Rsg& graph() const noexcept { return graph_; }
    [[nodiscard]] const rsg::CanonicalKey& key() const;
    [[nodiscard]] const Contexts& contexts() const;

    /// The graph of `member`: moved out when the caller held the only
    /// handle, copied when another set still shares it.
    [[nodiscard]] static Rsg release(std::shared_ptr<Member> member);

   private:
    Rsg graph_;
    mutable std::optional<rsg::CanonicalKey> key_;
    mutable std::optional<Contexts> contexts_;
  };

  bool fold_widened(Rsg g, const LevelPolicy& policy);
  [[nodiscard]] bool contains(const rsg::CanonicalKey& key) const;
  /// Enter widened mode and rebuild through insert() after `transform`.
  void reinsert_members(const LevelPolicy& policy,
                        const std::function<void(Rsg&)>& transform);

  Members members_;
  bool widened_ = false;
};

}  // namespace psa::analysis
