// Reference Shape Graph (§3 of the paper).
//
// RSG = (N, P, S, PL, NL):
//   N  — nodes (NodeProps + identity)
//   P  — the program's pvars (owned by the frontend; symbols here)
//   S  — the program's selectors (likewise)
//   PL — references from pvars to nodes. A concrete store binds each pvar to
//        at most one location, and the analysis maintains the invariant that
//        PL is a partial map pvar -> node (DIVIDE restores it after loads).
//   NL — may-links between nodes, labeled with selectors.
//
// Graph invariants maintained by the operations:
//   * a node referenced by a pvar always has cardinality `one`
//     (fresh mallocs and materialized nodes are `one`; COMPRESS never
//     summarizes a pvar-pointed node with anything else because their
//     zero-length SPATHs differ),
//   * selin/pos_selin and selout/pos_selout stay disjoint,
//   * every node is reachable from some pvar (gc() removes the rest).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rsg/properties.hpp"
#include "support/memory_stats.hpp"
#include "support/small_vector.hpp"

namespace psa::rsg {

using NodeRef = std::uint32_t;
constexpr NodeRef kNoNode = static_cast<NodeRef>(-1);

/// An outgoing link entry <sel, target>.
struct Link {
  Symbol sel;
  NodeRef target = kNoNode;

  friend constexpr bool operator==(Link, Link) noexcept = default;
  friend constexpr auto operator<=>(Link, Link) noexcept = default;
};

/// An incoming link entry <source, sel>.
struct InLink {
  NodeRef source = kNoNode;
  Symbol sel;

  friend constexpr bool operator==(InLink, InLink) noexcept = default;
  friend constexpr auto operator<=>(InLink, InLink) noexcept = default;
};

/// A node's out- or in-link list: two links inline, sorted ascending.
using LinkList = support::SmallVector<Link>;
using InLinkList = support::SmallVector<InLink>;

/// Per-call scratch over a graph's nodes or node slots (node_refs(),
/// sel_targets(), components(), reachable_from()): inline up to
/// kScratchNodes entries, so a typical graph's kernel calls allocate none.
inline constexpr std::size_t kScratchNodes = 32;
using NodeRefs = support::SmallVector<NodeRef, kScratchNodes>;
using NodeFlags = support::SmallVector<bool, kScratchNodes>;

class Rsg {
 public:
  Rsg();
  Rsg(const Rsg&);
  Rsg& operator=(const Rsg&);
  Rsg(Rsg&&) noexcept = default;
  Rsg& operator=(Rsg&&) noexcept = default;

  // --- Nodes ---------------------------------------------------------------

  NodeRef add_node(NodeProps props);
  void remove_node(NodeRef n);  // also removes every link touching n
  [[nodiscard]] bool alive(NodeRef n) const { return nodes_[n].alive; }
  [[nodiscard]] NodeProps& props(NodeRef n) { return nodes_[n].props; }
  [[nodiscard]] const NodeProps& props(NodeRef n) const {
    return nodes_[n].props;
  }
  /// Count of alive nodes.
  [[nodiscard]] std::size_t node_count() const noexcept { return alive_count_; }
  /// Upper bound of node refs (iterate [0, node_capacity()) checking alive()).
  [[nodiscard]] std::size_t node_capacity() const noexcept {
    return nodes_.size();
  }

  /// All alive node refs, ascending.
  [[nodiscard]] NodeRefs node_refs() const;

  // --- PL: pvar references ---------------------------------------------------

  void bind_pvar(Symbol pvar, NodeRef n);
  void unbind_pvar(Symbol pvar);
  [[nodiscard]] NodeRef pvar_target(Symbol pvar) const;  // kNoNode if unbound
  [[nodiscard]] const std::vector<std::pair<Symbol, NodeRef>>& pvar_links()
      const noexcept {
    return pl_;
  }
  /// Pvars bound to `n`, ascending.
  [[nodiscard]] SmallSet<Symbol> pvars_of(NodeRef n) const;

  // --- NL: selector links ----------------------------------------------------

  /// Add the may-link <from, sel, to>; returns false if already present.
  bool add_link(NodeRef from, Symbol sel, NodeRef to);
  bool remove_link(NodeRef from, Symbol sel, NodeRef to);
  [[nodiscard]] bool has_link(NodeRef from, Symbol sel, NodeRef to) const;
  [[nodiscard]] const LinkList& out_links(NodeRef n) const {
    return nodes_[n].out;
  }
  /// Targets of `from` via `sel`, ascending.
  [[nodiscard]] NodeRefs sel_targets(NodeRef from, Symbol sel) const;
  /// All incoming links of `to` (maintained incrementally, sorted).
  [[nodiscard]] const InLinkList& in_links(NodeRef to) const {
    return nodes_[to].in;
  }
  [[nodiscard]] std::size_t link_count() const;

  // --- Derived properties ------------------------------------------------------

  /// Zero-length simple paths: pvars bound to n. Both SPATH sets of every
  /// node at once: rsg::compute_compat_contexts.
  [[nodiscard]] SmallSet<Symbol> spath0(NodeRef n) const { return pvars_of(n); }
  /// STRUCTURE: weakly-connected-component id per node slot (dead slots get
  /// kNoNode). Ids are the smallest member ref of the component.
  [[nodiscard]] NodeRefs components() const;
  /// Forward reachability over may-links from `roots` (alive refs;
  /// duplicates allowed): true per node slot reached, roots included.
  [[nodiscard]] NodeFlags reachable_from(std::span<const NodeRef> roots) const;
  /// reachable_from the pvars' targets.
  [[nodiscard]] NodeFlags reachable_from_pvars() const;
  /// Selectors of n's out-links, ascending.
  [[nodiscard]] SmallSet<Symbol> out_selectors(NodeRef n) const;

  /// Upper bound on the number of distinct heap references to locations of
  /// `to` via `sel` (2 stands for "2 or more"): a link from a cardinality-one
  /// source counts 1, from a summary source 2.
  [[nodiscard]] int max_in_refs(NodeRef to, Symbol sel) const;
  /// Same over all selectors.
  [[nodiscard]] int max_in_refs_total(NodeRef to) const;
  /// True when <from, sel, to> is a *definite* link: `from` has cardinality
  /// one, sel is in its definite SELOUTset and `to` is its unique sel-target.
  [[nodiscard]] bool definite_link(NodeRef from, Symbol sel, NodeRef to) const;

  // --- Salvage taint -----------------------------------------------------------

  /// Sticky graph-level HAVOC taint: true once any kHavoc transfer widened
  /// this configuration (even a variant that left no tainted node behind,
  /// e.g. "the unknown expression was NULL" unbinds the pvar). OR-combined by
  /// JOIN/force_join, serialized with the graph; see docs/RESILIENCE.md.
  [[nodiscard]] bool havoc() const noexcept { return havoc_; }
  void set_havoc(bool on) noexcept { havoc_ = on; }

  // --- Maintenance -------------------------------------------------------------

  /// Remove nodes unreachable from every pvar. Returns true if changed.
  bool gc();
  /// Renumber nodes to remove dead slots.
  void compact();
  /// Re-register this graph's byte footprint with support::MemoryStats.
  void refresh_footprint();
  [[nodiscard]] std::size_t footprint_bytes() const;

  /// Multi-line textual dump for tests and debugging.
  [[nodiscard]] std::string dump(const support::Interner& interner) const;

 private:
  struct Node {
    bool alive = true;
    NodeProps props;
    LinkList out;   // sorted ascending
    InLinkList in;  // sorted ascending, mirrors the out lists
  };

  std::vector<Node> nodes_;
  std::size_t alive_count_ = 0;
  std::vector<std::pair<Symbol, NodeRef>> pl_;  // sorted by pvar
  bool havoc_ = false;
  support::TrackedFootprint footprint_;
};

}  // namespace psa::rsg
