// The RSG operations of §3.1 and §4: COMPRESS, DIVIDE, PRUNE, JOIN, and the
// materialization (focus) step the abstract semantics needs before strong
// updates through summary nodes (Fig. 1 (d) of the paper).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "rsg/compat.hpp"
#include "rsg/level.hpp"
#include "rsg/rsg.hpp"

namespace psa::rsg {

struct PruneOptions {
  /// The share-based link pruning of §4.2 ("the false value in share
  /// attributes leads to a more aggressive pruning"): with SHSEL(t,sel)=false
  /// and a definite <a,sel,t> link, every other sel-link into a
  /// cardinality-one t is spurious; with SHARED(t)=false the same holds
  /// across all selectors. Disabled only by the ablation benchmark.
  bool share_pruning = true;
};

/// Clear SHARED/SHSEL bits that the link structure proves impossible
/// (max_in_refs <= 1). Downward-only refinement; returns true if changed.
bool refine_sharing(Rsg& g);

/// PRUNE (§4.2): iteratively remove links violating CYCLELINKS, links made
/// spurious by share attributes, nodes violating their reference patterns,
/// and nodes unreachable from every pvar — until a fixed point.
/// Returns false when the graph is *infeasible* (a pvar-referenced node had
/// to be removed): the caller must drop the graph.
[[nodiscard]] bool prune(Rsg& g, const PruneOptions& opts = {});

/// DIVIDE (§4.1): split `g` so that in every resulting graph the node
/// referenced by `x` has at most one outgoing `sel` link — one graph per
/// original sel-target, plus (when sel is not a definite out-selector) the
/// graph in which x->sel is NULL. Each result is pruned; infeasible results
/// are dropped. When x is unbound the result is empty (the caller treats the
/// statement as a null dereference on this configuration).
[[nodiscard]] std::vector<Rsg> divide(const Rsg& g, Symbol x, Symbol sel,
                                      const PruneOptions& opts = {});

/// Result of materialization: the graph variant plus the cardinality-one
/// node that now represents the single location `from->sel` denotes.
struct Materialized {
  Rsg graph;
  NodeRef one_node = kNoNode;
};

/// Materialize (focus) the target of the unique link <from, sel, summary>.
/// Produces the "exactly one location remained" and "more locations remain"
/// variants (both pruned; infeasible ones dropped). When the target is
/// already cardinality-one the graph passes through unchanged.
[[nodiscard]] std::vector<Materialized> materialize(const Rsg& g, NodeRef from,
                                                    Symbol sel,
                                                    const PruneOptions& opts = {});

/// COMPRESS (§3.1): summarize C_NODES_RSG-compatible nodes until stable,
/// then drop unreachable nodes and compact.
void compress(Rsg& g, const LevelPolicy& policy);

/// Coarsening (engineering addition, see DESIGN.md): summarize *every* pair
/// of nodes with equal TYPE and equal zero-length SPATH, with conservative
/// property merges. Bounds the graph at (#pvar-combinations + 1) x #types
/// nodes — the widening the engine falls back to when the paper's semantics
/// explode (Barnes-Hut at L1). Sound; strictly less precise than COMPRESS.
void coarsen(Rsg& g, const LevelPolicy& policy);

/// ALIAS-relation equality (§4): same bound pvars, same pvar partition.
[[nodiscard]] bool alias_equal(const Rsg& a, const Rsg& b);

/// COMPATIBLE (§4): ALIAS equality plus per-pvar C_NODES compatibility.
[[nodiscard]] bool compatible(const Rsg& a, const Rsg& b,
                              const LevelPolicy& policy);

/// As above with caller-supplied compatibility contexts (hot path: RSRSG
/// insertion caches per-member contexts to avoid recomputing them per pair).
[[nodiscard]] bool compatible_with_contexts(const Rsg& a,
                                            const CompatContexts& ctx_a,
                                            const Rsg& b,
                                            const CompatContexts& ctx_b,
                                            const LevelPolicy& policy);

/// JOIN (§4.3): union of two compatible graphs; cross-graph C_NODES-
/// compatible nodes are summarized, everything else is copied side by side.
/// The result is compressed.
[[nodiscard]] Rsg join(const Rsg& a, const Rsg& b, const LevelPolicy& policy);
/// As above with each graph's compatibility contexts (compute_compat_contexts
/// of that graph), which an RSRSG insert already holds.
[[nodiscard]] Rsg join(const Rsg& a, const CompatContexts& ctx_a, const Rsg& b,
                       const CompatContexts& ctx_b, const LevelPolicy& policy);

/// Widening (engineering addition, see DESIGN.md): join two ALIAS-equal
/// graphs even when COMP_NODES fails, by additionally summarizing the node
/// pair referenced by each pvar with conservative property merges
/// (SHARED/SHSEL grow, SELIN/SELOUT/TOUCH shrink). Sound but less precise
/// than JOIN; the engine applies it only above Options::widen_threshold to
/// bound the RSG count the paper bounds with patience (17-minute L1 runs).
[[nodiscard]] Rsg force_join(const Rsg& a, const Rsg& b,
                             const LevelPolicy& policy);
/// As above with `a`'s compatibility contexts; `b`'s are computed.
[[nodiscard]] Rsg force_join(const Rsg& a, const CompatContexts& ctx_a,
                             const Rsg& b, const LevelPolicy& policy);

/// Degradation support (the resource governor's kForceJoin rung): demote
/// every node's must-information to may-information — SELIN/SELOUT move to
/// their possible counterparts, CYCLELINKS and TOUCH are cleared. Sound:
/// must sets may only be under-approximated, possible sets only grown.
/// Returns true when anything changed.
bool drop_must_info(Rsg& g);

/// Degradation support (the governor's kSummarize rung): the ⊤-like collapse
/// for a fixed ALIAS pattern. Sets SHARED and SHSEL(sel) for every node and
/// every selector of `selectors`, demotes must-information, marks every
/// node not referenced by a pvar as a summary, then coarsens. Links are
/// never deleted, pvar bindings are untouched, so the result covers every
/// store the input covered.
///
/// When `types` is given, the may-structure is additionally *saturated*:
/// every type-correct link (a selector field of the source's struct whose
/// pointee is the target's struct) is present, with PosSELOUT/PosSELIN to
/// match. Saturation makes ⊤ a fixed point under joining further transfer
/// outputs — without it a degraded fixpoint climbs the link lattice one
/// fold at a time, re-queuing successors on every climb. The saturation
/// must stay *typed*: saturating untyped would let a later DIVIDE bind
/// pvars to nodes of every type, exploding the ALIAS-pattern space.
void summarize_top(Rsg& g, const LevelPolicy& policy,
                   const std::vector<Symbol>& selectors,
                   const lang::TypeTable* types = nullptr);

/// Region-scoped ⊤ collapse for the interprocedural kCall transfer: the
/// summarize_top widening restricted to `region` (the argument-reachable
/// subgraph a callee could mutate). Must-information of region nodes is
/// demoted, their sharing bits saturate, non-pvar-referenced region nodes
/// become summaries, and every type-correct link *within* the region is
/// added. Nodes outside the region — caller state the callee can never
/// reach — are untouched, and no coarsen runs (it is a global operation;
/// the caller's finish/compress pass compacts instead).
void summarize_region(Rsg& g, std::span<const NodeRef> region,
                      const std::vector<Symbol>& selectors,
                      const lang::TypeTable* types = nullptr);

/// Type-correct link saturation, the may-structure every ⊤ widening above
/// and the kCall/kHavoc transfers build on: add each link <a, f, b> with a
/// in `sources`, f a selector field of a's struct and b in `targets` of f's
/// pointee struct, with PosSELOUT(a, f) and PosSELIN(b, f) to match. Sound
/// for the same reason as the widenings: may-information only grows.
void saturate_links(Rsg& g, std::span<const NodeRef> sources,
                    std::span<const NodeRef> targets,
                    const lang::TypeTable& types);

}  // namespace psa::rsg
