// COMPRESS (§3.1): summarization of C_NODES_RSG-compatible nodes.
#include "rsg/ops.hpp"
#include "support/metrics.hpp"
#include "support/union_find.hpp"

namespace psa::rsg {

namespace {

/// MERGE_COMP_NODES in place: every class of `uf` with more than one member
/// folds into its least member, the others in ascending node order. Each
/// fold merges the properties against the out-selectors both sides have at
/// that moment — the representative's include every link already moved
/// onto it — then moves the member's links onto the representative and
/// removes the member. Returns the number of nodes folded away.
std::uint64_t merge_classes(Rsg& g, const NodeRefs& refs,
                            support::UnionFind& uf) {
  std::uint64_t folded = 0;
  uf.for_each_class(refs, [&](std::span<const support::ClassMember> members) {
    const NodeRef rep = members[0].index;
    for (std::size_t k = 1; k < members.size(); ++k) {
      const NodeRef other = members[k].index;
      g.props(rep) = merge_node_props(g.props(rep), g.out_selectors(rep),
                                      g.props(other), g.out_selectors(other),
                                      /*same_configuration=*/true);
      for (const Link& l : g.out_links(other))
        g.add_link(rep, l.sel, l.target == other ? rep : l.target);
      for (const InLink& in : g.in_links(other)) {
        if (in.source == other) continue;
        g.add_link(in.source, in.sel, rep);
      }
      // Summarized nodes are never pvar-referenced (their zero-length SPATHs
      // would differ), so no PL rewrite is needed; remove_node asserts that
      // indirectly by dropping any stale PL entry.
      g.remove_node(other);
      ++folded;
    }
  });
  return folded;
}

/// One summarization sweep; returns true when something was merged.
bool compress_once(Rsg& g, const LevelPolicy& policy) {
  const auto refs = g.node_refs();
  if (refs.size() < 2) return false;

  const auto ctx = compute_compat_contexts(g);
  support::UnionFind uf(g.node_capacity());
  bool any = false;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (std::size_t j = i + 1; j < refs.size(); ++j) {
      const NodeRef a = refs[i];
      const NodeRef b = refs[j];
      if (uf.find(a) == uf.find(b)) continue;
      if (c_nodes_rsg(g.props(a), ctx[a], g.props(b), ctx[b], policy)) {
        uf.unite(a, b);
        any = true;
      }
    }
  }
  if (!any) return false;

  const std::uint64_t folded = merge_classes(g, refs, uf);
  PSA_COUNT_N(support::Counter::kCompressMerges, folded);
  return true;
}

}  // namespace

void compress(Rsg& g, const LevelPolicy& policy) {
  PSA_COUNT(support::Counter::kCompressCalls);
  while (compress_once(g, policy)) {
  }
  g.gc();
  g.compact();
  g.refresh_footprint();
}

void coarsen(Rsg& g, const LevelPolicy& policy) {
  PSA_COUNT(support::Counter::kCoarsenCalls);
  const auto refs = g.node_refs();
  if (refs.size() < 2) return;

  // Partition by (TYPE, zero-length SPATH, SHARED, SHSEL). Distinct
  // pvar-reference sets stay separate, so pvar-pointed nodes keep their
  // identity (and their cardinality-one invariant: a pvar references exactly
  // one node); keeping the sharing bits in the key preserves the SHSEL
  // distinctions the paper's Fig. 3 conclusions rest on.
  support::UnionFind uf(g.node_capacity());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    for (std::size_t j = i + 1; j < refs.size(); ++j) {
      const NodeRef a = refs[i];
      const NodeRef b = refs[j];
      if (g.props(a).type != g.props(b).type) continue;
      if (g.props(a).shared != g.props(b).shared) continue;
      if (g.props(a).shsel != g.props(b).shsel) continue;
      // Freed and live locations stay apart even under this widening, so the
      // memory-safety checkers keep their precision through every governor
      // rung (merge_node_props would otherwise widen to kMaybeFreed and turn
      // each degradation into a flood of may-use-after-free findings).
      if (g.props(a).free_state != g.props(b).free_state) continue;
      if (g.spath0(a) != g.spath0(b)) continue;
      uf.unite(a, b);
    }
  }

  (void)merge_classes(g, refs, uf);

  refine_sharing(g);
  compress(g, policy);
}

bool drop_must_info(Rsg& g) {
  bool changed = false;
  for (const NodeRef n : g.node_refs()) {
    NodeProps& p = g.props(n);
    for (const Symbol s : p.selin) changed |= p.pos_selin.insert(s);
    for (const Symbol s : p.selout) changed |= p.pos_selout.insert(s);
    changed |= !p.selin.empty() || !p.selout.empty() ||
               !p.cyclelinks.empty() || !p.touch.empty();
    p.selin.clear();
    p.selout.clear();
    p.cyclelinks.clear();
    p.touch.clear();
  }
  return changed;
}

void summarize_region(Rsg& g, std::span<const NodeRef> region,
                      const std::vector<Symbol>& selectors,
                      const lang::TypeTable* types) {
  for (const NodeRef n : region) {
    NodeProps& p = g.props(n);
    // Region-scoped must-info demotion (drop_must_info restricted to the
    // region): the unknown code may have rewritten every field of these
    // cells, so no definite reference pattern survives.
    for (const Symbol s : p.selin) p.pos_selin.insert(s);
    for (const Symbol s : p.selout) p.pos_selout.insert(s);
    p.selin.clear();
    p.selout.clear();
    p.cyclelinks.clear();
    p.touch.clear();
    p.shared = true;
    for (const Symbol sel : selectors) p.shsel.insert(sel);
    // Pvar-referenced nodes keep cardinality one (a concrete store binds a
    // pvar to at most one location — the PL invariant, not a precision
    // claim); everything else becomes a summary.
    if (g.pvars_of(n).empty()) p.cardinality = Cardinality::kMany;
  }
  // Saturate the may-structure (see ops.hpp) within the region: every
  // *type-correct* link between region cells is present, and every selector
  // field of a region cell may be non-NULL. Links from outside the region
  // into it survive untouched — the unknown code cannot create a link whose
  // *source* cell it cannot reach, so no outside-in saturation is needed.
  if (types != nullptr) {
    for (const NodeRef a : region) {
      for (const lang::Field& f : types->struct_decl(g.props(a).type).fields)
        if (f.is_selector()) g.props(a).pos_selout.insert(f.name);
    }
    saturate_links(g, region, region, *types);
  }
}

void saturate_links(Rsg& g, std::span<const NodeRef> sources,
                    std::span<const NodeRef> targets,
                    const lang::TypeTable& types) {
  for (const NodeRef a : sources) {
    for (const lang::Field& f : types.struct_decl(g.props(a).type).fields) {
      if (!f.is_selector()) continue;
      for (const NodeRef b : targets) {
        if (g.props(b).type != *f.type.struct_id) continue;
        g.add_link(a, f.name, b);
        g.props(a).pos_selout.insert(f.name);
        g.props(b).pos_selin.insert(f.name);
      }
    }
  }
}

void summarize_top(Rsg& g, const LevelPolicy& policy,
                   const std::vector<Symbol>& selectors,
                   const lang::TypeTable* types) {
  PSA_COUNT(support::Counter::kSummarizeTopCalls);
  // The whole-graph collapse is the region collapse over every node...
  summarize_region(g, g.node_refs(), selectors, types);
  // ...followed by coarsening: with uniform sharing bits and no
  // must-information the partition degenerates to (TYPE, SPATH0) — one node
  // per struct type plus one per pvar-reference combination, the coarsest
  // graph for this ALIAS pattern. (Region-scoped callers skip this: coarsen
  // is a global operation and would collapse caller-private state too.)
  coarsen(g, policy);
}

}  // namespace psa::rsg
