// COMPATIBLE / ALIAS / JOIN (§4, §4.3).
#include <ranges>
#include <span>

#include "rsg/ops.hpp"
#include "support/metrics.hpp"
#include "support/union_find.hpp"

namespace psa::rsg {

bool alias_equal(const Rsg& a, const Rsg& b) {
  const auto& pla = a.pvar_links();
  const auto& plb = b.pvar_links();
  if (pla.size() != plb.size()) return false;
  // Same bound pvars (both sorted).
  for (std::size_t i = 0; i < pla.size(); ++i)
    if (pla[i].first != plb[i].first) return false;
  // Same partition: pvars i and j alias in a iff they alias in b.
  for (std::size_t i = 0; i < pla.size(); ++i) {
    for (std::size_t j = i + 1; j < pla.size(); ++j) {
      const bool alias_a = pla[i].second == pla[j].second;
      const bool alias_b = plb[i].second == plb[j].second;
      if (alias_a != alias_b) return false;
    }
  }
  return true;
}

bool compatible_with_contexts(const Rsg& a, const CompatContexts& ctx_a,
                              const Rsg& b, const CompatContexts& ctx_b,
                              const LevelPolicy& policy) {
  if (!alias_equal(a, b)) return false;
  // COMP_NODES: the nodes referenced by the same pvar must be compatible.
  for (const auto& [pvar, na] : a.pvar_links()) {
    const NodeRef nb = b.pvar_target(pvar);
    if (!c_nodes(a.props(na), ctx_a[na], b.props(nb), ctx_b[nb], policy))
      return false;
  }
  return true;
}

bool compatible(const Rsg& a, const Rsg& b, const LevelPolicy& policy) {
  if (!alias_equal(a, b)) return false;
  return compatible_with_contexts(a, compute_compat_contexts(a), b,
                                  compute_compat_contexts(b), policy);
}

namespace {

/// Position of each alive node of a graph in its node_refs() (by slot).
NodeRefs index_by_slot(const Rsg& g, const NodeRefs& refs) {
  NodeRefs index(g.node_capacity(), 0);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    index[refs[i]] = static_cast<NodeRef>(i);
  }
  return index;
}

Rsg join_impl(const Rsg& a, const CompatContexts& ctx_a, const Rsg& b,
              const CompatContexts& ctx_b, const LevelPolicy& policy,
              bool force) {
  const NodeRefs refs_a = a.node_refs();
  const NodeRefs refs_b = b.node_refs();
  const NodeRefs index_a = index_by_slot(a, refs_a);
  const NodeRefs index_b = index_by_slot(b, refs_b);

  // Combined index space: [0, |A|) for a's nodes, [|A|, |A|+|B|) for b's.
  const std::size_t total = refs_a.size() + refs_b.size();
  support::UnionFind uf(total);
  for (std::size_t i = 0; i < refs_a.size(); ++i) {
    for (std::size_t j = 0; j < refs_b.size(); ++j) {
      const NodeRef na = refs_a[i];
      const NodeRef nb = refs_b[j];
      if (c_nodes(a.props(na), ctx_a[na], b.props(nb), ctx_b[nb], policy))
        uf.unite(i, refs_a.size() + j);
    }
  }
  if (force) {
    // Widening: the node pair referenced by each pvar must land in one class
    // so the result has a well-formed PL, whatever their properties.
    for (const auto& [pvar, na] : a.pvar_links()) {
      const NodeRef nb = b.pvar_target(pvar);
      uf.unite(index_a[na], refs_a.size() + index_b[nb]);
    }
  }

  auto member_graph = [&](std::size_t k) -> const Rsg& {
    return k < refs_a.size() ? a : b;
  };
  auto member_ref = [&](std::size_t k) {
    return k < refs_a.size() ? refs_a[k] : refs_b[k - refs_a.size()];
  };

  Rsg out;
  // Graph-level salvage taint is sticky through every join.
  out.set_havoc(a.havoc() || b.havoc());
  NodeRefs map(total, kNoNode);
  uf.for_each_class(
      std::views::iota(std::size_t{0}, total),
      [&](std::span<const support::ClassMember> members) {
        // Fold the members' properties. The folded side's out-selectors are
        // the union over the members folded so far, each in its own graph.
        const std::size_t first = members[0].index;
        NodeProps props = member_graph(first).props(member_ref(first));
        SmallSet<Symbol> out_sels;
        if (members.size() > 1)
          out_sels = member_graph(first).out_selectors(member_ref(first));
        std::size_t from_a = first < refs_a.size() ? 1 : 0;
        std::size_t from_b = 1 - from_a;
        for (std::size_t k = 1; k < members.size(); ++k) {
          const std::size_t m = members[k].index;
          (m < refs_a.size() ? from_a : from_b) += 1;
          const Rsg& mg = member_graph(m);
          const SmallSet<Symbol> m_sels = mg.out_selectors(member_ref(m));
          props = merge_node_props(props, out_sels, mg.props(member_ref(m)),
                                   m_sels, /*same_configuration=*/false);
          out_sels = set_union(out_sels, m_sels);
        }
        // Cardinality across configurations: `one` survives only when no
        // single configuration contributes two nodes and no member is a
        // summary.
        if (from_a >= 2 || from_b >= 2) props.cardinality = Cardinality::kMany;
        for (const support::ClassMember& m : members) {
          if (member_graph(m.index).props(member_ref(m.index)).cardinality ==
              Cardinality::kMany)
            props.cardinality = Cardinality::kMany;
        }

        const NodeRef nn = out.add_node(std::move(props));
        for (const support::ClassMember& m : members) map[m.index] = nn;
      });

  // Links: every link of either graph, remapped.
  auto import_links = [&](const Rsg& g, const NodeRefs& refs,
                          const NodeRefs& index_of, std::size_t base) {
    for (std::size_t i = 0; i < refs.size(); ++i) {
      for (const Link& l : g.out_links(refs[i]))
        out.add_link(map[base + i], l.sel, map[base + index_of[l.target]]);
    }
  };
  import_links(a, refs_a, index_a, 0);
  import_links(b, refs_b, index_b, refs_a.size());

  // PL: COMPATIBLE guarantees the per-pvar targets landed in the same class.
  for (const auto& [pvar, na] : a.pvar_links())
    out.bind_pvar(pvar, map[index_a[na]]);

  compress(out, policy);
  out.refresh_footprint();
  return out;
}

}  // namespace

Rsg join(const Rsg& a, const Rsg& b, const LevelPolicy& policy) {
  return join(a, compute_compat_contexts(a), b, compute_compat_contexts(b),
              policy);
}

Rsg join(const Rsg& a, const CompatContexts& ctx_a, const Rsg& b,
         const CompatContexts& ctx_b, const LevelPolicy& policy) {
  return join_impl(a, ctx_a, b, ctx_b, policy, /*force=*/false);
}

Rsg force_join(const Rsg& a, const Rsg& b, const LevelPolicy& policy) {
  return force_join(a, compute_compat_contexts(a), b, policy);
}

Rsg force_join(const Rsg& a, const CompatContexts& ctx_a, const Rsg& b,
               const LevelPolicy& policy) {
  PSA_COUNT(support::Counter::kForceJoins);
  return join_impl(a, ctx_a, b, compute_compat_contexts(b), policy,
                   /*force=*/true);
}

}  // namespace psa::rsg
