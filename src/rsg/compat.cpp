#include "rsg/compat.hpp"

namespace psa::rsg {

CompatContexts compute_compat_contexts(const Rsg& g) {
  CompatContexts out(g.node_capacity());
  const auto comps = g.components();
  for (NodeRef n = 0; n < g.node_capacity(); ++n) out[n].component = comps[n];
  // SPATH in one sweep over PL: a binding pvar -> m is the zero-length path
  // of m and, through each out-link <m, sel, t>, the one-length path
  // <pvar, sel> of t.
  for (const auto& [pvar, m] : g.pvar_links()) {
    out[m].spath0.insert(pvar);
    for (const Link& l : g.out_links(m)) {
      out[l.target].spath1.insert(SimplePath{pvar, l.sel});
    }
  }
  return out;
}

bool c_spath(const NodeCompatContext& a, const NodeCompatContext& b,
             const LevelPolicy& policy) {
  if (a.spath0 != b.spath0) return false;
  if (!policy.use_spath1()) return true;
  // C_SPATH1: the one-length sets must share at least one simple path —
  // vacuously compatible when both are empty.
  if (a.spath1.empty() && b.spath1.empty()) return true;
  return intersects(a.spath1, b.spath1);
}

bool c_refpat(const NodeProps& a, const NodeProps& b) {
  // "Compatible reference pattern information": each node's definite sets
  // must be covered by the other's definite-or-possible sets. Equality is
  // not required — MERGE_NODES's intersection/possible-set formulas exist
  // precisely to reconcile unequal patterns — but a selector that one node
  // *definitely* has and the other *cannot* have keeps them apart (that is
  // what separates a list's last element, selout={prv}, from its middles,
  // selout={nxt,prv}).
  auto covered = [](const SmallSet<Symbol>& definite,
                    const SmallSet<Symbol>& other_definite,
                    const SmallSet<Symbol>& other_possible) {
    for (const Symbol s : definite) {
      if (!other_definite.contains(s) && !other_possible.contains(s))
        return false;
    }
    return true;
  };
  return covered(a.selin, b.selin, b.pos_selin) &&
         covered(b.selin, a.selin, a.pos_selin) &&
         covered(a.selout, b.selout, b.pos_selout) &&
         covered(b.selout, a.selout, a.pos_selout);
}

namespace {

/// The property comparisons shared by C_NODES and C_NODES_RSG.
bool common_compat(const NodeProps& pa, const NodeCompatContext& ca,
                   const NodeProps& pb, const NodeCompatContext& cb,
                   const LevelPolicy& policy) {
  if (pa.type != pb.type) return false;
  // Freed and live locations never summarize together: a summary node's
  // FREE state must describe every represented location, and mixing would
  // either hide a use-after-free (freed folded into live) or flag every
  // access to the structure (live folded into freed). ALLOCSITES, by
  // contrast, is deliberately *not* compared — it is diagnostic payload.
  if (pa.free_state != pb.free_state) return false;
  if (pa.shared != pb.shared) return false;
  if (pa.shsel != pb.shsel) return false;
  if (policy.use_touch() && pa.touch != pb.touch) return false;
  if (!c_refpat(pa, pb)) return false;
  return c_spath(ca, cb, policy);
}

}  // namespace

bool c_nodes(const NodeProps& pa, const NodeCompatContext& ca,
             const NodeProps& pb, const NodeCompatContext& cb,
             const LevelPolicy& policy) {
  return common_compat(pa, ca, pb, cb, policy);
}

bool c_nodes_rsg(const NodeProps& pa, const NodeCompatContext& ca,
                 const NodeProps& pb, const NodeCompatContext& cb,
                 const LevelPolicy& policy) {
  // STRUCTURE: never summarize nodes of different connected components.
  if (ca.component != cb.component) return false;
  return common_compat(pa, ca, pb, cb, policy);
}

NodeProps merge_node_props(const NodeProps& a,
                           const SmallSet<Symbol>& a_out_sels,
                           const NodeProps& b,
                           const SmallSet<Symbol>& b_out_sels,
                           bool same_configuration) {
  NodeProps out;
  out.type = a.type;

  // Cardinality: two distinct nodes of one configuration always make a
  // summary; across configurations the merged node still denotes one
  // location per configuration when both inputs did.
  if (same_configuration || a.cardinality == Cardinality::kMany ||
      b.cardinality == Cardinality::kMany) {
    out.cardinality = Cardinality::kMany;
  } else {
    out.cardinality = Cardinality::kOne;
  }

  // SHARED/SHSEL merge upward (may-information), TOUCH downward ("visited by
  // p" is definite information about every represented location). Under the
  // compatibility checks the inputs are equal and these reduce to identity;
  // the forced-join widening relies on the conservative directions.
  out.shared = a.shared || b.shared;
  out.shsel = set_union(a.shsel, b.shsel);
  out.touch = set_intersection(a.touch, b.touch);
  // FREE widens to kMaybeFreed on a forced freed/live merge (the compat
  // checks make equal-state merges the common case); ALLOCSITES unions.
  out.free_state = merge_free_states(a.free_state, b.free_state);
  out.alloc_sites = set_union(a.alloc_sites, b.alloc_sites);
  // HAVOC taint sticks: a summary containing any havoc-widened location is
  // itself speculative. Like ALLOCSITES it is not a compatibility criterion,
  // so carrying it never changes which nodes summarize.
  out.havoc = a.havoc || b.havoc;

  // Reference patterns (the paper's MERGE_NODES formulas):
  //   SELINset(n)    = SELINset(n1) ∩ SELINset(n2)
  //   PosSELINset(n) = (SELINset(n1) ∪ SELINset(n2) ∪ PosSELINset(n1)
  //                     ∪ PosSELINset(n2)) \ SELINset(n)
  out.selin = set_intersection(a.selin, b.selin);
  out.selout = set_intersection(a.selout, b.selout);
  out.pos_selin = set_difference(
      set_union(set_union(a.selin, b.selin),
                set_union(a.pos_selin, b.pos_selin)),
      out.selin);
  out.pos_selout = set_difference(
      set_union(set_union(a.selout, b.selout),
                set_union(a.pos_selout, b.pos_selout)),
      out.selout);

  // CYCLELINKS: keep the pairs common to both, plus a pair from one node
  // whose first selector is not a link selector of the other node (then the
  // pair holds vacuously for the other node's locations).
  for (const SelPair cl : a.cyclelinks) {
    if (b.cyclelinks.contains(cl) || !b_out_sels.contains(cl.out))
      out.cyclelinks.insert(cl);
  }
  for (const SelPair cl : b.cyclelinks) {
    if (a.cyclelinks.contains(cl) || !a_out_sels.contains(cl.out))
      out.cyclelinks.insert(cl);
  }

  return out;
}

}  // namespace psa::rsg
