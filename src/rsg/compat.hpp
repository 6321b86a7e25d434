// Node-compatibility functions (§3.1 and §4 of the paper).
//
//   C_SPATH(n1, n2, m)   m=0: equal zero-length simple-path sets
//                        m=1: additionally the one-length sets must share an
//                             element or both be empty
//   C_REFPAT(n1, n2)     equal definite reference patterns (SELIN/SELOUT)
//   C_NODES(n1, n2)      the *join* compatibility: TYPE, SHARED, SHSEL,
//                        TOUCH, C_REFPAT, C_SPATH (no STRUCTURE — the paper's
//                        C_NODES deliberately omits it)
//   C_NODES_RSG(n1, n2)  the *compress* compatibility: C_NODES plus equal
//                        STRUCTURE (same connected component)
#pragma once

#include "rsg/level.hpp"
#include "rsg/rsg.hpp"

namespace psa::rsg {

/// Pre-computed per-node context so the O(n^2) compatibility sweeps don't
/// recompute derived properties per pair.
struct NodeCompatContext {
  SmallSet<Symbol> spath0;
  SmallSet<SimplePath> spath1;
  NodeRef component = kNoNode;
};

/// One context per node slot of a graph (dead slots hold an empty one).
using CompatContexts = std::vector<NodeCompatContext>;

/// Compute the compatibility context of every alive node of `g`.
[[nodiscard]] CompatContexts compute_compat_contexts(const Rsg& g);

[[nodiscard]] bool c_spath(const NodeCompatContext& a,
                           const NodeCompatContext& b,
                           const LevelPolicy& policy);

[[nodiscard]] bool c_refpat(const NodeProps& a, const NodeProps& b);

/// C_NODES — used by COMPATIBLE / JOIN across two graphs.
[[nodiscard]] bool c_nodes(const NodeProps& pa, const NodeCompatContext& ca,
                           const NodeProps& pb, const NodeCompatContext& cb,
                           const LevelPolicy& policy);

/// C_NODES_RSG — used by COMPRESS within one graph (adds STRUCTURE).
[[nodiscard]] bool c_nodes_rsg(const NodeProps& pa, const NodeCompatContext& ca,
                               const NodeProps& pb, const NodeCompatContext& cb,
                               const LevelPolicy& policy);

/// MERGE_NODES (§3.1): combine the properties of two compatible nodes.
/// `same_configuration` is true when the nodes summarize locations of the
/// same concrete configuration (COMPRESS) — the result is then always a
/// summary; across configurations (JOIN) `one`+`one` stays `one`.
/// The cycle-link rule needs to know which selectors each side has an
/// outgoing link on, so each side's out-selector set (Rsg::out_selectors,
/// or the union over the members already folded into it) comes alongside
/// its properties.
[[nodiscard]] NodeProps merge_node_props(const NodeProps& a,
                                         const SmallSet<Symbol>& a_out_sels,
                                         const NodeProps& b,
                                         const SmallSet<Symbol>& b_out_sels,
                                         bool same_configuration);

}  // namespace psa::rsg
