#include "client/queries.hpp"

#include <algorithm>

namespace psa::client {

using rsg::Cardinality;
using rsg::kNoNode;
using rsg::NodeRef;
using rsg::Rsg;

std::optional<lang::StructId> struct_id(const ProgramAnalysis& program,
                                        std::string_view struct_name) {
  const Symbol sym = program.unit.interner->lookup(struct_name);
  if (!sym.valid()) return std::nullopt;
  return program.unit.types.find_struct(sym);
}

bool may_be_shared_via(const ProgramAnalysis& program, const Rsrsg& set,
                       std::string_view struct_name, std::string_view sel) {
  const auto sid = struct_id(program, struct_name);
  const Symbol sel_sym = program.unit.interner->lookup(sel);
  if (!sid || !sel_sym.valid()) return false;
  for (const Rsg& g : set.graphs()) {
    for (const NodeRef n : g.node_refs()) {
      if (g.props(n).type == *sid && g.props(n).shsel.contains(sel_sym))
        return true;
    }
  }
  return false;
}

bool may_be_shared(const ProgramAnalysis& program, const Rsrsg& set,
                   std::string_view struct_name) {
  const auto sid = struct_id(program, struct_name);
  if (!sid) return false;
  for (const Rsg& g : set.graphs()) {
    for (const NodeRef n : g.node_refs()) {
      if (g.props(n).type == *sid && g.props(n).shared) return true;
    }
  }
  return false;
}

bool may_alias(const ProgramAnalysis& program, const Rsrsg& set,
               std::string_view a, std::string_view b) {
  const Symbol sa = program.unit.interner->lookup(a);
  const Symbol sb = program.unit.interner->lookup(b);
  if (!sa.valid() || !sb.valid()) return false;
  for (const Rsg& g : set.graphs()) {
    const NodeRef na = g.pvar_target(sa);
    if (na != kNoNode && na == g.pvar_target(sb)) return true;
  }
  return false;
}

bool may_be_null(const ProgramAnalysis& program, const Rsrsg& set,
                 std::string_view pvar) {
  const Symbol sym = program.unit.interner->lookup(pvar);
  if (!sym.valid()) return true;
  for (const Rsg& g : set.graphs()) {
    if (g.pvar_target(sym) == kNoNode) return true;
  }
  return set.empty();
}

namespace {

/// Node set named by an access path "pvar(->sel)*" in one graph: start at
/// the pvar's node and fan out through each selector step over may-links.
std::vector<NodeRef> path_roots(const ProgramAnalysis& program, const Rsg& g,
                                std::string_view path) {
  std::string_view rest = path;
  const auto next_component = [&rest]() {
    const auto arrow = rest.find("->");
    std::string_view head = rest;
    if (arrow == std::string_view::npos) {
      rest = {};
    } else {
      head = rest.substr(0, arrow);
      rest = rest.substr(arrow + 2);
    }
    return head;
  };

  const Symbol pvar_sym = program.unit.interner->lookup(next_component());
  if (!pvar_sym.valid()) return {};
  const NodeRef base = g.pvar_target(pvar_sym);
  if (base == rsg::kNoNode) return {};

  std::vector<NodeRef> frontier{base};
  while (!rest.empty()) {
    const Symbol sel_sym = program.unit.interner->lookup(next_component());
    if (!sel_sym.valid()) return {};
    std::vector<NodeRef> next;
    for (const NodeRef n : frontier) {
      for (const NodeRef t : g.sel_targets(n, sel_sym)) {
        if (std::find(next.begin(), next.end(), t) == next.end())
          next.push_back(t);
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

}  // namespace

bool regions_may_overlap(const ProgramAnalysis& program, const Rsrsg& set,
                         std::string_view path_a, std::string_view path_b) {
  for (const Rsg& g : set.graphs()) {
    const auto roots_a = path_roots(program, g, path_a);
    const auto roots_b = path_roots(program, g, path_b);
    if (roots_a.empty() || roots_b.empty()) continue;
    const auto seen_a = g.reachable_from(roots_a);
    const auto seen_b = g.reachable_from(roots_b);
    for (std::size_t i = 0; i < seen_a.size(); ++i) {
      if (seen_a[i] && seen_b[i]) return true;
    }
  }
  return false;
}

bool paths_may_alias(const ProgramAnalysis& program, const Rsrsg& set,
                     std::string_view path_a, std::string_view path_b) {
  for (const Rsg& g : set.graphs()) {
    const auto roots_a = path_roots(program, g, path_a);
    const auto roots_b = path_roots(program, g, path_b);
    for (const NodeRef a : roots_a) {
      for (const NodeRef b : roots_b) {
        if (a == b) return true;
      }
    }
  }
  return false;
}

std::string_view to_string(StructureKind kind) {
  switch (kind) {
    case StructureKind::kUnreachable: return "unreachable";
    case StructureKind::kAcyclicList: return "acyclic list";
    case StructureKind::kTree: return "tree";
    case StructureKind::kDag: return "dag";
    case StructureKind::kCyclic: return "possibly cyclic";
  }
  return "?";
}

namespace {

/// Does the subgraph reachable from `root` contain a directed cycle made of
/// links that are not paired by a CYCLELINK of their source (a cycle-link
/// pair is a structural back-pointer, e.g. a doubly-linked list's prv)?
bool has_unexplained_cycle(const Rsg& g, NodeRef root) {
  // Iterative DFS with colors over the filtered link relation.
  std::vector<std::uint8_t> color(g.node_capacity(), 0);  // 0 new 1 open 2 done
  struct Frame {
    NodeRef node;
    std::size_t next_link = 0;
  };
  std::vector<Frame> stack{{root, 0}};
  color[root] = 1;
  auto filtered = [&](NodeRef n) {
    std::vector<rsg::Link> out;
    for (const rsg::Link& l : g.out_links(n)) {
      bool is_backpointer = false;
      // A link n -sel-> t is a back-pointer when some cycle link <s, sel> of
      // t routes it back (t.s went forward, our sel returns).
      for (const rsg::SelPair cl : g.props(l.target).cyclelinks) {
        if (cl.back == l.sel && g.has_link(l.target, cl.out, n)) {
          is_backpointer = true;
          break;
        }
      }
      // Equally, <sel, s> on n marks sel as the forward half of a pair; a
      // pure back-edge is one whose forward partner exists on the target.
      if (!is_backpointer) out.push_back(l);
    }
    return out;
  };

  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto links = filtered(f.node);
    if (f.next_link < links.size()) {
      const NodeRef t = links[f.next_link++].target;
      // A summary self-link represents a chain of distinct locations, not a
      // cycle, unless SHSEL says the selector may share.
      if (t == f.node && g.props(f.node).cardinality == Cardinality::kMany) {
        const Symbol sel = links[f.next_link - 1].sel;
        if (!g.props(f.node).shsel.contains(sel)) continue;
      }
      if (color[t] == 1) return true;
      if (color[t] == 0) {
        color[t] = 1;
        stack.push_back(Frame{t, 0});
      }
    } else {
      color[f.node] = 2;
      stack.pop_back();
    }
  }
  return false;
}

StructureKind classify_one(const Rsg& g, NodeRef root) {
  // Reachable subgraph from root.
  const NodeRef roots[] = {root};
  const auto reach = g.reachable_from(roots);

  bool any_sharing = false;
  bool list_shaped = true;
  for (NodeRef n = 0; n < reach.size(); ++n) {
    if (!reach[n]) continue;
    const auto& p = g.props(n);
    // Sharing not explained by a cycle-link back-pointer counts. A selector
    // that is the returning half of a cycle-link pair (e.g. a DLL's prv) is
    // structural, not cross-path aliasing.
    auto is_backpointer_sel = [&](Symbol s) {
      for (const rsg::SelPair cl : p.cyclelinks) {
        if (cl.back == s) return true;
      }
      return false;
    };
    for (const Symbol s : p.shsel) {
      if (!is_backpointer_sel(s)) any_sharing = true;
    }
    if (p.shared && p.shsel.empty() && p.cyclelinks.empty()) any_sharing = true;

    // "List-shaped": at most one *forward* out-selector per node (links
    // whose selector returns along a cycle-link pair of the target are
    // back-pointers and do not count).
    support::SmallSet<Symbol> forward_sels;
    for (const rsg::Link& l : g.out_links(n)) {
      bool backpointer = false;
      for (const rsg::SelPair cl : g.props(l.target).cyclelinks) {
        if (cl.back == l.sel && g.has_link(l.target, cl.out, n)) {
          backpointer = true;
          break;
        }
      }
      if (!backpointer) forward_sels.insert(l.sel);
    }
    if (forward_sels.size() > 1) list_shaped = false;
  }

  if (has_unexplained_cycle(g, root)) return StructureKind::kCyclic;
  if (any_sharing) return StructureKind::kDag;
  if (list_shaped) return StructureKind::kAcyclicList;
  return StructureKind::kTree;
}

}  // namespace

StructureKind classify_structure(const ProgramAnalysis& program,
                                 const Rsrsg& set, std::string_view pvar) {
  const Symbol sym = program.unit.interner->lookup(pvar);
  if (!sym.valid()) return StructureKind::kUnreachable;

  StructureKind worst = StructureKind::kUnreachable;
  for (const Rsg& g : set.graphs()) {
    const NodeRef root = g.pvar_target(sym);
    if (root == kNoNode) continue;
    const StructureKind k = classify_one(g, root);
    if (static_cast<int>(k) > static_cast<int>(worst)) worst = k;
  }
  return worst;
}

SetStats stats(const Rsrsg& set) {
  SetStats s;
  s.graphs = set.size();
  s.bytes = set.footprint_bytes();
  for (const Rsg& g : set.graphs()) {
    s.nodes += g.node_count();
    s.links += g.link_count();
  }
  return s;
}

}  // namespace psa::client
