#include "rsg/rsg.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "support/union_find.hpp"

namespace psa::rsg {

Rsg::Rsg() { support::MemoryStats::instance().note_graph_created(); }

Rsg::Rsg(const Rsg& other)
    : nodes_(other.nodes_),
      alive_count_(other.alive_count_),
      pl_(other.pl_),
      havoc_(other.havoc_) {
  support::MemoryStats::instance().note_graph_created();
  refresh_footprint();
}

Rsg& Rsg::operator=(const Rsg& other) {
  if (this != &other) {
    nodes_ = other.nodes_;
    alive_count_ = other.alive_count_;
    pl_ = other.pl_;
    havoc_ = other.havoc_;
    refresh_footprint();
  }
  return *this;
}

// --- Nodes -------------------------------------------------------------------

NodeRef Rsg::add_node(NodeProps props) {
  nodes_.push_back(Node{true, std::move(props), {}, {}});
  ++alive_count_;
  support::MemoryStats::instance().note_node_created();
  return static_cast<NodeRef>(nodes_.size() - 1);
}

void Rsg::remove_node(NodeRef n) {
  assert(nodes_[n].alive);
  // Detach from neighbours through the mirrored adjacency.
  for (const Link& l : nodes_[n].out) {
    if (l.target == n) continue;
    nodes_[l.target].in.erase_if(
        [n](const InLink& in) { return in.source == n; });
  }
  for (const InLink& in : nodes_[n].in) {
    if (in.source == n) continue;
    nodes_[in.source].out.erase_if([n](const Link& l) { return l.target == n; });
  }
  nodes_[n].alive = false;
  nodes_[n].out.clear();
  nodes_[n].in.clear();
  --alive_count_;
  std::erase_if(pl_, [n](const auto& p) { return p.second == n; });
}

NodeRefs Rsg::node_refs() const {
  NodeRefs out;
  out.reserve(alive_count_);
  for (NodeRef i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].alive) out.push_back(i);
  return out;
}

// --- PL ------------------------------------------------------------------------

void Rsg::bind_pvar(Symbol pvar, NodeRef n) {
  assert(nodes_[n].alive);
  auto it = std::lower_bound(
      pl_.begin(), pl_.end(), pvar,
      [](const auto& p, Symbol s) { return p.first < s; });
  if (it != pl_.end() && it->first == pvar) {
    it->second = n;
  } else {
    pl_.insert(it, {pvar, n});
  }
}

void Rsg::unbind_pvar(Symbol pvar) {
  std::erase_if(pl_, [pvar](const auto& p) { return p.first == pvar; });
}

NodeRef Rsg::pvar_target(Symbol pvar) const {
  auto it = std::lower_bound(
      pl_.begin(), pl_.end(), pvar,
      [](const auto& p, Symbol s) { return p.first < s; });
  if (it != pl_.end() && it->first == pvar) return it->second;
  return kNoNode;
}

SmallSet<Symbol> Rsg::pvars_of(NodeRef n) const {
  SmallSet<Symbol> out;
  for (const auto& [pvar, target] : pl_)
    if (target == n) out.insert(pvar);
  return out;
}

// --- NL ------------------------------------------------------------------------

bool Rsg::add_link(NodeRef from, Symbol sel, NodeRef to) {
  assert(nodes_[from].alive && nodes_[to].alive);
  auto& out = nodes_[from].out;
  const Link link{sel, to};
  auto it = std::lower_bound(out.begin(), out.end(), link);
  if (it != out.end() && *it == link) return false;
  out.insert(it, link);
  auto& in = nodes_[to].in;
  const InLink inlink{from, sel};
  in.insert(std::lower_bound(in.begin(), in.end(), inlink), inlink);
  return true;
}

bool Rsg::remove_link(NodeRef from, Symbol sel, NodeRef to) {
  auto& out = nodes_[from].out;
  const Link link{sel, to};
  auto it = std::lower_bound(out.begin(), out.end(), link);
  if (it == out.end() || !(*it == link)) return false;
  out.erase(it);
  auto& in = nodes_[to].in;
  const InLink inlink{from, sel};
  auto iit = std::lower_bound(in.begin(), in.end(), inlink);
  assert(iit != in.end() && *iit == inlink);
  in.erase(iit);
  return true;
}

bool Rsg::has_link(NodeRef from, Symbol sel, NodeRef to) const {
  const auto& out = nodes_[from].out;
  const Link link{sel, to};
  return std::binary_search(out.begin(), out.end(), link);
}

NodeRefs Rsg::sel_targets(NodeRef from, Symbol sel) const {
  NodeRefs out;
  for (const Link& l : nodes_[from].out)
    if (l.sel == sel) out.push_back(l.target);
  return out;
}

std::size_t Rsg::link_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_)
    if (node.alive) n += node.out.size();
  return n;
}

// --- Derived -------------------------------------------------------------------

NodeRefs Rsg::components() const {
  // Union-find over undirected link adjacency.
  support::UnionFind uf(nodes_.size());
  for (NodeRef i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].alive) continue;
    for (const Link& l : nodes_[i].out) uf.unite(i, l.target);
  }
  NodeRefs comp(nodes_.size(), kNoNode);
  for (NodeRef i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].alive) comp[i] = static_cast<NodeRef>(uf.find(i));
  return comp;
}

NodeFlags Rsg::reachable_from(std::span<const NodeRef> roots) const {
  NodeFlags seen(nodes_.size(), false);
  NodeRefs work;
  for (const NodeRef r : roots) {
    if (!seen[r]) {
      seen[r] = true;
      work.push_back(r);
    }
  }
  while (!work.empty()) {
    const NodeRef n = work.back();
    work.pop_back();
    for (const Link& l : nodes_[n].out) {
      if (!seen[l.target]) {
        seen[l.target] = true;
        work.push_back(l.target);
      }
    }
  }
  return seen;
}

NodeFlags Rsg::reachable_from_pvars() const {
  NodeRefs roots;
  roots.reserve(pl_.size());
  for (const auto& [pvar, n] : pl_) roots.push_back(n);
  return reachable_from(roots);
}

SmallSet<Symbol> Rsg::out_selectors(NodeRef n) const {
  SmallSet<Symbol> out;
  for (const Link& l : nodes_[n].out) out.insert(l.sel);
  return out;
}

int Rsg::max_in_refs(NodeRef to, Symbol sel) const {
  int refs = 0;
  for (const InLink& in : nodes_[to].in) {
    if (in.sel != sel) continue;
    refs += nodes_[in.source].props.cardinality == Cardinality::kOne ? 1 : 2;
    if (refs >= 2) break;
  }
  return std::min(refs, 2);
}

int Rsg::max_in_refs_total(NodeRef to) const {
  int refs = 0;
  for (const InLink& in : nodes_[to].in) {
    refs += nodes_[in.source].props.cardinality == Cardinality::kOne ? 1 : 2;
    if (refs >= 2) break;
  }
  return std::min(refs, 2);
}

bool Rsg::definite_link(NodeRef from, Symbol sel, NodeRef to) const {
  if (nodes_[from].props.cardinality != Cardinality::kOne) return false;
  if (!nodes_[from].props.selout.contains(sel)) return false;
  const auto targets = sel_targets(from, sel);
  return targets.size() == 1 && targets[0] == to;
}

// --- Maintenance -----------------------------------------------------------------

bool Rsg::gc() {
  const auto seen = reachable_from_pvars();

  // Reference-pattern maintenance: links between garbage and live nodes
  // vanish with the garbage, but the *references they stood for* were real.
  // A definite SELIN/SELOUT that loses its last witnessing link must be
  // demoted to the possible set, otherwise a later PRUNE would declare the
  // graph infeasible over a reference that merely became untracked.
  std::vector<std::pair<NodeRef, Symbol>> lost_in;   // live target, sel
  std::vector<std::pair<NodeRef, Symbol>> lost_out;  // live source, sel
  for (NodeRef i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].alive || seen[i]) continue;
    for (const Link& l : nodes_[i].out) {
      if (seen[l.target]) lost_in.emplace_back(l.target, l.sel);
    }
    for (const InLink& in : nodes_[i].in) {
      if (seen[in.source]) lost_out.emplace_back(in.source, in.sel);
    }
  }

  bool changed = false;
  for (NodeRef i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive && !seen[i]) {
      remove_node(i);
      changed = true;
    }
  }

  for (const auto& [t, sel] : lost_in) {
    if (!nodes_[t].props.selin.contains(sel)) continue;
    bool still_witnessed = false;
    for (const InLink& in : nodes_[t].in) {
      if (in.sel == sel) {
        still_witnessed = true;
        break;
      }
    }
    if (!still_witnessed) {
      nodes_[t].props.selin.erase(sel);
      nodes_[t].props.pos_selin.insert(sel);
    }
  }
  for (const auto& [s, sel] : lost_out) {
    if (!nodes_[s].props.selout.contains(sel)) continue;
    bool still_witnessed = false;
    for (const Link& l : nodes_[s].out) {
      if (l.sel == sel) {
        still_witnessed = true;
        break;
      }
    }
    if (!still_witnessed) {
      nodes_[s].props.selout.erase(sel);
      nodes_[s].props.pos_selout.insert(sel);
    }
  }
  return changed;
}

void Rsg::compact() {
  NodeRefs remap(nodes_.size(), kNoNode);
  std::vector<Node> packed;
  packed.reserve(alive_count_);
  for (NodeRef i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].alive) continue;
    remap[i] = static_cast<NodeRef>(packed.size());
    packed.push_back(std::move(nodes_[i]));
  }
  for (auto& node : packed) {
    for (auto& l : node.out) l.target = remap[l.target];
    for (auto& in : node.in) in.source = remap[in.source];
    std::sort(node.out.begin(), node.out.end());
    std::sort(node.in.begin(), node.in.end());
  }
  for (auto& [pvar, n] : pl_) n = remap[n];
  nodes_ = std::move(packed);
}

std::size_t Rsg::footprint_bytes() const {
  std::size_t bytes = sizeof(Rsg) + pl_.size() * sizeof(pl_[0]);
  for (const auto& node : nodes_) {
    if (!node.alive) continue;
    bytes += node.props.footprint_bytes() + node.out.size() * sizeof(Link) +
             node.in.size() * sizeof(InLink);
  }
  return bytes;
}

void Rsg::refresh_footprint() { footprint_.resize(footprint_bytes()); }

std::string Rsg::dump(const support::Interner& in) const {
  std::ostringstream os;
  for (const auto& [pvar, n] : pl_)
    os << in.spelling(pvar) << " -> n" << n << '\n';
  for (NodeRef i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].alive) continue;
    const NodeProps& p = nodes_[i].props;
    os << 'n' << i << " [card="
       << (p.cardinality == Cardinality::kOne ? "one" : "many")
       << " shared=" << (p.shared ? 'T' : 'F');
    if (!p.shsel.empty()) {
      os << " shsel={";
      for (Symbol s : p.shsel) os << in.spelling(s) << ' ';
      os << '}';
    }
    auto put_set = [&](const char* name, const SmallSet<Symbol>& set) {
      if (set.empty()) return;
      os << ' ' << name << "={";
      for (Symbol s : set) os << in.spelling(s) << ' ';
      os << '}';
    };
    put_set("selin", p.selin);
    put_set("selout", p.selout);
    put_set("pselin", p.pos_selin);
    put_set("pselout", p.pos_selout);
    put_set("touch", p.touch);
    if (!p.cyclelinks.empty()) {
      os << " cl={";
      for (SelPair cl : p.cyclelinks)
        os << '<' << in.spelling(cl.out) << ',' << in.spelling(cl.back) << "> ";
      os << '}';
    }
    if (p.free_state != FreeState::kLive) {
      os << " freed="
         << (p.free_state == FreeState::kFreed ? "yes" : "maybe");
    }
    if (!p.alloc_sites.empty()) {
      os << " alloc={";
      for (const std::uint32_t line : p.alloc_sites) os << line << ' ';
      os << '}';
    }
    os << "]\n";
    for (const Link& l : nodes_[i].out)
      os << "  n" << i << " -" << in.spelling(l.sel) << "-> n" << l.target
         << '\n';
  }
  return os.str();
}

}  // namespace psa::rsg
