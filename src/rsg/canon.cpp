#include "rsg/canon.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "support/hash.hpp"
#include "support/metrics.hpp"

namespace psa::rsg {

namespace {

using support::hash_accumulate_unordered;
using support::hash_combine;
using support::hash_value;
using support::mix64;

std::uint64_t initial_color(const Rsg& g, NodeRef n) {
  std::uint64_t h = g.props(n).hash();
  // The zero-length SPATH (which pvars point here) is part of the identity.
  h = hash_combine(h, g.spath0(n).hash([](Symbol s) {
    return hash_value(s.id());
  }));
  return h;
}

std::size_t count_classes(const std::vector<std::uint64_t>& color,
                          const std::vector<NodeRef>& refs) {
  std::vector<std::uint64_t> sorted;
  sorted.reserve(refs.size());
  for (const NodeRef n : refs) sorted.push_back(color[n]);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// Iteratively refine node colors until the partition stabilizes; returns
/// final colors indexed by node slot. `refs` are g's alive nodes.
std::vector<std::uint64_t> refine_colors(const Rsg& g,
                                         const std::vector<NodeRef>& refs) {
  std::vector<std::uint64_t> color(g.node_capacity(), 0);
  for (const NodeRef n : refs) color[n] = initial_color(g, n);

  // n rounds suffice for WL refinement on n nodes, but the partition almost
  // always stabilizes after 2-4; stop when the *grouping* stops refining
  // (the hash values themselves change every round by construction), or as
  // soon as it is discrete and nothing is left to refine.
  std::size_t classes = count_classes(color, refs);
  std::vector<std::uint64_t> next(color.size(), 0);
  for (std::size_t round = 0; round < refs.size() && classes < refs.size();
       ++round) {
    for (const NodeRef n : refs) {
      std::uint64_t out_acc = 0x0ddba11;
      for (const Link& l : g.out_links(n)) {
        out_acc = hash_accumulate_unordered(
            out_acc, hash_combine(hash_value(l.sel.id()), color[l.target]));
      }
      std::uint64_t in_acc = 0x5ca1ab1e;
      for (const InLink& in : g.in_links(n)) {
        in_acc = hash_accumulate_unordered(
            in_acc, hash_combine(hash_value(in.sel.id()), color[in.source]));
      }
      next[n] = hash_combine(hash_combine(color[n], out_acc), in_acc);
    }
    color.swap(next);
    const std::size_t next_classes = count_classes(color, refs);
    if (next_classes == classes) break;  // partition stable
    classes = next_classes;
  }
  return color;
}

std::uint64_t fingerprint_of(const Rsg& g, const std::vector<NodeRef>& refs,
                             const std::vector<std::uint64_t>& color) {
  // Graph-level salvage taint is part of the identity: a tainted
  // configuration never dedups against its untainted twin (the taint would
  // silently vanish from the set).
  std::uint64_t h = hash_combine(0x9e3779b9, hash_value(g.havoc() ? 1 : 0));
  for (const NodeRef n : refs)
    h = hash_accumulate_unordered(h, mix64(color[n]));
  for (const auto& [pvar, n] : g.pvar_links())
    h = hash_accumulate_unordered(
        h, hash_combine(hash_value(pvar.id()), color[n]));
  return h;
}

/// LEB128 writer for the canonical encoding; every list is length-prefixed
/// so no two graphs share an encoding.
class KeyWriter {
 public:
  explicit KeyWriter(std::string& out) : out_(out) {}

  void u(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(v));
  }
  void symbols(const SmallSet<Symbol>& set) {
    u(set.size());
    for (const Symbol s : set) u(s.id());
  }

 private:
  std::string& out_;
};

/// Encode a graph whose nodes are ranked canonically (`rank` by slot,
/// `order` by rank).
void encode(const Rsg& g, const std::vector<NodeRef>& order,
            const std::vector<NodeRef>& rank, std::string& out) {
  KeyWriter w(out);
  w.u(g.havoc() ? 1 : 0);
  w.u(order.size());
  w.u(g.pvar_links().size());
  for (const auto& [pvar, n] : g.pvar_links()) {  // sorted by pvar
    w.u(pvar.id());
    w.u(rank[n]);
  }
  std::vector<std::pair<std::uint32_t, NodeRef>> links;
  for (const NodeRef n : order) {
    const NodeProps& p = g.props(n);
    w.u(lang::raw(p.type));
    w.u(static_cast<std::uint64_t>(p.cardinality));
    w.u(p.shared ? 1 : 0);
    w.u(static_cast<std::uint64_t>(p.free_state));
    w.u(p.havoc ? 1 : 0);
    w.symbols(p.shsel);
    w.symbols(p.selin);
    w.symbols(p.selout);
    w.symbols(p.pos_selin);
    w.symbols(p.pos_selout);
    w.u(p.cyclelinks.size());
    for (const SelPair pair : p.cyclelinks) {
      w.u(pair.out.id());
      w.u(pair.back.id());
    }
    w.symbols(p.touch);
    w.u(p.alloc_sites.size());
    for (const std::uint32_t line : p.alloc_sites) w.u(line);

    links.clear();
    for (const Link& l : g.out_links(n)) {
      links.emplace_back(l.sel.id(), rank[l.target]);
    }
    std::sort(links.begin(), links.end());
    w.u(links.size());
    for (const auto& [sel, target] : links) {
      w.u(sel);
      w.u(target);
    }
  }
}

std::uint64_t hash_bytes(std::string_view bytes) {
  std::uint64_t h = hash_value(bytes.size());
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= bytes.size();
       i += sizeof(std::uint64_t)) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, sizeof word);
    h = hash_combine(h, word);
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return hash_combine(h, tail);
}

}  // namespace

CanonicalKey canonical_key(const Rsg& g) {
  const std::vector<NodeRef> refs = g.node_refs();
  const std::vector<std::uint64_t> color = refine_colors(g, refs);

  std::vector<NodeRef> order = refs;
  std::sort(order.begin(), order.end(), [&](NodeRef a, NodeRef b) {
    return color[a] < color[b];
  });
  const bool discrete =
      std::adjacent_find(order.begin(), order.end(), [&](NodeRef a, NodeRef b) {
        return color[a] == color[b];
      }) == order.end();

  CanonicalKey key;
  if (!discrete) {
    PSA_COUNT(support::Counter::kCanonFallbacks);
    key.hash_ = fingerprint_of(g, refs, color);
    key.footprint_.resize(sizeof(CanonicalKey));
    return key;
  }
  std::vector<NodeRef> rank(g.node_capacity(), kNoNode);
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<NodeRef>(i);
  }
  thread_local std::string encoded;
  encoded.clear();
  encode(g, order, rank, encoded);
  key.bytes_.assign(encoded);
  key.hash_ = hash_bytes(key.bytes_);
  key.exact_ = true;
  key.footprint_.resize(sizeof(CanonicalKey) + key.bytes_.size());
  return key;
}

bool same_graph(const CanonicalKey& ka, const Rsg& a, const CanonicalKey& kb,
                const Rsg& b) {
  return ka == kb && (ka.exact() || rsg_equal(a, b));
}

std::uint64_t fingerprint(const Rsg& g) {
  const std::vector<NodeRef> refs = g.node_refs();
  return fingerprint_of(g, refs, refine_colors(g, refs));
}

namespace {

/// Backtracking isomorphism: map a's nodes onto b's within color classes.
class IsoMatcher {
 public:
  IsoMatcher(const Rsg& a, const Rsg& b) : a_(a), b_(b) {
    refs_a_ = a.node_refs();
    colors_a_ = refine_colors(a, refs_a_);
    colors_b_ = refine_colors(b, b.node_refs());
    map_.assign(a.node_capacity(), kNoNode);
    used_.assign(b.node_capacity(), false);
  }

  bool run() { return extend(0); }

 private:
  bool extend(std::size_t idx) {
    if (idx == refs_a_.size()) return check_full();
    const NodeRef na = refs_a_[idx];
    for (const NodeRef nb : b_.node_refs()) {
      if (used_[nb] || colors_a_[na] != colors_b_[nb]) continue;
      if (!locally_consistent(na, nb)) continue;
      map_[na] = nb;
      used_[nb] = true;
      if (extend(idx + 1)) return true;
      used_[nb] = false;
      map_[na] = kNoNode;
    }
    return false;
  }

  /// Check properties + links to already-mapped nodes.
  bool locally_consistent(NodeRef na, NodeRef nb) {
    if (!(a_.props(na) == b_.props(nb))) return false;
    if (a_.out_links(na).size() != b_.out_links(nb).size()) return false;
    if (a_.spath0(na) != b_.spath0(nb)) return false;
    for (const Link& l : a_.out_links(na)) {
      const NodeRef mt = map_[l.target];
      if (mt != kNoNode && !b_.has_link(nb, l.sel, mt)) return false;
    }
    for (const InLink& in : a_.in_links(na)) {
      const NodeRef ms = map_[in.source];
      if (ms != kNoNode && !b_.has_link(ms, in.sel, nb)) return false;
    }
    return true;
  }

  /// Full verification of links and PL under the completed mapping.
  bool check_full() {
    for (const NodeRef na : refs_a_) {
      for (const Link& l : a_.out_links(na)) {
        if (!b_.has_link(map_[na], l.sel, map_[l.target])) return false;
      }
    }
    if (a_.link_count() != b_.link_count()) return false;
    for (const auto& [pvar, n] : a_.pvar_links()) {
      if (b_.pvar_target(pvar) != map_[n]) return false;
    }
    return true;
  }

  const Rsg& a_;
  const Rsg& b_;
  std::vector<std::uint64_t> colors_a_;
  std::vector<std::uint64_t> colors_b_;
  std::vector<NodeRef> refs_a_;
  std::vector<NodeRef> map_;
  std::vector<bool> used_;
};

}  // namespace

bool rsg_equal(const Rsg& a, const Rsg& b) {
  if (a.havoc() != b.havoc()) return false;
  if (a.node_count() != b.node_count()) return false;
  if (a.link_count() != b.link_count()) return false;
  if (a.pvar_links().size() != b.pvar_links().size()) return false;
  for (std::size_t i = 0; i < a.pvar_links().size(); ++i) {
    if (a.pvar_links()[i].first != b.pvar_links()[i].first) return false;
  }
  IsoMatcher matcher(a, b);
  return matcher.run();
}

}  // namespace psa::rsg
