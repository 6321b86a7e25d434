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

/// Refine `color` (indexed by node slot; `refs` are g's alive nodes) in
/// place until the partition stabilizes.
void refine(const Rsg& g, const std::vector<NodeRef>& refs,
            std::vector<std::uint64_t>& color) {
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
  // Graph-level salvage taint is part of the identity: a tainted
  // configuration never dedups against its untainted twin (the taint would
  // silently vanish from the set).
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

/// Individualization-refinement (see the file comment): refine `color`; with
/// no tie left, keep the encoding in `best` if it is the smallest so far;
/// otherwise recurse once per member of the lowest tied cell, that member
/// individualized. `searched` records that some tie was met.
void search(const Rsg& g, const std::vector<NodeRef>& refs,
            std::vector<std::uint64_t>& color, std::string& best,
            bool& searched) {
  refine(g, refs, color);
  std::vector<NodeRef> order = refs;
  std::sort(order.begin(), order.end(), [&](NodeRef a, NodeRef b) {
    return color[a] < color[b];
  });
  const auto tie =
      std::adjacent_find(order.begin(), order.end(), [&](NodeRef a, NodeRef b) {
        return color[a] == color[b];
      });
  if (tie == order.end()) {
    std::vector<NodeRef> rank(g.node_capacity(), kNoNode);
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank[order[i]] = static_cast<NodeRef>(i);
    }
    thread_local std::string encoded;
    encoded.clear();
    encode(g, order, rank, encoded);
    if (best.empty() || encoded < best) best.assign(encoded);
    return;
  }
  searched = true;
  const std::uint64_t cell = color[*tie];
  const std::uint64_t individual = hash_combine(cell, 0x1d1d1d1d);
  for (auto it = tie; it != order.end() && color[*it] == cell; ++it) {
    std::vector<std::uint64_t> branch = color;
    branch[*it] = individual;
    search(g, refs, branch, best, searched);
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
  std::vector<std::uint64_t> color(g.node_capacity(), 0);
  for (const NodeRef n : refs) color[n] = initial_color(g, n);

  CanonicalKey key;
  bool searched = false;
  search(g, refs, color, key.bytes_, searched);
  if (searched) PSA_COUNT(support::Counter::kCanonFallbacks);
  key.hash_ = hash_bytes(key.bytes_);
  key.footprint_.resize(sizeof(CanonicalKey) + key.bytes_.size());
  return key;
}

}  // namespace psa::rsg
