#include "rsg/canon.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "support/hash.hpp"
#include "support/memory_stats.hpp"
#include "support/metrics.hpp"
#include "support/small_vector.hpp"

namespace psa::rsg {

// --- Shared key blocks ---------------------------------------------------------

/// The header of a key's one allocation; the encoding follows it.
struct CanonicalKey::Block {
  std::atomic<std::uint32_t> refs{1};
  std::uint32_t size = 0;
  support::TrackedFootprint footprint;

  [[nodiscard]] const char* data() const noexcept {
    return reinterpret_cast<const char*>(this + 1);
  }
  [[nodiscard]] char* data() noexcept {
    return reinterpret_cast<char*>(this + 1);
  }
};

CanonicalKey::CanonicalKey(std::string_view bytes) {
  const std::size_t total = sizeof(Block) + bytes.size();
  block_ = new (::operator new(total)) Block;
  block_->size = static_cast<std::uint32_t>(bytes.size());
  std::memcpy(block_->data(), bytes.data(), bytes.size());
  block_->footprint.resize(total);
}

CanonicalKey::CanonicalKey(const CanonicalKey& other) noexcept
    : block_(other.block_), hash_(other.hash_) {
  if (block_ != nullptr) ++block_->refs;
}

CanonicalKey::CanonicalKey(CanonicalKey&& other) noexcept
    : block_(std::exchange(other.block_, nullptr)), hash_(other.hash_) {}

CanonicalKey& CanonicalKey::operator=(const CanonicalKey& other) noexcept {
  CanonicalKey copy(other);
  std::swap(block_, copy.block_);
  hash_ = copy.hash_;
  return *this;
}

CanonicalKey& CanonicalKey::operator=(CanonicalKey&& other) noexcept {
  if (this != &other) {
    release(block_);
    block_ = std::exchange(other.block_, nullptr);
    hash_ = other.hash_;
  }
  return *this;
}

CanonicalKey::~CanonicalKey() { release(block_); }

std::string_view CanonicalKey::bytes() const noexcept {
  if (block_ == nullptr) return {};
  return {block_->data(), block_->size};
}

void CanonicalKey::release(Block* block) noexcept {
  if (block == nullptr || --block->refs != 0) return;
  block->~Block();
  ::operator delete(block);
}

// --- Canonical encoding ----------------------------------------------------------

namespace {

/// A colour per node slot.
using Colors = support::SmallVector<std::uint64_t, kScratchNodes>;

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

std::size_t count_classes(const Colors& color, const NodeRefs& refs) {
  Colors sorted;
  sorted.reserve(refs.size());
  for (const NodeRef n : refs) sorted.push_back(color[n]);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

/// Refine `color` (indexed by node slot; `refs` are g's alive nodes) in
/// place until the partition stabilizes.
void refine(const Rsg& g, const NodeRefs& refs, Colors& color) {
  // n rounds suffice for WL refinement on n nodes, but the partition almost
  // always stabilizes after 2-4; stop when the *grouping* stops refining
  // (the hash values themselves change every round by construction), or as
  // soon as it is discrete and nothing is left to refine.
  std::size_t classes = count_classes(color, refs);
  Colors next(color.size(), 0);
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
void encode(const Rsg& g, const NodeRefs& order, const NodeRefs& rank,
            std::string& out) {
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
  // A node's links as (selector id << 32 | target rank): sorting them sorts
  // by selector, then target.
  support::SmallVector<std::uint64_t, 16> links;
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
      links.push_back(std::uint64_t{l.sel.id()} << 32 | rank[l.target]);
    }
    std::sort(links.begin(), links.end());
    w.u(links.size());
    for (const std::uint64_t link : links) {
      w.u(link >> 32);
      w.u(link & 0xffffffffU);
    }
  }
}

/// Individualization-refinement (see the file comment): refine `color`; with
/// no tie left, keep the encoding in `best` if it is the smallest so far;
/// otherwise recurse once per member of the lowest tied cell, that member
/// individualized. `searched` records that some tie was met.
void search(const Rsg& g, const NodeRefs& refs, Colors& color,
            std::string& best, bool& searched) {
  refine(g, refs, color);
  NodeRefs order = refs;
  std::sort(order.begin(), order.end(), [&](NodeRef a, NodeRef b) {
    return color[a] < color[b];
  });
  const auto tie =
      std::adjacent_find(order.begin(), order.end(), [&](NodeRef a, NodeRef b) {
        return color[a] == color[b];
      });
  if (tie == order.end()) {
    NodeRefs rank(g.node_capacity(), kNoNode);
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
    Colors branch = color;
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
  const NodeRefs refs = g.node_refs();
  Colors color(g.node_capacity(), 0);
  for (const NodeRef n : refs) color[n] = initial_color(g, n);

  thread_local std::string best;
  best.clear();
  bool searched = false;
  search(g, refs, color, best, searched);
  if (searched) PSA_COUNT(support::Counter::kCanonFallbacks);
  CanonicalKey key(best);
  key.hash_ = hash_bytes(best);
  return key;
}

}  // namespace psa::rsg
