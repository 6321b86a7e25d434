// Shared test helper: per-statement state digests, the differential gate
// for kernel changes.
//
// One digest per CFG node summarizes the RSRSG the fixpoint left there: an
// order-free hash over the members plus the widened flag. A member's hash
// comes from its own Weisfeiler-Lehman colour refinement, seeded with hashes
// of symbol *spellings* (struct names for TYPE, selector and pvar names), so
// a frontend change that reorders interning leaves every digest alone.
//
// The digest deliberately shares no code with the analyzer's own graph
// identity (rsg/canon.hpp): it is the reference a change to that code is
// checked against, so it uses nothing but support::hash_combine and mix64.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/engine.hpp"
#include "lang/types.hpp"
#include "rsg/rsg.hpp"
#include "support/hash.hpp"
#include "support/interner.hpp"

namespace psa::testing {

class StateDigester {
 public:
  StateDigester(const support::Interner& interner,
                const lang::TypeTable& types)
      : interner_(interner), types_(types) {}

  /// One digest per CFG node of `result`, indexed by node id.
  [[nodiscard]] std::vector<std::uint64_t> digest(
      const analysis::AnalysisResult& result) {
    std::vector<std::uint64_t> out;
    out.reserve(result.per_node.size());
    for (const analysis::Rsrsg& set : result.per_node) {
      out.push_back(digest(set));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t digest(const analysis::Rsrsg& set) {
    std::vector<std::uint64_t> members;
    members.reserve(set.size());
    for (const rsg::Rsg& g : set.graphs()) members.push_back(digest(g));
    std::uint64_t h = support::hash_combine(set.widened() ? 0x3d : 0x1f,
                                            set.size());
    return fold_sorted(h, members);
  }

  [[nodiscard]] std::uint64_t digest(const rsg::Rsg& g) {
    const rsg::NodeRefs alive = g.node_refs();
    const std::vector<rsg::NodeRef> refs(alive.begin(), alive.end());
    std::vector<std::uint64_t> color(g.node_capacity(), 0);
    for (const rsg::NodeRef n : refs) color[n] = node_seed(g, n);

    std::size_t classes = count_classes(color, refs);
    std::vector<std::uint64_t> next(color.size(), 0);
    std::vector<std::uint64_t> hashes;
    for (std::size_t round = 0; round < refs.size(); ++round) {
      for (const rsg::NodeRef n : refs) {
        hashes.clear();
        for (const rsg::Link& l : g.out_links(n)) {
          hashes.push_back(
              support::hash_combine(symbol(l.sel), color[l.target]));
        }
        const std::uint64_t out = fold_sorted(0x0f, hashes);
        hashes.clear();
        for (const rsg::InLink& in : g.in_links(n)) {
          hashes.push_back(
              support::hash_combine(symbol(in.sel), color[in.source]));
        }
        const std::uint64_t in = fold_sorted(0x1e, hashes);
        next[n] = support::hash_combine(support::hash_combine(color[n], out),
                                        in);
      }
      color.swap(next);
      const std::size_t now = count_classes(color, refs);
      if (now == classes) break;
      classes = now;
    }

    hashes.clear();
    for (const rsg::NodeRef n : refs) hashes.push_back(color[n]);
    std::uint64_t h = support::hash_combine(g.havoc() ? 0x2b : 0x2c,
                                            refs.size());
    h = fold_sorted(h, hashes);
    hashes.clear();
    for (const auto& [pvar, n] : g.pvar_links()) {
      hashes.push_back(support::hash_combine(symbol(pvar), color[n]));
    }
    return fold_sorted(h, hashes);
  }

 private:
  /// Sort, then fold order-sensitively: the multiset's hash.
  static std::uint64_t fold_sorted(std::uint64_t seed,
                                   std::vector<std::uint64_t>& values) {
    std::sort(values.begin(), values.end());
    for (const std::uint64_t v : values) seed = support::hash_combine(seed, v);
    return support::hash_combine(seed, values.size());
  }

  static std::size_t count_classes(const std::vector<std::uint64_t>& color,
                                   const std::vector<rsg::NodeRef>& refs) {
    std::vector<std::uint64_t> seen;
    seen.reserve(refs.size());
    for (const rsg::NodeRef n : refs) seen.push_back(color[n]);
    std::sort(seen.begin(), seen.end());
    return static_cast<std::size_t>(
        std::unique(seen.begin(), seen.end()) - seen.begin());
  }

  static std::uint64_t spelling(std::string_view s) {
    std::uint64_t h = support::mix64(s.size());
    for (const char c : s) {
      h = support::hash_combine(h, static_cast<unsigned char>(c));
    }
    return h;
  }

  std::uint64_t symbol(support::Symbol s) {
    const auto [it, fresh] = symbols_.try_emplace(s.id(), 0);
    if (fresh) it->second = spelling(interner_.spelling(s));
    return it->second;
  }

  std::uint64_t symbols(const support::SmallSet<support::Symbol>& set) {
    std::vector<std::uint64_t> values;
    values.reserve(set.size());
    for (const support::Symbol s : set) values.push_back(symbol(s));
    return fold_sorted(0x5e7, values);
  }

  std::uint64_t node_seed(const rsg::Rsg& g, rsg::NodeRef n) {
    using support::hash_combine;
    const rsg::NodeProps& p = g.props(n);
    const std::uint32_t type = lang::raw(p.type);
    std::uint64_t h =
        type < types_.struct_count()
            ? spelling(interner_.spelling(types_.struct_decl(p.type).name))
            : support::mix64(type);
    h = hash_combine(h, static_cast<std::uint64_t>(p.cardinality));
    h = hash_combine(h, p.shared ? 1 : 0);
    h = hash_combine(h, symbols(p.shsel));
    h = hash_combine(h, symbols(p.selin));
    h = hash_combine(h, symbols(p.selout));
    h = hash_combine(h, symbols(p.pos_selin));
    h = hash_combine(h, symbols(p.pos_selout));
    std::vector<std::uint64_t> values;
    for (const rsg::SelPair pair : p.cyclelinks) {
      values.push_back(hash_combine(symbol(pair.out), symbol(pair.back)));
    }
    h = hash_combine(h, fold_sorted(0xc1c, values));
    h = hash_combine(h, symbols(p.touch));
    h = hash_combine(h, static_cast<std::uint64_t>(p.free_state));
    values.clear();
    for (const std::uint32_t line : p.alloc_sites) values.push_back(line);
    h = hash_combine(h, fold_sorted(0xa11c, values));
    h = hash_combine(h, p.havoc ? 1 : 0);
    // The zero-length SPATH: which pvars point here.
    return hash_combine(h, symbols(g.pvars_of(n)));
  }

  const support::Interner& interner_;
  const lang::TypeTable& types_;
  std::unordered_map<std::uint32_t, std::uint64_t> symbols_;
};

}  // namespace psa::testing
