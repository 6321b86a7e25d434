// Call graph + Tarjan SCC condensation over the lowered CFGs of one unit.
//
// Nodes are the unit's analyzable functions; an edge f -> g exists when f's
// CFG contains a kCall statement naming g. Extern callees never appear (sema
// only marks in-unit calls summarizable, and their call sites take the havoc
// fallback regardless). The SCCs come out in bottom-up (callee-first) order,
// which is exactly the order the summary computation needs: every call edge
// leaving an SCC targets an SCC whose summaries are already final.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cfg/cfg.hpp"
#include "support/interner.hpp"

namespace psa::ipa {

using support::Symbol;

/// Names of `cfg`'s direct callees (deduplicated, first-seen order): the
/// call edges leaving one function. The summary pass starts its demand set
/// here, and the function-tier cache keys on these callees' summaries.
[[nodiscard]] std::vector<Symbol> direct_callees(const cfg::Cfg& cfg);

/// One function of the unit, by name, with its lowered CFG.
struct CallGraphNode {
  Symbol name;
  const cfg::Cfg* cfg = nullptr;
};

class CallGraph {
 public:
  explicit CallGraph(const std::vector<CallGraphNode>& functions);

  /// Condense a pre-resolved adjacency list (callee indices per caller).
  /// Used by tests to exercise graph shapes a parsed unit cannot reach
  /// cheaply (e.g. call chains deep enough to overflow a recursive walk).
  explicit CallGraph(std::vector<std::vector<std::size_t>> edges);

  /// Strongly connected components in bottom-up order (Tarjan pop order:
  /// all call edges leaving an SCC go to an earlier entry of this list).
  /// Members are indices into the constructor's `functions`, sorted
  /// ascending within each SCC for determinism.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& sccs() const {
    return sccs_;
  }

  /// Deduplicated call edges: edges()[caller] = callee indices.
  [[nodiscard]] const std::vector<std::vector<std::size_t>>& edges() const {
    return edges_;
  }

  /// True when the SCC carries an internal call edge (self- or mutual
  /// recursion): its summaries need a Kleene fixpoint instead of one pass.
  [[nodiscard]] bool recursive(const std::vector<std::size_t>& scc) const;

 private:
  void condense();
  void strongconnect(std::size_t v);

  std::vector<std::vector<std::size_t>> edges_;
  std::vector<std::vector<std::size_t>> sccs_;

  // Tarjan state (live only during construction).
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<std::size_t> stack_;
  std::uint32_t next_index_ = 0;
};

}  // namespace psa::ipa
