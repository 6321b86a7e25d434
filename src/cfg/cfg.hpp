// Statement-level control-flow graph.
//
// The paper assigns one RSRSG to every *sentence*; the natural CFG
// granularity is therefore one node per lowered simple statement. Loops are
// recorded structurally during construction (the subset has structured
// control flow only), which gives the TOUCH machinery its loop scopes
// without a separate dominator pass — a dominator-based natural-loop
// verifier lives in loops.hpp for cross-checking and for client analyses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cfg/simple_stmt.hpp"
#include "lang/ast.hpp"
#include "lang/sema.hpp"

namespace psa::cfg {

using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

struct CfgNode {
  SimpleStmt stmt;
  std::vector<NodeId> succs;
  std::vector<NodeId> preds;
  /// Ids of the loops this node is (statically) nested in, outermost first.
  std::vector<std::uint32_t> loops;
};

/// Static description of one loop in the function.
struct LoopScope {
  std::uint32_t id = 0;
  NodeId header = kInvalidNode;      // the branch node that tests the loop
  std::vector<NodeId> members;       // nodes inside the loop (incl. header)
  support::SourceLoc loc;
};

class Cfg {
 public:
  [[nodiscard]] NodeId entry() const noexcept { return entry_; }
  [[nodiscard]] NodeId exit() const noexcept { return exit_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const CfgNode& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] const std::vector<CfgNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<LoopScope>& loop_scopes() const noexcept {
    return loop_scopes_;
  }

  /// The pvars of the function, including lowering temporaries (sorted).
  [[nodiscard]] const std::vector<Symbol>& pointer_vars() const noexcept {
    return pointer_vars_;
  }

  /// The selector universe: every selector some statement mentions,
  /// ascending. The concrete store can only ever write these, so SHSEL over
  /// this set is the full ⊤ for the function (the kHavoc transfer and the
  /// governor's kSummarize rung saturate over it).
  [[nodiscard]] std::vector<Symbol> selectors() const;

  /// Struct-pointer pointee type per pvar (parallel to variables map).
  [[nodiscard]] const std::unordered_map<Symbol, lang::StructId>&
  pvar_struct() const noexcept {
    return pvar_struct_;
  }

  /// Innermost loop containing `id`, or 0 when outside every loop.
  [[nodiscard]] std::uint32_t innermost_loop(NodeId id) const {
    const auto& l = nodes_[id].loops;
    return l.empty() ? 0 : l.back();
  }

  [[nodiscard]] std::string dump(const support::Interner& interner) const;

 private:
  friend class CfgBuilder;

  NodeId add_node(SimpleStmt stmt);
  void add_edge(NodeId from, NodeId to);

  std::vector<CfgNode> nodes_;
  std::vector<LoopScope> loop_scopes_;
  std::vector<Symbol> pointer_vars_;
  std::unordered_map<Symbol, lang::StructId> pvar_struct_;
  NodeId entry_ = kInvalidNode;
  NodeId exit_ = kInvalidNode;
};

/// Build the statement-level CFG of `fn`. Lowers every pointer statement to
/// the six simple instructions, inserting `__tN` temporaries (registered as
/// pvars) and killing them immediately after their last use.
[[nodiscard]] Cfg build_cfg(lang::TranslationUnit& unit,
                            const lang::FunctionInfo& fn,
                            support::DiagnosticEngine& diags);

}  // namespace psa::cfg
