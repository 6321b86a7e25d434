#include "ipa/summarize.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/semantics.hpp"
#include "ipa/callgraph.hpp"
#include "support/metrics.hpp"

namespace psa::ipa {

namespace {

/// Node-visit budget of each per-callee summary fixpoint (smaller than the
/// default Options::max_node_visits: a summary that needs the full
/// intraprocedural budget is not worth its cost — the callee degrades to
/// havoc instead).
constexpr std::uint64_t kSummaryVisitBudget = 200'000;

using analysis::FunctionCfg;
using analysis::ProgramAnalysis;
using rsg::NodeRef;
using rsg::Rsg;

/// Does `nodes` hold a cell that derives from the function's own caller (a
/// havoc-marked node of the summary run)?
bool any_marked(const Rsg& g, std::span<const NodeRef> nodes) {
  return std::any_of(nodes.begin(), nodes.end(),
                     [&g](NodeRef n) { return g.props(n).havoc; });
}

/// Pointwise widening join: the Kleene iteration over a recursive SCC must
/// ascend, so each recomputed summary is folded into its predecessor
/// (booleans OR, sets union) instead of replacing it.
FunctionSummary join(FunctionSummary a, const FunctionSummary& b) {
  a.analyzed = a.analyzed && b.analyzed;
  a.havoc_tainted |= b.havoc_tainted;
  a.mutates_heap |= b.mutates_heap;
  a.may_free |= b.may_free;
  for (const auto& [type_raw, lines] : b.alloc_types) {
    a.alloc_types[type_raw].insert(lines.begin(), lines.end());
  }
  a.ret_kinds |= b.ret_kinds;
  a.ret_maybe_freed |= b.ret_maybe_freed;
  return a;
}

/// Analyze one function from its abstracted entry states and project the
/// result onto a caller-visible summary. `table` holds the summaries of
/// every already-processed callee (final for SCCs below, the current Kleene
/// iterate for SCC siblings).
FunctionSummary summarize_one(const ProgramAnalysis& program,
                              const FunctionCfg& fc,
                              const lang::FunctionInfo& info,
                              const analysis::Options& base,
                              const SummaryTable& table) {
  FunctionSummary s;
  s.function = fc.name;
  if (info.decl->return_type.is_struct_pointer()) {
    s.ret_type = *info.decl->return_type.struct_id;
  }
  for (const lang::Param& p : info.decl->params) {
    if (p.type.is_struct_pointer()) s.params.push_back(p.name);
  }

  const std::vector<support::Symbol> selectors = fc.cfg.selectors();

  analysis::TransferContext ctx;
  ctx.policy = base.policy();
  ctx.prune = base.prune_options();
  ctx.cfg = &fc.cfg;
  ctx.induction = &fc.induction;
  ctx.types = &program.unit.types;
  ctx.selectors = &selectors;

  // Entry abstraction: each struct-pointer parameter bound to an unknown
  // caller value (NULL / alias / fresh ⊤), cross product over the
  // parameters. The node-level havoc marks these bindings carry are the
  // "derives from caller memory" markers every projection below keys on.
  std::vector<Rsg> entry_states;
  entry_states.emplace_back();
  for (const support::Symbol param : s.params) {
    const auto it = info.variables.find(param);
    if (it == info.variables.end() || !it->second.struct_id.has_value()) {
      continue;
    }
    std::vector<Rsg> next;
    for (const Rsg& g : entry_states) {
      for (Rsg& v :
           analysis::bind_unknown_param(g, param, *it->second.struct_id, ctx)) {
        next.push_back(std::move(v));
      }
    }
    entry_states = std::move(next);
  }

  analysis::Options opts = base;
  opts.types = &program.unit.types;
  opts.summaries = &table;
  opts.entry_states = &entry_states;
  opts.max_node_visits = kSummaryVisitBudget;
  // Summary runs are budgeted by visits alone: a wall-clock deadline would
  // make the table — and everything cached from it — nondeterministic.
  opts.deadline_ms = 0;

  const analysis::AnalysisResult res =
      analysis::analyze_cfg(fc.cfg, fc.induction, opts);
  if (!res.converged()) return s;  // analyzed stays false: havoc fallback
  s.analyzed = true;
  s.havoc_tainted = res.degraded();

  // Caller-visible effects, judged against the abstract states *before*
  // each statement (the union of its predecessors' outputs; the entry's
  // input is the entry abstraction).
  for (cfg::NodeId id = 0; id < fc.cfg.size(); ++id) {
    const cfg::SimpleStmt& stmt = fc.cfg.node(id).stmt;
    const auto inputs = [&] {
      return analysis::statement_inputs(fc.cfg, res, id, entry_states);
    };
    switch (stmt.op) {
      case cfg::SimpleOp::kStore:
      case cfg::SimpleOp::kStoreNull: {
        // A pointer-field write mutates caller-visible memory iff the base
        // may target a caller-derived cell. Writes into cells the callee
        // allocated itself (unmarked) are invisible until those cells are
        // linked in — and the linking store has a marked base.
        for (const Rsg* g : inputs()) {
          const NodeRef t = g->pvar_target(stmt.x);
          if (t != rsg::kNoNode && g->props(t).havoc) {
            s.mutates_heap = true;
            break;
          }
        }
        break;
      }
      case cfg::SimpleOp::kFree: {
        for (const Rsg* g : inputs()) {
          const NodeRef t = g->pvar_target(stmt.x);
          if (t != rsg::kNoNode && g->props(t).havoc) {
            s.may_free = true;
            break;
          }
        }
        break;
      }
      case cfg::SimpleOp::kPtrMalloc:
        s.alloc_types[lang::raw(stmt.type)].insert(stmt.loc.line);
        break;
      case cfg::SimpleOp::kHavoc:
        // A salvaged unknown construct (extern call, unsupported statement).
        // Global form: the unknown code may rewrite any reachable cell — if
        // any caller-derived cell is live here, report a mutation. The
        // rebind form only reassigns a local pvar. Either way the run's
        // exit states carry the graph taint, so havoc_tainted follows below.
        if (!stmt.x.valid()) {
          for (const Rsg* g : inputs()) {
            if (any_marked(*g, g->node_refs())) {
              s.mutates_heap = true;
              break;
            }
          }
        }
        break;
      case cfg::SimpleOp::kCall: {
        // Effects propagate from the callee's summary, but only when the
        // arguments can actually carry caller memory into it. A missing or
        // unanalyzed callee took exec_call_fallback inside this very run —
        // real in-unit code that may free or allocate caller-reachable
        // memory, neither of which this projection can represent (may_free
        // would stay false, alloc sites would vanish). If the site is
        // reachable at all, degrade the whole summary to unanalyzed so this
        // function's own call sites take the same sound fallback instead of
        // an under-approximating summary.
        const auto it = table.find(stmt.callee);
        if (it == table.end() || !it->second.analyzed) {
          if (!inputs().empty()) {
            s.analyzed = false;
            return s;
          }
          break;
        }
        const FunctionSummary& cs = it->second;
        for (const auto& [type_raw, lines] : cs.alloc_types) {
          s.alloc_types[type_raw].insert(lines.begin(), lines.end());
        }
        if (cs.mutates_heap || cs.may_free) {
          for (const Rsg* g : inputs()) {
            // The region the kCall transfer hands the callee.
            if (any_marked(*g, analysis::callee_region(*g, stmt.args))) {
              if (cs.mutates_heap) s.mutates_heap = true;
              if (cs.may_free) s.may_free = true;
              break;
            }
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Return-value projection from the __ret binding of the exit states. An
  // empty exit RSRSG (the function cannot complete on any feasible path)
  // leaves ret_kinds == 0 — the call site's continuation is unreachable.
  const support::Symbol ret_sym = program.unit.interner->lookup("__ret");
  for (const Rsg& g : res.at_exit(fc.cfg).graphs()) {
    if (g.havoc()) s.havoc_tainted = true;
    if (!s.ret_type.has_value() || !ret_sym.valid()) continue;
    const NodeRef t = g.pvar_target(ret_sym);
    if (t == rsg::kNoNode) {
      s.ret_kinds |= kRetNull;
    } else if (g.props(t).havoc) {
      s.ret_kinds |= kRetParamDerived;
    } else {
      s.ret_kinds |= kRetFresh;
      if (g.props(t).free_state != rsg::FreeState::kLive) {
        s.ret_maybe_freed = true;
      }
    }
  }
  return s;
}

}  // namespace

SummaryTable compute_summaries(const ProgramAnalysis& program,
                               const analysis::Options& options,
                               SummaryReuse* reuse) {
  // Demand: only the functions the target's call sites reach can ever have
  // their summary consulted — directly by the target's kCall transfers or
  // while computing a demanded caller's summary. The roots are the target's
  // direct callees; everything else is skipped outright.
  std::vector<bool> demanded(program.unit_cfgs.size(), false);
  std::vector<std::size_t> work;
  for (const Symbol callee : direct_callees(program.cfg)) {
    for (std::size_t i = 0; i < program.unit_cfgs.size(); ++i) {
      if (program.unit_cfgs[i].name == callee && !demanded[i]) {
        demanded[i] = true;
        work.push_back(i);
      }
    }
  }
  if (work.empty()) return {};
  PSA_PHASE_TIMER(ipa_timer, support::Counter::kPhaseIpaWallNs,
                  support::Counter::kPhaseIpaCpuNs);

  std::vector<CallGraphNode> nodes;
  nodes.reserve(program.unit_cfgs.size());
  for (const FunctionCfg& fc : program.unit_cfgs) {
    nodes.push_back({fc.name, &fc.cfg});
  }
  const CallGraph cg(nodes);
  while (!work.empty()) {
    const std::size_t caller = work.back();
    work.pop_back();
    for (const std::size_t callee : cg.edges()[caller]) {
      if (!demanded[callee]) {
        demanded[callee] = true;
        work.push_back(callee);
      }
    }
  }
  const auto scc_demanded = [&](const std::vector<std::size_t>& scc) {
    for (const std::size_t i : scc) {
      if (demanded[i]) return true;
    }
    return false;
  };

  SummaryTable table;
  for (const auto& scc : cg.sccs()) {
    if (!scc_demanded(scc)) continue;
    if (!cg.recursive(scc)) {
      const FunctionCfg& fc = program.unit_cfgs[scc.front()];
      const lang::FunctionInfo* info = program.sema.find(fc.name);
      if (info == nullptr) continue;
      if (reuse != nullptr) {
        if (std::optional<FunctionSummary> cached = reuse->lookup(fc, table)) {
          table[fc.name] = std::move(*cached);
          continue;
        }
      }
      FunctionSummary s = summarize_one(program, fc, *info, options, table);
      if (s.analyzed) PSA_COUNT(support::Counter::kSummaryComputed);
      if (reuse != nullptr) reuse->store(fc, table, s);
      table[fc.name] = std::move(s);
      continue;
    }

    // Recursive SCC: Kleene iteration from the bottom summary ("touches
    // nothing, never completes"). Every field only grows under `join`, so
    // the chain ascends in a finite lattice; the cap bounds the cost and an
    // over-cap cycle degrades the *whole* SCC to the havoc fallback —
    // partial tables would mix iterates of different fixpoints.
    for (const std::size_t i : scc) {
      const FunctionCfg& fc = program.unit_cfgs[i];
      FunctionSummary bottom;
      bottom.function = fc.name;
      bottom.analyzed = true;
      if (const lang::FunctionInfo* info = program.sema.find(fc.name)) {
        if (info->decl->return_type.is_struct_pointer()) {
          bottom.ret_type = *info->decl->return_type.struct_id;
        }
        for (const lang::Param& p : info->decl->params) {
          if (p.type.is_struct_pointer()) bottom.params.push_back(p.name);
        }
      }
      table[fc.name] = std::move(bottom);
    }
    bool stable = false;
    bool failed = false;
    for (std::size_t iter = 0; iter < options.max_summary_iters && !stable;
         ++iter) {
      PSA_COUNT(support::Counter::kSummaryFixpointIters);
      stable = true;
      for (const std::size_t i : scc) {
        const FunctionCfg& fc = program.unit_cfgs[i];
        const lang::FunctionInfo* info = program.sema.find(fc.name);
        if (info == nullptr) {
          failed = true;
          break;
        }
        FunctionSummary next = summarize_one(program, fc, *info, options, table);
        if (!next.analyzed) {
          failed = true;
          break;
        }
        FunctionSummary merged = join(table[fc.name], next);
        if (!(merged == table[fc.name])) {
          stable = false;
          table[fc.name] = std::move(merged);
        }
      }
      if (failed) break;
    }
    if (failed || !stable) {
      for (const std::size_t i : scc) {
        const FunctionCfg& fc = program.unit_cfgs[i];
        FunctionSummary unanalyzed;
        unanalyzed.function = fc.name;
        table[fc.name] = std::move(unanalyzed);
      }
    } else {
      for (std::size_t k = 0; k < scc.size(); ++k) {
        PSA_COUNT(support::Counter::kSummaryComputed);
      }
    }
  }
  return table;
}

}  // namespace psa::ipa
