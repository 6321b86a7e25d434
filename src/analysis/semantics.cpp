#include "analysis/semantics.hpp"

#include <algorithm>
#include <cassert>

#include "support/metrics.hpp"

namespace psa::analysis {

using cfg::SimpleOp;
using cfg::SimpleStmt;
using rsg::Cardinality;
using rsg::kNoNode;
using rsg::NodeProps;
using rsg::NodeRef;
using rsg::Rsg;
using rsg::SelPair;
using support::Symbol;

namespace {

/// Should an assignment to `x` at `node` record a TOUCH visit? Only at L3,
/// only inside a loop for which x is an induction pvar (§3).
bool touch_applies(const cfg::CfgNode& node, Symbol x,
                   const TransferContext& ctx) {
  if (!ctx.policy.use_touch()) return false;
  for (const std::uint32_t loop_id : node.loops) {
    if (ctx.induction->is_induction(loop_id, x)) return true;
  }
  return false;
}

void finish(Rsg& g, const TransferContext& ctx, std::vector<Rsg>& out) {
  rsg::compress(g, ctx.policy);
  g.refresh_footprint();
  out.push_back(std::move(g));
}

// ---------------------------------------------------------------------------
// x = NULL
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_ptr_null(const Rsg& in, Symbol x,
                               const TransferContext& ctx) {
  std::vector<Rsg> out;
  Rsg g = in;
  g.unbind_pvar(x);
  finish(g, ctx, out);
  return out;
}

// ---------------------------------------------------------------------------
// x = malloc
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_malloc(const Rsg& in, const SimpleStmt& stmt,
                             const TransferContext& ctx) {
  std::vector<Rsg> out;
  Rsg g = in;
  g.unbind_pvar(stmt.x);
  NodeProps props;
  props.type = stmt.type;
  props.cardinality = Cardinality::kOne;
  if (stmt.loc.valid()) props.alloc_sites.insert(stmt.loc.line);
  // Fresh location: no references, every selector NULL.
  const NodeRef n = g.add_node(std::move(props));
  g.bind_pvar(stmt.x, n);
  finish(g, ctx, out);
  return out;
}

// ---------------------------------------------------------------------------
// x = y
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_copy(const Rsg& in, const cfg::CfgNode& node,
                           const TransferContext& ctx) {
  const SimpleStmt& stmt = node.stmt;
  std::vector<Rsg> out;
  if (stmt.x == stmt.y) {
    out.push_back(in);
    return out;
  }
  Rsg g = in;
  const NodeRef t = g.pvar_target(stmt.y);
  g.unbind_pvar(stmt.x);
  if (t != kNoNode) {
    g.bind_pvar(stmt.x, t);
    if (touch_applies(node, stmt.x, ctx)) g.props(t).touch.insert(stmt.x);
  }
  finish(g, ctx, out);
  return out;
}

// ---------------------------------------------------------------------------
// Store helpers
// ---------------------------------------------------------------------------

/// Remove the (unique, materialized) old link <n, sel, m1> plus the property
/// consequences of writing through ℓx.sel.
void remove_old_target(Rsg& g, NodeRef n, Symbol sel, NodeRef m1) {
  g.remove_link(n, sel, m1);

  NodeProps& pn = g.props(n);
  pn.selout.erase(sel);
  pn.pos_selout.erase(sel);

  // Writing ℓx.sel invalidates every cycle-link whose *outgoing* selector is
  // sel on n, and every <si, sel> cycle-link of a node si-linking into n
  // (its return path went through the overwritten field).
  pn.cyclelinks.erase_if([sel](SelPair cl) { return cl.out == sel; });
  for (const rsg::InLink& in : g.in_links(n)) {
    g.props(in.source).cyclelinks.erase_if(
        [&](SelPair cl) { return cl.out == in.sel && cl.back == sel; });
  }

  // The reference into the old target is gone.
  NodeProps& pm = g.props(m1);
  bool any_left = false;
  for (const rsg::InLink& in : g.in_links(m1)) {
    if (in.sel == sel) {
      any_left = true;
      break;
    }
  }
  if (!any_left) {
    pm.selin.erase(sel);
    pm.pos_selin.erase(sel);
  } else if (pm.selin.contains(sel)) {
    // Remaining sel-references may target other locations: demote.
    pm.selin.erase(sel);
    pm.pos_selin.insert(sel);
  }
}

/// Add the link <n, sel, t> for x->sel = y with its property consequences.
void add_new_target(Rsg& g, NodeRef n, Symbol sel, NodeRef t) {
  // Sharing: count references *before* adding ours.
  const int prior_sel_refs = g.max_in_refs(t, sel);
  const int prior_total_refs = g.max_in_refs_total(t);

  g.add_link(n, sel, t);

  NodeProps& pn = g.props(n);
  pn.selout.insert(sel);
  pn.pos_selout.erase(sel);

  NodeProps& pt = g.props(t);
  pt.selin.insert(sel);
  pt.pos_selin.erase(sel);
  if (prior_sel_refs >= 1) pt.shsel.insert(sel);
  if (prior_total_refs >= 1) pt.shared = true;

  // Cycle links made definite by the write: for every selector sj with a
  // definite back-link ℓy.sj = ℓx we gain <sel, sj> on n and <sj, sel> on t.
  for (const rsg::Link& l : g.out_links(t)) {
    if (l.target != n) continue;
    if (g.definite_link(t, l.sel, n)) {
      g.props(n).cyclelinks.insert(SelPair{sel, l.sel});
      g.props(t).cyclelinks.insert(SelPair{l.sel, sel});
    }
  }
  // Self-store x->sel = x: the new link itself is definite.
  if (t == n && g.definite_link(n, sel, n)) {
    g.props(n).cyclelinks.insert(SelPair{sel, sel});
  }
}

// ---------------------------------------------------------------------------
// x->sel = NULL and x->sel = y
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_store(const Rsg& in, const cfg::CfgNode& node,
                            const TransferContext& ctx) {
  const SimpleStmt& stmt = node.stmt;
  std::vector<Rsg> out;
  if (in.pvar_target(stmt.x) == kNoNode) {
    // Null dereference: this configuration cannot continue.
    return out;
  }

  const bool has_source = stmt.op == SimpleOp::kStore;

  for (Rsg& variant : rsg::divide(in, stmt.x, stmt.sel, ctx.prune)) {
    const NodeRef n = variant.pvar_target(stmt.x);
    assert(n != kNoNode);
    const auto targets = variant.sel_targets(n, stmt.sel);

    auto apply_write = [&](Rsg g, NodeRef node_n) {
      if (has_source) {
        const NodeRef t = g.pvar_target(stmt.y);
        if (t != kNoNode) add_new_target(g, node_n, stmt.sel, t);
      }
      if (!rsg::prune(g, ctx.prune)) return;
      finish(g, ctx, out);
    };

    if (targets.empty()) {
      // x->sel was already NULL in this variant.
      apply_write(std::move(variant), n);
      continue;
    }

    // Materialize the single location x->sel denotes, then unlink it.
    for (rsg::Materialized& mat :
         rsg::materialize(variant, n, stmt.sel, ctx.prune)) {
      Rsg g = std::move(mat.graph);
      const NodeRef nn = g.pvar_target(stmt.x);
      assert(nn != kNoNode);
      remove_old_target(g, nn, stmt.sel, mat.one_node);
      apply_write(std::move(g), nn);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// x = y->sel
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_load(const Rsg& in, const cfg::CfgNode& node,
                           const TransferContext& ctx) {
  const SimpleStmt& stmt = node.stmt;
  std::vector<Rsg> out;
  if (in.pvar_target(stmt.y) == kNoNode) return out;  // null dereference

  for (Rsg& variant : rsg::divide(in, stmt.y, stmt.sel, ctx.prune)) {
    const NodeRef n = variant.pvar_target(stmt.y);
    assert(n != kNoNode);
    const auto targets = variant.sel_targets(n, stmt.sel);

    if (targets.empty()) {
      // y->sel is NULL here: x = NULL.
      Rsg g = std::move(variant);
      g.unbind_pvar(stmt.x);
      finish(g, ctx, out);
      continue;
    }

    for (rsg::Materialized& mat :
         rsg::materialize(variant, n, stmt.sel, ctx.prune)) {
      Rsg g = std::move(mat.graph);
      g.unbind_pvar(stmt.x);
      g.bind_pvar(stmt.x, mat.one_node);
      if (touch_applies(node, stmt.x, ctx))
        g.props(mat.one_node).touch.insert(stmt.x);
      finish(g, ctx, out);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bookkeeping operations
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_assume(const Rsg& in, const SimpleStmt& stmt) {
  std::vector<Rsg> out;
  const bool bound = in.pvar_target(stmt.x) != kNoNode;
  const bool want_bound = stmt.op == SimpleOp::kAssumeNotNull;
  if (bound == want_bound) out.push_back(in);
  return out;
}

// ---------------------------------------------------------------------------
// free(x)
// ---------------------------------------------------------------------------

std::vector<Rsg> exec_free(const Rsg& in, const SimpleStmt& stmt,
                           const TransferContext& ctx) {
  std::vector<Rsg> out;
  const NodeRef n = in.pvar_target(stmt.x);
  if (n == kNoNode) {
    // free(NULL) is well-defined and a no-op.
    out.push_back(in);
    return out;
  }
  // The pvar-referenced node has cardinality one (PL invariant), so marking
  // it FREED frees exactly the location x denotes. The node keeps its
  // bindings and links: x (and every alias) now dangles, and the checkers
  // flag any later dereference or re-free of the node. Re-freeing an
  // already-(maybe-)freed location leaves it definitely freed.
  Rsg g = in;
  g.props(n).free_state = rsg::FreeState::kFreed;
  finish(g, ctx, out);
  return out;
}

// ---------------------------------------------------------------------------
// havoc — salvage-mode over-approximation of unsupported constructs
// (docs/RESILIENCE.md). Soundness is proven by the concrete-interpreter
// oracle (tests/testing/concrete_oracle.hpp): every produced variant set
// covers every concrete outcome the oracle's havoc semantics can choose.
// ---------------------------------------------------------------------------

/// havoc(*): an unknown call (or other opaque statement) may have rewritten
/// every heap cell it can reach. C passes pointers by value, so pvar
/// *bindings* survive; every heap link and property may have changed. The
/// governor's top widening rung is exactly that over-approximation: saturate
/// the may-structure with every type-correct link, drop all must-info, keep
/// the ALIAS pattern (rsg::summarize_top). Envelope limit (documented):
/// unknown code is modeled as not *freeing* memory; fresh callee allocations
/// only become relevant when a later unsupported expression is assigned,
/// which the rebind form covers.
std::vector<Rsg> exec_havoc_global(const Rsg& in, const TransferContext& ctx) {
  std::vector<Rsg> out;
  Rsg g = in;
  static const std::vector<Symbol> kNoSelectors;
  const std::vector<Symbol>& sels =
      ctx.selectors != nullptr ? *ctx.selectors : kNoSelectors;
  rsg::summarize_top(g, ctx.policy, sels, ctx.types);
  for (const NodeRef n : g.node_refs()) g.props(n).havoc = true;
  g.set_havoc(true);
  finish(g, ctx, out);
  return out;
}

/// havoc(x): x = <unknown side-effect-free expression of struct type T>
/// (side effects are lowered as a preceding havoc(*) by the CFG builder).
/// The unknown value is covered by three variant families:
///   1. NULL                          -> x unbound
///   2. the value of another pvar     -> x aliased to each type-T node some
///      (or x's old value)               pvar references
///   3. any other location (interior  -> x bound to a fresh typed-⊤ node:
///      cell, fresh allocation, ...)     SHARED, saturated SHSEL and
///                                       possible reference patterns, linked
///                                       both ways with every type-correct
///                                       peer; no must-info (⊤ makes no
///                                       definite claims).
/// Every variant is HAVOC-tainted so downstream findings report at degraded
/// confidence.
/// Shared core of the kHavoc rebind transfer and the summary entry
/// abstraction (bind_unknown_param). `taint_graph` distinguishes them: a
/// havoc'd statement degrades the whole graph, an unknown-but-well-formed
/// caller value at a summary entry does not. The node-level havoc marks are
/// set either way — under taint they drive the checker's witness downgrade,
/// in summary runs they mark "may derive from caller memory".
std::vector<Rsg> rebind_unknown(const Rsg& in, Symbol x, lang::StructId type,
                                const TransferContext& ctx, bool taint_graph) {
  std::vector<Rsg> out;

  // Variant 1: the unknown expression was NULL.
  {
    Rsg g = in;
    g.unbind_pvar(x);
    if (taint_graph) g.set_havoc(true);
    finish(g, ctx, out);
  }

  // Variant 2: x now aliases a location some pvar already references
  // (including x's own old target: "the value did not change").
  std::vector<NodeRef> alias_targets;
  for (const auto& [pvar, t] : in.pvar_links()) {
    if (in.props(t).type != type) continue;
    if (std::find(alias_targets.begin(), alias_targets.end(), t) ==
        alias_targets.end()) {
      alias_targets.push_back(t);
    }
  }
  for (const NodeRef t : alias_targets) {
    Rsg g = in;
    g.unbind_pvar(x);
    g.bind_pvar(x, t);
    g.props(t).havoc = true;
    if (taint_graph) g.set_havoc(true);
    finish(g, ctx, out);
  }

  // Variant 3: any other type-T location.
  {
    Rsg g = in;
    g.unbind_pvar(x);
    NodeProps props;
    props.type = type;
    props.cardinality = Cardinality::kOne;  // PL invariant
    props.shared = true;
    props.havoc = true;
    const NodeRef n = g.add_node(std::move(props));
    g.bind_pvar(x, n);
    if (ctx.types != nullptr) {
      // Saturate both directions with every type-correct link so the node
      // covers interior cells of the existing structure as well as memory
      // the analyzed code has never seen; every selector it is reachable
      // through may share it.
      const auto refs = g.node_refs();
      const NodeRef just_n[] = {n};
      rsg::saturate_links(g, refs, just_n, *ctx.types);
      rsg::saturate_links(g, just_n, refs, *ctx.types);
      for (const rsg::InLink& in : g.in_links(n)) {
        g.props(n).shsel.insert(in.sel);
      }
    } else if (ctx.selectors != nullptr) {
      // No type table: saturate the sharing bits over the selector universe
      // (no links can be added type-correctly — still sound, coarser).
      for (const Symbol sel : *ctx.selectors) g.props(n).shsel.insert(sel);
    }
    if (taint_graph) g.set_havoc(true);
    finish(g, ctx, out);
  }
  return out;
}

std::vector<Rsg> exec_havoc_rebind(const Rsg& in, const SimpleStmt& stmt,
                                   const TransferContext& ctx) {
  return rebind_unknown(in, stmt.x, stmt.type, ctx, /*taint_graph=*/true);
}

// ---------------------------------------------------------------------------
// x = callee(args...) — interprocedural summary application
// (docs/ALGORITHMS.md). With no usable summary the transfer degenerates to
// the PR 5 lowering of an unknown call: global havoc plus an unknown-value
// rebind of the destination.
// ---------------------------------------------------------------------------

/// Saturate every type-correct may-link between `n` and the `peers` cells:
/// out-links (and a self-link) always — the callee may have written any of
/// n's fields; in-links from the peers only when `in_links_too` — a cell
/// that escapes solely through the return value has no region in-refs.
void saturate_with(Rsg& g, NodeRef n, const std::vector<NodeRef>& peers,
                   bool in_links_too, const TransferContext& ctx) {
  if (ctx.types == nullptr) {
    // No struct table: no link can be added type-correctly; saturating the
    // sharing bits keeps the result sound, just coarser.
    g.props(n).shared = true;
    if (ctx.selectors != nullptr) {
      for (const Symbol sel : *ctx.selectors) g.props(n).shsel.insert(sel);
    }
    return;
  }
  std::vector<NodeRef> all = peers;
  all.push_back(n);  // the callee may have linked the cell to itself
  const NodeRef just_n[] = {n};
  rsg::saturate_links(g, just_n, all, *ctx.types);
  if (!in_links_too) return;
  g.props(n).shared = true;
  rsg::saturate_links(g, peers, just_n, *ctx.types);
  // Every peer selector into the cell may share it (its self-link does not).
  for (const rsg::InLink& in : g.in_links(n)) {
    if (in.source != n) g.props(n).shsel.insert(in.sel);
  }
}

std::vector<Rsg> exec_call_fallback(const Rsg& in, const SimpleStmt& stmt,
                                    const TransferContext& ctx) {
  PSA_COUNT(support::Counter::kCallHavocFallback);
  std::vector<Rsg> mid = exec_havoc_global(in, ctx);
  // Unlike the extern-call envelope (unknown code never frees,
  // docs/RESILIENCE.md), the callee here is real in-unit code that may well
  // contain free() — its effect must stay covered even though its summary
  // was unusable, so every reachable live cell widens to maybe-freed.
  for (Rsg& g : mid) {
    for (const NodeRef n : g.node_refs()) {
      rsg::FreeState& fs = g.props(n).free_state;
      if (fs == rsg::FreeState::kLive) fs = rsg::FreeState::kMaybeFreed;
    }
  }
  if (!stmt.x.valid()) return mid;
  SimpleStmt rebind;
  rebind.op = SimpleOp::kHavoc;
  rebind.x = stmt.x;
  rebind.type = stmt.type;
  rebind.loc = stmt.loc;
  std::vector<Rsg> out;
  for (const Rsg& g : mid) {
    for (Rsg& v : exec_havoc_rebind(g, rebind, ctx)) {
      // The returned value may itself be a cell the callee freed (the
      // rebind's fresh-⊤ variant is born live; the alias variants were
      // widened above).
      const NodeRef t = v.pvar_target(stmt.x);
      if (t != kNoNode && v.props(t).free_state == rsg::FreeState::kLive) {
        v.props(t).free_state = rsg::FreeState::kMaybeFreed;
      }
      out.push_back(std::move(v));
    }
  }
  return out;
}

std::vector<Rsg> exec_call(const Rsg& in, const cfg::CfgNode& node,
                           const TransferContext& ctx) {
  const SimpleStmt& stmt = node.stmt;
  const ipa::FunctionSummary* sum = nullptr;
  if (ctx.summaries != nullptr) {
    const auto it = ctx.summaries->find(stmt.callee);
    if (it != ctx.summaries->end() && it->second.analyzed) sum = &it->second;
  }
  if (sum == nullptr) return exec_call_fallback(in, stmt, ctx);
  PSA_COUNT(support::Counter::kSummaryApplied);

  static const std::vector<Symbol> kNoSelectors;
  const std::vector<Symbol>& sels =
      ctx.selectors != nullptr ? *ctx.selectors : kNoSelectors;

  Rsg g = in;
  const std::vector<NodeRef> region = callee_region(g, stmt.args);

  if (sum->may_free) {
    // The callee may free any argument-reachable cell; live cells widen to
    // kMaybeFreed (already-freed ones stay as they are).
    for (const NodeRef n : region) {
      rsg::FreeState& fs = g.props(n).free_state;
      if (fs == rsg::FreeState::kLive) fs = rsg::FreeState::kMaybeFreed;
    }
  }

  // `linkable` collects the cells a callee-written pointer field may target:
  // the region itself plus any fresh allocations the callee linked in.
  std::vector<NodeRef> linkable = region;
  if (sum->mutates_heap && !region.empty()) {
    rsg::summarize_region(g, region, sels, ctx.types);
    for (const auto& [type_raw, lines] : sum->alloc_types) {
      // A summary node covering every cell of this type the callee may have
      // allocated and linked into caller-visible memory.
      NodeProps props;
      props.type = static_cast<lang::StructId>(type_raw);
      props.cardinality = Cardinality::kMany;
      props.shared = true;
      for (const Symbol sel : sels) props.shsel.insert(sel);
      for (const std::uint32_t line : lines) props.alloc_sites.insert(line);
      linkable.push_back(g.add_node(std::move(props)));
    }
    if (ctx.types != nullptr && linkable.size() > region.size()) {
      // Saturate type-correct may-links across region ∪ fresh (the
      // region-internal links were already saturated above).
      rsg::saturate_links(g, linkable, linkable, *ctx.types);
    }
  }

  if (sum->havoc_tainted) {
    // The callee's own analysis degraded: everything it could have touched
    // carries the taint, and downstream findings report at degraded
    // confidence — the same contract as a direct havoc.
    for (const NodeRef n : linkable) g.props(n).havoc = true;
    g.set_havoc(true);
  }

  std::vector<Rsg> out;
  if (!stmt.x.valid()) {
    finish(g, ctx, out);
    return out;
  }

  // Return-value variants, one family per possible origin. An empty mask
  // means the callee never completes normally — the continuation is
  // unreachable and any abstraction of it is sound; NULL is the cheapest.
  const std::uint8_t kinds = sum->ret_kinds != 0 ? sum->ret_kinds : ipa::kRetNull;

  if ((kinds & ipa::kRetNull) != 0) {
    Rsg v = g;
    v.unbind_pvar(stmt.x);
    finish(v, ctx, out);
  }

  if ((kinds & ipa::kRetParamDerived) != 0) {
    // The returned cell already lives in the argument region. Alias family:
    // x re-bound to each pvar-referenced region cell of the return type.
    std::vector<NodeRef> alias_targets;
    for (const auto& [pvar, t] : g.pvar_links()) {
      if (g.props(t).type != stmt.type) continue;
      if (!std::binary_search(region.begin(), region.end(), t)) continue;
      if (std::find(alias_targets.begin(), alias_targets.end(), t) ==
          alias_targets.end()) {
        alias_targets.push_back(t);
      }
    }
    for (const NodeRef t : alias_targets) {
      Rsg v = g;
      v.unbind_pvar(stmt.x);
      v.bind_pvar(stmt.x, t);
      finish(v, ctx, out);
    }
    // Interior family: a region cell no pvar references (e.g. the tail of a
    // walked list) — a fresh cardinality-one cell linked both ways with
    // every type-correct peer of the region.
    {
      Rsg v = g;
      v.unbind_pvar(stmt.x);
      NodeProps props;
      props.type = stmt.type;
      props.cardinality = Cardinality::kOne;  // PL invariant
      props.shared = true;
      for (const Symbol sel : sels) props.shsel.insert(sel);
      if (sum->may_free) props.free_state = rsg::FreeState::kMaybeFreed;
      if (sum->havoc_tainted) props.havoc = true;
      const NodeRef n = v.add_node(std::move(props));
      v.bind_pvar(stmt.x, n);
      saturate_with(v, n, linkable, /*in_links_too=*/true, ctx);
      finish(v, ctx, out);
    }
  }

  if ((kinds & ipa::kRetFresh) != 0) {
    // A cell the callee allocated. Its fields may point anywhere into the
    // region; other region cells point at it only if the callee also
    // mutated the region (otherwise it escapes solely through the return
    // value).
    Rsg v = g;
    v.unbind_pvar(stmt.x);
    NodeProps props;
    props.type = stmt.type;
    props.cardinality = Cardinality::kOne;
    const auto alloc_it = sum->alloc_types.find(lang::raw(stmt.type));
    if (alloc_it != sum->alloc_types.end()) {
      for (const std::uint32_t line : alloc_it->second) {
        props.alloc_sites.insert(line);
      }
    }
    if (sum->ret_maybe_freed) props.free_state = rsg::FreeState::kMaybeFreed;
    if (sum->havoc_tainted) props.havoc = true;
    const NodeRef n = v.add_node(std::move(props));
    v.bind_pvar(stmt.x, n);
    saturate_with(v, n, linkable, /*in_links_too=*/sum->mutates_heap, ctx);
    finish(v, ctx, out);
  }

  return out;
}

std::vector<Rsg> exec_touch_clear(const Rsg& in, const SimpleStmt& stmt,
                                  const TransferContext& ctx) {
  std::vector<Rsg> out;
  Rsg g = in;
  bool changed = false;
  for (const NodeRef n : g.node_refs()) {
    auto& touch = g.props(n).touch;
    const std::size_t before = touch.size();
    touch.erase_if([&](Symbol pvar) {
      return ctx.induction->is_induction(stmt.loop_id, pvar);
    });
    changed |= touch.size() != before;
  }
  if (changed) {
    finish(g, ctx, out);  // dropping TOUCH may enable summarization
  } else {
    out.push_back(std::move(g));
  }
  return out;
}

}  // namespace

std::vector<NodeRef> callee_region(const Rsg& g,
                                   const std::vector<Symbol>& args) {
  std::vector<NodeRef> roots;
  for (const Symbol a : args) {
    const NodeRef t = g.pvar_target(a);
    if (t != kNoNode) roots.push_back(t);
  }
  const rsg::NodeFlags reached = g.reachable_from(roots);
  std::vector<NodeRef> region;
  for (NodeRef n = 0; n < reached.size(); ++n)
    if (reached[n]) region.push_back(n);
  return region;
}

std::vector<Rsg> bind_unknown_param(const Rsg& in, Symbol param,
                                    lang::StructId type,
                                    const TransferContext& ctx) {
  return rebind_unknown(in, param, type, ctx, /*taint_graph=*/false);
}

bool is_identity_statement(const SimpleStmt& stmt,
                           const rsg::LevelPolicy& policy) {
  switch (stmt.op) {
    case SimpleOp::kFieldRead:
    case SimpleOp::kFieldWrite:
    case SimpleOp::kScalar:
    case SimpleOp::kBranch:
    case SimpleOp::kNop:
      return true;
    case SimpleOp::kTouchClear:
      return !policy.use_touch();
    default:
      return false;
  }
}

std::vector<Rsg> execute_statement(const Rsg& in, const cfg::CfgNode& node,
                                   const TransferContext& ctx) {
  const SimpleStmt& stmt = node.stmt;
  if (is_identity_statement(stmt, ctx.policy)) return {in};
  switch (stmt.op) {
    case SimpleOp::kPtrNull:
      return exec_ptr_null(in, stmt.x, ctx);
    case SimpleOp::kPtrMalloc:
      return exec_malloc(in, stmt, ctx);
    case SimpleOp::kPtrCopy:
      return exec_copy(in, node, ctx);
    case SimpleOp::kStoreNull:
    case SimpleOp::kStore:
      return exec_store(in, node, ctx);
    case SimpleOp::kLoad:
      return exec_load(in, node, ctx);
    case SimpleOp::kAssumeNull:
    case SimpleOp::kAssumeNotNull:
      return exec_assume(in, stmt);
    case SimpleOp::kTouchClear:
      return exec_touch_clear(in, stmt, ctx);
    case SimpleOp::kFree:
      // free(x) marks the (cardinality-one) target node FREED; links and
      // bindings survive so dangling accesses stay expressible for the
      // memory-safety checkers (src/checker/). The shape facts are
      // unchanged — the paper's codes do not rely on reallocation.
      return exec_free(in, stmt, ctx);
    case SimpleOp::kHavoc:
      return stmt.x.valid() ? exec_havoc_rebind(in, stmt, ctx)
                            : exec_havoc_global(in, ctx);
    case SimpleOp::kCall:
      return exec_call(in, node, ctx);
    case SimpleOp::kFieldRead:
    case SimpleOp::kFieldWrite:
    case SimpleOp::kScalar:
    case SimpleOp::kBranch:
    case SimpleOp::kNop:
      break;  // is_identity_statement
  }
  return {in};
}

}  // namespace psa::analysis
