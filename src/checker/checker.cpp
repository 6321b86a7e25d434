// Implementation of the memory-safety checkers (see checker.hpp).
#include "checker/checker.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <sstream>

#include "support/metrics.hpp"

namespace psa::checker {

std::string_view to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::kNullDeref: return "null-dereference";
    case CheckKind::kUseAfterFree: return "use-after-free";
    case CheckKind::kDoubleFree: return "double-free";
    case CheckKind::kLeak: return "memory-leak";
    case CheckKind::kLeakAtExit: return "leak-at-exit";
  }
  return "?";
}

std::string_view to_string(CheckSeverity severity) {
  switch (severity) {
    case CheckSeverity::kNote: return "note";
    case CheckSeverity::kWarning: return "warning";
    case CheckSeverity::kError: return "error";
  }
  return "?";
}

std::string_view rule_id(CheckKind kind) {
  switch (kind) {
    case CheckKind::kNullDeref: return "PSA-NULL-DEREF";
    case CheckKind::kUseAfterFree: return "PSA-USE-AFTER-FREE";
    case CheckKind::kDoubleFree: return "PSA-DOUBLE-FREE";
    case CheckKind::kLeak: return "PSA-LEAK";
    case CheckKind::kLeakAtExit: return "PSA-LEAK-AT-EXIT";
  }
  return "PSA-UNKNOWN";
}

namespace {

using cfg::NodeId;
using cfg::SimpleOp;
using rsg::FreeState;
using rsg::kNoNode;
using rsg::NodeRef;
using rsg::Rsg;
using support::Symbol;

/// The pvar a statement dereferences, when it dereferences one.
std::optional<Symbol> deref_base(const cfg::SimpleStmt& stmt) {
  switch (stmt.op) {
    case SimpleOp::kLoad:
      return stmt.y;  // x = y->sel
    case SimpleOp::kStore:
    case SimpleOp::kStoreNull:
    case SimpleOp::kFieldRead:
    case SimpleOp::kFieldWrite:
      return stmt.x;  // x->sel = ...   /   ... = x->sel
    default:
      return std::nullopt;
  }
}

/// Render one abstract node for a witness: type, cardinality, sharing bits,
/// FREE state, zero-length SPATH (referencing pvars) and alloc sites.
std::string render_node(const ProgramAnalysis& program, const Rsg& g,
                        NodeRef n) {
  const rsg::NodeProps& props = g.props(n);
  const support::Interner& in = program.interner();
  std::ostringstream os;
  os << "struct "
     << in.spelling(program.unit.types.struct_decl(props.type).name);
  os << ", card="
     << (props.cardinality == rsg::Cardinality::kOne ? "one" : "many");
  if (props.shared) os << ", SHARED";
  if (!props.shsel.empty()) {
    os << ", SHSEL{";
    bool first = true;
    for (const Symbol s : props.shsel) {
      os << (first ? "" : " ") << in.spelling(s);
      first = false;
    }
    os << "}";
  }
  switch (props.free_state) {
    case FreeState::kLive: break;
    case FreeState::kFreed: os << ", FREED"; break;
    case FreeState::kMaybeFreed: os << ", MAYBE-FREED"; break;
  }
  const auto pvars = g.pvars_of(n);
  if (!pvars.empty()) {
    os << ", SPATH0{";
    bool first = true;
    for (const Symbol s : pvars) {
      os << (first ? "" : " ") << in.spelling(s);
      first = false;
    }
    os << "}";
  }
  if (!props.alloc_sites.empty()) {
    os << ", alloc@{";
    bool first = true;
    for (const std::uint32_t line : props.alloc_sites) {
      os << (first ? "" : " ") << "line " << line;
      first = false;
    }
    os << "}";
  }
  return os.str();
}

/// Comma-joined alloc-site lines of a node ("line 3, line 7"), or "" when
/// the node carries none (e.g. after a widened merge dropped nothing — alloc
/// sites only grow, so empty means the node was never malloc-stamped).
std::string alloc_sites_of(const Rsg& g, NodeRef n) {
  std::ostringstream os;
  bool first = true;
  for (const std::uint32_t line : g.props(n).alloc_sites) {
    os << (first ? "" : ", ") << "line " << line;
    first = false;
  }
  return os.str();
}

/// Worth showing on a witness trace: statements with pointer semantics plus
/// the branch refinements that shaped the incoming state.
bool trace_relevant(const cfg::SimpleStmt& stmt) {
  switch (stmt.op) {
    case SimpleOp::kPtrNull:
    case SimpleOp::kPtrMalloc:
    case SimpleOp::kPtrCopy:
    case SimpleOp::kStoreNull:
    case SimpleOp::kStore:
    case SimpleOp::kLoad:
    case SimpleOp::kFree:
    case SimpleOp::kFieldRead:
    case SimpleOp::kFieldWrite:
    case SimpleOp::kAssumeNull:
    case SimpleOp::kAssumeNotNull:
      return true;
    default:
      return false;
  }
}

/// BFS shortest CFG path entry -> site, rendered as trace steps (relevant
/// statements only, truncated at the front to `max_steps`).
std::vector<TraceStep> witness_trace(const ProgramAnalysis& program,
                                     NodeId site, std::size_t max_steps) {
  const cfg::Cfg& cfg = program.cfg;
  std::vector<NodeId> parent(cfg.size(), cfg::kInvalidNode);
  std::vector<bool> seen(cfg.size(), false);
  std::queue<NodeId> work;
  work.push(cfg.entry());
  seen[cfg.entry()] = true;
  while (!work.empty() && !seen[site]) {
    const NodeId cur = work.front();
    work.pop();
    for (const NodeId next : cfg.node(cur).succs) {
      if (seen[next]) continue;
      seen[next] = true;
      parent[next] = cur;
      work.push(next);
    }
  }
  if (!seen[site]) return {};  // unreachable statement

  std::vector<NodeId> path;
  for (NodeId cur = site; cur != cfg::kInvalidNode; cur = parent[cur])
    path.push_back(cur);
  std::reverse(path.begin(), path.end());

  std::vector<TraceStep> steps;
  for (const NodeId id : path) {
    const cfg::SimpleStmt& stmt = cfg.node(id).stmt;
    if (!trace_relevant(stmt) || !stmt.loc.valid()) continue;
    steps.push_back({stmt.loc, cfg::to_string(stmt, program.interner())});
  }
  if (max_steps > 0 && steps.size() > max_steps) {
    const std::size_t dropped = steps.size() - max_steps;
    steps.erase(steps.begin(),
                steps.begin() + static_cast<std::ptrdiff_t>(dropped));
    steps.insert(steps.begin(),
                 TraceStep{{}, "... (" + std::to_string(dropped) +
                                   " earlier steps omitted)"});
  }
  return steps;
}

/// Does killing `victim`'s reachability witness leave it unreachable? The
/// caller mutates a copy of the graph (unbinding a pvar / removing a link)
/// and asks whether `victim` — identified by ref in that copy — died.
bool unreachable_in(const Rsg& g, NodeRef victim) {
  const auto reach = g.reachable_from_pvars();
  return !reach[victim];
}

struct Checker {
  const ProgramAnalysis& program;
  const AnalysisResult& result;
  const CheckOptions& options;
  std::vector<Finding> findings;

  void add(CheckKind kind, CheckSeverity severity, NodeId site,
           std::string message, std::string witness, std::size_t bad,
           std::size_t total, bool degraded = false) {
    Finding f;
    f.kind = kind;
    f.severity = severity;
    f.site = site;
    const cfg::SimpleStmt& stmt = program.cfg.node(site).stmt;
    f.loc = stmt.loc;
    f.stmt = cfg::to_string(stmt, program.interner());
    f.message = std::move(message);
    f.witness_node = std::move(witness);
    f.graphs_bad = bad;
    f.graphs_total = total;
    f.degraded = degraded;
    if (degraded) {
      // Confidence taint: no untainted configuration witnesses the defect,
      // so a havoc over-approximation may have fabricated it. Downgrade but
      // never drop.
      if (f.severity == CheckSeverity::kError)
        f.severity = CheckSeverity::kWarning;
      f.message += " — possible (degraded frontend)";
    }
    if (options.witness_traces)
      f.trace = witness_trace(program, site, options.max_trace_steps);
    findings.push_back(std::move(f));
  }

  /// A configuration's defect witness is havoc-tainted when the graph went
  /// through a havoc transfer (graph bit survives JOIN) or the specific
  /// witness node carries the taint (node bit survives COMPRESS merges).
  static bool tainted_witness(const Rsg& g, NodeRef n) {
    if (g.havoc()) return true;
    return n != kNoNode && g.props(n).havoc;
  }

  [[nodiscard]] std::string_view spell(Symbol s) const {
    return program.interner().spelling(s);
  }

  // --- NULL dereference + use-after-free at dereference sites -------------

  void check_deref(NodeId id, const std::vector<const Rsg*>& in) {
    const cfg::SimpleStmt& stmt = program.cfg.node(id).stmt;
    const auto base = deref_base(stmt);
    if (!base) return;

    std::size_t null_bad = 0;
    std::size_t null_clean = 0;
    std::size_t freed_bad = 0;
    std::size_t freed_clean = 0;
    bool all_freed_definite = true;
    std::string witness;
    for (const Rsg* g : in) {
      const NodeRef n = g->pvar_target(*base);
      if (n == kNoNode) {
        ++null_bad;
        if (!tainted_witness(*g, n)) ++null_clean;
        continue;
      }
      if (rsg::may_be_freed(g->props(n).free_state)) {
        ++freed_bad;
        if (!tainted_witness(*g, n)) ++freed_clean;
        all_freed_definite &=
            g->props(n).free_state == FreeState::kFreed;
        if (witness.empty()) witness = render_node(program, *g, n);
      }
    }

    if (options.null_deref && null_bad > 0) {
      const bool definite = null_bad == in.size();
      std::ostringstream msg;
      msg << "dereference of '" << spell(*base) << "' which "
          << (definite ? "is" : "may be") << " NULL (" << null_bad << " of "
          << in.size() << " incoming configurations)";
      add(CheckKind::kNullDeref,
          definite ? CheckSeverity::kError : CheckSeverity::kWarning, id,
          msg.str(), /*witness=*/"", null_bad, in.size(),
          /*degraded=*/null_clean == 0);
    }
    if (options.use_after_free && freed_bad > 0) {
      const bool definite =
          freed_bad == in.size() && all_freed_definite;
      std::ostringstream msg;
      msg << "use of '" << spell(*base) << "' after free ("
          << freed_bad << " of " << in.size()
          << " incoming configurations reference freed memory)";
      add(CheckKind::kUseAfterFree,
          definite ? CheckSeverity::kError : CheckSeverity::kWarning, id,
          msg.str(), std::move(witness), freed_bad, in.size(),
          /*degraded=*/freed_clean == 0);
    }
  }

  // --- double free ---------------------------------------------------------

  void check_free(NodeId id, const std::vector<const Rsg*>& in) {
    const cfg::SimpleStmt& stmt = program.cfg.node(id).stmt;
    if (stmt.op != SimpleOp::kFree || !options.use_after_free) return;

    std::size_t bad = 0;
    std::size_t clean = 0;
    bool all_definite = true;
    std::string witness;
    for (const Rsg* g : in) {
      const NodeRef n = g->pvar_target(stmt.x);
      if (n == kNoNode) continue;  // free(NULL) is well-defined
      if (!rsg::may_be_freed(g->props(n).free_state)) continue;
      ++bad;
      if (!tainted_witness(*g, n)) ++clean;
      all_definite &= g->props(n).free_state == FreeState::kFreed;
      if (witness.empty()) witness = render_node(program, *g, n);
    }
    if (bad == 0) return;
    const bool definite = bad == in.size() && all_definite;
    std::ostringstream msg;
    msg << "double free of '" << spell(stmt.x) << "' (" << bad << " of "
        << in.size() << " incoming configurations already freed it)";
    add(CheckKind::kDoubleFree,
        definite ? CheckSeverity::kError : CheckSeverity::kWarning, id,
        msg.str(), std::move(witness), bad, in.size(),
        /*degraded=*/clean == 0);
  }

  // --- leaks at reference kills -------------------------------------------

  /// Record the victims (per incoming graph) a statement's kill makes
  /// unreachable, then fold them into at most one finding for the site.
  void check_leak(NodeId id, const std::vector<const Rsg*>& in) {
    if (!options.leaks) return;
    const cfg::SimpleStmt& stmt = program.cfg.node(id).stmt;

    std::size_t bad = 0;
    std::size_t clean = 0;
    std::string witness;
    std::string sites;
    for (const Rsg* g : in) {
      const NodeRef victim = leaked_victim(stmt, *g);
      if (victim == kNoNode) continue;
      ++bad;
      if (!tainted_witness(*g, victim)) ++clean;
      if (witness.empty()) {
        witness = render_node(program, *g, victim);
        sites = alloc_sites_of(*g, victim);
      }
    }
    if (bad == 0) return;

    std::ostringstream msg;
    msg << "last reference to heap memory";
    if (!sites.empty()) msg << " allocated at " << sites;
    msg << " is lost here (" << bad << " of " << in.size()
        << " incoming configurations)";
    add(CheckKind::kLeak, CheckSeverity::kWarning, id, msg.str(),
        std::move(witness), bad, in.size(), /*degraded=*/clean == 0);
  }

  /// The node `stmt` makes unreachable in `g`, or kNoNode. Simulates only
  /// the *kill* half of the statement on a copy (unbinding the destination
  /// pvar / removing the overwritten link); the gen half can resurrect the
  /// victim only in the cases handled explicitly below.
  [[nodiscard]] NodeRef leaked_victim(const cfg::SimpleStmt& stmt,
                                      const Rsg& g) const {
    switch (stmt.op) {
      case SimpleOp::kPtrNull:
      case SimpleOp::kPtrMalloc:
      case SimpleOp::kPtrCopy:
      case SimpleOp::kLoad: {
        const NodeRef old = g.pvar_target(stmt.x);
        if (old == kNoNode) return kNoNode;
        if (g.props(old).free_state == FreeState::kFreed)
          return kNoNode;  // freed memory cannot leak
        // x = x is a no-op; x = x->sel handled below.
        if (stmt.op == SimpleOp::kPtrCopy && stmt.x == stmt.y) return kNoNode;
        Rsg sim = g;
        sim.unbind_pvar(stmt.x);
        if (!unreachable_in(sim, old)) return kNoNode;
        // x = y->sel may rebind x to the victim itself: no leak when that
        // rebinding is certain (definite unique sel-target).
        if (stmt.op == SimpleOp::kLoad) {
          const NodeRef yn = g.pvar_target(stmt.y);
          if (yn != kNoNode && g.definite_link(yn, stmt.sel, old))
            return kNoNode;
        }
        return old;
      }
      case SimpleOp::kStoreNull:
      case SimpleOp::kStore: {
        const NodeRef xn = g.pvar_target(stmt.x);
        if (xn == kNoNode) return kNoNode;
        for (const NodeRef t : g.sel_targets(xn, stmt.sel)) {
          if (g.props(t).free_state == FreeState::kFreed) continue;
          Rsg sim = g;
          sim.remove_link(xn, stmt.sel, t);
          if (unreachable_in(sim, t)) return t;
        }
        return kNoNode;
      }
      default:
        return kNoNode;
    }
  }

  // --- leaks at function exit ---------------------------------------------

  void check_exit_leaks() {
    if (!options.exit_leaks) return;
    const NodeId exit = program.cfg.exit();
    const auto& set = result.per_node[exit];
    if (set.empty()) return;

    // One finding per allocation site still live in some exit graph; nodes
    // without a recorded site fold into a line-0 bucket reported at exit.
    struct ExitSlot {
      std::size_t bad = 0;
      bool clean = false;  // some untainted witness exists
      std::string witness;
    };
    std::map<std::uint32_t, ExitSlot> by_line;
    for (const Rsg& g : set.graphs()) {
      for (const NodeRef n : g.node_refs()) {
        const rsg::NodeProps& props = g.props(n);
        if (props.free_state == FreeState::kFreed) continue;
        auto note = [&](std::uint32_t line) {
          ExitSlot& slot = by_line[line];
          ++slot.bad;
          if (!tainted_witness(g, n)) slot.clean = true;
          if (slot.witness.empty()) slot.witness = render_node(program, g, n);
        };
        if (props.alloc_sites.empty()) {
          note(0);
        } else {
          for (const std::uint32_t line : props.alloc_sites) note(line);
        }
      }
    }

    for (auto& [line, slot] : by_line) {
      Finding f;
      f.kind = CheckKind::kLeakAtExit;
      f.severity = CheckSeverity::kNote;
      f.site = exit;
      f.loc = line == 0 ? program.cfg.node(exit).stmt.loc
                        : support::SourceLoc{line, 1};
      f.stmt = "<function exit>";
      std::ostringstream msg;
      if (line == 0) {
        msg << "heap memory may still be live at function exit";
      } else {
        msg << "memory allocated at line " << line
            << " may still be live at function exit (never freed)";
      }
      f.message = msg.str();
      if (!slot.clean) f.message += " — possible (degraded frontend)";
      f.degraded = !slot.clean;
      f.witness_node = std::move(slot.witness);
      f.graphs_bad = slot.bad;
      f.graphs_total = set.size();
      findings.push_back(std::move(f));
    }
  }

  void run() {
    const std::vector<Rsg> entry(1);  // the all-NULL entry configuration
    for (NodeId id = 0; id < program.cfg.size(); ++id) {
      const auto in =
          analysis::statement_inputs(program.cfg, result, id, entry);
      if (in.empty()) continue;  // unreachable / not analyzed (partial run)
      check_deref(id, in);
      check_free(id, in);
      check_leak(id, in);
    }
    check_exit_leaks();

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
                if (a.loc.column != b.loc.column)
                  return a.loc.column < b.loc.column;
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              });
  }
};

}  // namespace

std::vector<Finding> run_checkers(const ProgramAnalysis& program,
                                  const AnalysisResult& result,
                                  const CheckOptions& options) {
  PSA_PHASE_TIMER(checker_timer, support::Counter::kPhaseCheckerWallNs,
                  support::Counter::kPhaseCheckerCpuNs);
  Checker checker{program, result, options, {}};
  checker.run();
  return std::move(checker.findings);
}

std::string format_findings(const std::vector<Finding>& findings,
                            const ProgramAnalysis& program) {
  (void)program;
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.loc.line << ":" << f.loc.column << ": " << to_string(f.severity)
       << ": [" << rule_id(f.kind) << "] " << f.message << "\n";
    os << "    at: " << f.stmt << "\n";
    if (!f.witness_node.empty())
      os << "    witness node: " << f.witness_node << "\n";
    if (!f.trace.empty()) {
      os << "    path:\n";
      for (const TraceStep& step : f.trace) {
        os << "      ";
        if (step.loc.valid()) os << "line " << step.loc.line << ": ";
        os << step.text << "\n";
      }
    }
  }
  if (findings.empty()) os << "no findings\n";
  return os.str();
}

std::size_t count_findings(const std::vector<Finding>& findings,
                           CheckKind kind) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [kind](const Finding& f) { return f.kind == kind; }));
}

}  // namespace psa::checker
