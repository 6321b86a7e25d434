#include "cfg/cfg.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace psa::cfg {

using lang::Expr;
using lang::ExprKind;
using lang::Stmt;
using lang::StmtKind;
using lang::Type;

NodeId Cfg::add_node(SimpleStmt stmt) {
  nodes_.push_back(CfgNode{std::move(stmt), {}, {}, {}});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Cfg::add_edge(NodeId from, NodeId to) {
  nodes_[from].succs.push_back(to);
  nodes_[to].preds.push_back(from);
}

std::vector<Symbol> Cfg::selectors() const {
  std::vector<Symbol> out;
  for (const CfgNode& node : nodes_)
    if (node.stmt.sel.valid()) out.push_back(node.stmt.sel);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Cfg::dump(const support::Interner& interner) const {
  std::ostringstream os;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const CfgNode& n = nodes_[id];
    os << '#' << id << ": " << to_string(n.stmt, interner) << "  ->";
    for (NodeId s : n.succs) os << ' ' << s;
    if (!n.loops.empty()) {
      os << "  [loops";
      for (auto l : n.loops) os << ' ' << l;
      os << ']';
    }
    os << '\n';
  }
  return os.str();
}

/// Builds the statement-level CFG for one function. Defined here (not in an
/// anonymous namespace) because it is the Cfg's friend.
class CfgBuilder {
 public:
  CfgBuilder(lang::TranslationUnit& unit, const lang::FunctionInfo& fn,
             support::DiagnosticEngine& diags)
      : unit_(unit), fn_(fn), diags_(diags) {}

  Cfg build() {
    // Entry and exit are kNop statements: a value-initialized SimpleStmt.
    cfg_.entry_ = fresh(SimpleStmt{});
    cursor_ = cfg_.entry_;
    cfg_.exit_ = fresh(SimpleStmt{});

    for (const auto& [sym, ty] : fn_.variables) {
      if (ty.is_struct_pointer()) cfg_.pvar_struct_[sym] = *ty.struct_id;
    }

    // Struct-pointer-returning functions materialize every `return expr` in
    // the reserved __ret pvar; callee summaries read it at the exit node.
    if (fn_.decl->return_type.is_struct_pointer()) {
      ret_struct_ = *fn_.decl->return_type.struct_id;
      ret_var_ = unit_.interner->intern("__ret");
      cfg_.pvar_struct_[ret_var_] = ret_struct_;
    }

    visit_stmt(*fn_.decl->body);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, cfg_.exit_);

    // Final pvar list: declared pvars plus lowering temporaries.
    cfg_.pointer_vars_ = fn_.pointer_vars;
    for (const auto& t : temps_) cfg_.pointer_vars_.push_back(t);
    if (ret_var_.valid()) cfg_.pointer_vars_.push_back(ret_var_);
    std::sort(cfg_.pointer_vars_.begin(), cfg_.pointer_vars_.end());
    return std::move(cfg_);
  }

 private:
  struct LoopCtx {
    std::uint32_t id = 0;
    NodeId continue_target = kInvalidNode;
    std::vector<NodeId> break_sources;  // nodes whose successor is the exit
  };

  // -------------------------------------------------------------------------
  // Node emission
  // -------------------------------------------------------------------------

  NodeId fresh(SimpleStmt stmt) {
    const NodeId id = cfg_.add_node(std::move(stmt));
    cfg_.nodes_[id].loops = loop_stack_;
    for (auto lid : loop_stack_) {
      cfg_.loop_scopes_[lid - 1].members.push_back(id);
    }
    return id;
  }

  /// Append a node after the cursor (if reachable) and move the cursor.
  NodeId emit(SimpleStmt stmt) {
    const NodeId id = fresh(std::move(stmt));
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, id);
    cursor_ = id;
    return id;
  }

  SimpleStmt make(SimpleOp op, support::SourceLoc loc) {
    SimpleStmt s;
    s.op = op;
    s.loc = loc;
    return s;
  }

  // -------------------------------------------------------------------------
  // Temporaries
  // -------------------------------------------------------------------------

  Symbol new_temp(StructId type) {
    std::ostringstream os;
    os << "__t" << temp_counter_++;
    const Symbol sym = unit_.interner->intern(os.str());
    temps_.push_back(sym);
    cfg_.pvar_struct_[sym] = type;
    return sym;
  }

  void kill_temps(std::vector<Symbol>& kill_list, support::SourceLoc loc) {
    for (auto it = kill_list.rbegin(); it != kill_list.rend(); ++it) {
      SimpleStmt s = make(SimpleOp::kPtrNull, loc);
      s.x = *it;
      emit(std::move(s));
    }
    kill_list.clear();
  }

  // -------------------------------------------------------------------------
  // Expression lowering
  // -------------------------------------------------------------------------

  /// Lower a pointer access path (var or var->sel->...) to a single pvar,
  /// emitting Load temporaries as needed. Returns the invalid symbol on
  /// malformed input (already diagnosed by Sema).
  Symbol lower_path(const Expr& expr, std::vector<Symbol>& kill_list) {
    switch (expr.kind) {
      case ExprKind::kVarRef:
        return expr.name;
      case ExprKind::kCast:
        return lower_path(*expr.lhs, kill_list);
      case ExprKind::kFieldAccess: {
        const Symbol base = lower_path(*expr.lhs, kill_list);
        if (!base.valid()) return Symbol();
        if (!expr.type.is_struct_pointer()) {
          diags_.unsupported(expr.loc, "pointer path ends in a non-pointer field");
          return Symbol();
        }
        const Symbol t = new_temp(*expr.type.struct_id);
        kill_list.push_back(t);
        SimpleStmt s = make(SimpleOp::kLoad, expr.loc);
        s.x = t;
        s.y = base;
        s.sel = expr.name;
        emit(std::move(s));
        return t;
      }
      case ExprKind::kCall:
        // A summarizable call returning a struct pointer is a valid path
        // root: lower it into a temporary, e.g. `f(p)->nxt`.
        if (expr.summarizable && expr.type.is_struct_pointer()) {
          const Symbol t = new_temp(*expr.type.struct_id);
          kill_list.push_back(t);
          emit_call(expr, t, kill_list);
          return t;
        }
        diags_.unsupported(expr.loc, "expression is not a pointer access path");
        return Symbol();
      default:
        diags_.unsupported(expr.loc, "expression is not a pointer access path");
        return Symbol();
    }
  }

  /// Unwrap casts; returns the malloc expression when `e` is a (possibly
  /// cast) malloc, nullptr otherwise.
  static const Expr* as_malloc(const Expr& e) {
    if (e.kind == ExprKind::kMalloc) return &e;
    if (e.kind == ExprKind::kCast) return as_malloc(*e.lhs);
    return nullptr;
  }

  // -------------------------------------------------------------------------
  // Salvage mode: havoc lowering
  // -------------------------------------------------------------------------

  /// True when sema marked any node of this expression tree unsupported.
  static bool subtree_unsupported(const Expr& e) {
    if (e.unsupported) return true;
    if (e.lhs && subtree_unsupported(*e.lhs)) return true;
    if (e.rhs && subtree_unsupported(*e.rhs)) return true;
    for (const auto& a : e.args) {
      if (subtree_unsupported(*a)) return true;
    }
    return false;
  }

  /// True when the tree contains an unsupported call (sema marks the call
  /// itself when a struct pointer escapes into it — the unknown callee may
  /// then mutate anything reachable, so the statement needs a global havoc).
  static bool contains_unsupported_call(const Expr& e) {
    if (e.kind == ExprKind::kCall && e.unsupported) return true;
    if (e.lhs && contains_unsupported_call(*e.lhs)) return true;
    if (e.rhs && contains_unsupported_call(*e.rhs)) return true;
    for (const auto& a : e.args) {
      if (contains_unsupported_call(*a)) return true;
    }
    return false;
  }

  /// havoc(*): the statement may rewrite anything reachable; the transfer
  /// function collapses the graph to typed ⊤ and taints it.
  void emit_havoc_global(support::SourceLoc loc) {
    emit(make(SimpleOp::kHavoc, loc));
  }

  /// havoc(x): x is re-bound to an arbitrary type-correct value; the heap
  /// shape reachable from other pvars is preserved.
  void emit_havoc_rebind(Symbol x, StructId type, support::SourceLoc loc) {
    SimpleStmt s = make(SimpleOp::kHavoc, loc);
    s.x = x;
    s.type = type;
    emit(std::move(s));
  }

  static const Expr* strip_casts(const Expr& e) {
    return e.kind == ExprKind::kCast ? strip_casts(*e.lhs) : &e;
  }

  // -------------------------------------------------------------------------
  // Interprocedural calls
  // -------------------------------------------------------------------------

  /// The in-unit FunctionDecl sema resolved a summarizable call against.
  [[nodiscard]] const lang::FunctionDecl* find_callee(Symbol name) const {
    for (const auto& f : unit_.functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  /// True for a summarizable call whose lowering needs a kCall statement:
  /// it passes or returns struct pointers. Pure scalar in-unit calls have no
  /// caller-visible shape effect (the subset has no globals), so they stay
  /// opaque kScalar statements.
  static bool is_effect_call(const Expr& e) {
    if (e.kind != ExprKind::kCall || !e.summarizable) return false;
    if (e.type.is_struct_pointer()) return true;
    for (const auto& a : e.args) {
      if (a->type.is_struct_pointer()) return true;
    }
    return false;
  }

  static bool contains_effect_call(const Expr& e) {
    if (is_effect_call(e)) return true;
    if (e.lhs && contains_effect_call(*e.lhs)) return true;
    if (e.rhs && contains_effect_call(*e.rhs)) return true;
    for (const auto& a : e.args) {
      if (contains_effect_call(*a)) return true;
    }
    return false;
  }

  /// Lower one summarizable call to a kCall statement carrying the callee
  /// name and one pvar per struct-pointer argument. `dest` receives the
  /// return value (invalid for value-discarded calls). When an argument
  /// cannot be lowered to a pvar the call degrades to the PR 5 havoc
  /// over-approximation instead.
  void emit_call(const Expr& call, Symbol dest,
                 std::vector<Symbol>& kill_list) {
    const lang::FunctionDecl* callee = find_callee(call.name);
    if (callee == nullptr || callee->params.size() != call.args.size()) {
      // Sema guarantees resolution for summarizable calls; degrade soundly
      // if the invariant ever breaks.
      emit_havoc_global(call.loc);
      if (dest.valid()) {
        emit_havoc_rebind(dest, *call.type.struct_id, call.loc);
      }
      return;
    }
    SimpleStmt s = make(SimpleOp::kCall, call.loc);
    s.callee = call.name;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      const Expr& arg = *call.args[i];
      if (!callee->params[i].type.is_struct_pointer()) {
        // Scalar argument: no region contribution, but it may read fields
        // and contain further summarizable calls of its own.
        lower_scalar_reads(arg, kill_list);
        continue;
      }
      const Expr* stripped = strip_casts(arg);
      Symbol a;
      if (stripped->kind == ExprKind::kNullLit) {
        a = new_temp(*callee->params[i].type.struct_id);
        kill_list.push_back(a);
        SimpleStmt sn = make(SimpleOp::kPtrNull, arg.loc);
        sn.x = a;
        emit(std::move(sn));
      } else if (const Expr* m = as_malloc(arg)) {
        a = new_temp(*m->type.struct_id);
        kill_list.push_back(a);
        SimpleStmt sm = make(SimpleOp::kPtrMalloc, arg.loc);
        sm.x = a;
        sm.type = *m->type.struct_id;
        emit(std::move(sm));
      } else {
        a = lower_path(*stripped, kill_list);
      }
      if (!a.valid()) {
        // Argument path unrecoverable: the callee may reach anything.
        emit_havoc_global(call.loc);
        if (dest.valid()) {
          emit_havoc_rebind(dest, *call.type.struct_id, call.loc);
        }
        return;
      }
      s.args.push_back(a);
    }
    if (dest.valid()) {
      s.x = dest;
      s.type = *call.type.struct_id;
    }
    emit(std::move(s));
  }

  // -------------------------------------------------------------------------
  // Assignments
  // -------------------------------------------------------------------------

  /// Emit kFieldRead markers for every scalar field read through a struct
  /// pointer inside `e` (client passes consume them; the shape transfer is
  /// the identity) and kCall statements for every summarizable call with
  /// pointer effects. Returns how many reads/calls were emitted.
  int lower_scalar_reads(const Expr& e, std::vector<Symbol>& kill_list) {
    switch (e.kind) {
      case ExprKind::kFieldAccess:
        if (!e.type.is_struct_pointer() && e.lhs->type.is_struct_pointer()) {
          const Symbol base = lower_path(*e.lhs, kill_list);
          if (base.valid()) {
            SimpleStmt s = make(SimpleOp::kFieldRead, e.loc);
            s.x = base;
            s.sel = e.name;
            emit(std::move(s));
            return 1;
          }
          return 0;
        }
        // Pointer-typed access in a scalar context: the base may still
        // contain a summarizable call whose effects must be applied.
        if (e.type.is_struct_pointer() && e.lhs != nullptr) {
          return lower_scalar_reads(*e.lhs, kill_list);
        }
        return 0;
      case ExprKind::kUnary:
      case ExprKind::kCast:
        return e.lhs ? lower_scalar_reads(*e.lhs, kill_list) : 0;
      case ExprKind::kBinary:
        return lower_scalar_reads(*e.lhs, kill_list) +
               lower_scalar_reads(*e.rhs, kill_list);
      case ExprKind::kCall: {
        if (is_effect_call(e)) {
          Symbol dest;
          if (e.type.is_struct_pointer()) {
            dest = new_temp(*e.type.struct_id);
            kill_list.push_back(dest);
          }
          emit_call(e, dest, kill_list);
          return 1;
        }
        int reads = 0;
        for (const auto& a : e.args) reads += lower_scalar_reads(*a, kill_list);
        return reads;
      }
      default:
        return 0;
    }
  }

  void lower_assign(const Expr& lhs, const Expr& rhs, support::SourceLoc loc) {
    const bool tainted = subtree_unsupported(lhs) || subtree_unsupported(rhs);
    const bool mutating =
        contains_unsupported_call(lhs) || contains_unsupported_call(rhs);

    if (!lhs.type.is_struct_pointer()) {
      if (tainted) {
        // Unsupported reads cannot change the heap shape; only an unknown
        // call that received a struct pointer can. Skip the field-access
        // markers — an unsupported path could register bogus selectors.
        if (mutating) {
          emit_havoc_global(loc);
        } else {
          emit(make(SimpleOp::kScalar, loc));
        }
        return;
      }
      // Scalar effect only: no shape change, but client passes need the
      // field accesses for dependence reasoning.
      std::vector<Symbol> kill_list;
      int accesses = lower_scalar_reads(rhs, kill_list);
      if (lhs.kind == ExprKind::kFieldAccess &&
          lhs.lhs->type.is_struct_pointer()) {
        const Symbol base = lower_path(*lhs.lhs, kill_list);
        if (base.valid()) {
          SimpleStmt s = make(SimpleOp::kFieldWrite, loc);
          s.x = base;
          s.sel = lhs.name;
          emit(std::move(s));
          ++accesses;
        }
      }
      if (accesses == 0) emit(make(SimpleOp::kScalar, loc));
      kill_temps(kill_list, loc);
      return;
    }

    if (tainted) {
      // Pointer assignment with an unsupported part. An unknown mutating
      // call first havocs everything it could reach; then, when the target
      // is a plain (supported) variable, the assignment itself is a sound
      // re-bind of just that variable. Any other target could write to an
      // arbitrary heap cell: global havoc.
      if (mutating) emit_havoc_global(loc);
      if (lhs.kind == ExprKind::kVarRef && !lhs.unsupported) {
        emit_havoc_rebind(lhs.name, *lhs.type.struct_id, loc);
      } else if (!mutating) {
        emit_havoc_global(loc);
      }
      return;
    }

    std::vector<Symbol> kill_list;

    if (lhs.kind == ExprKind::kVarRef) {
      const Symbol x = lhs.name;
      if (rhs.kind == ExprKind::kNullLit) {
        SimpleStmt s = make(SimpleOp::kPtrNull, loc);
        s.x = x;
        emit(std::move(s));
      } else if (const Expr* m = as_malloc(rhs)) {
        SimpleStmt s = make(SimpleOp::kPtrMalloc, loc);
        s.x = x;
        s.type = *m->type.struct_id;
        emit(std::move(s));
      } else {
        const Expr* src = strip_casts(rhs);
        if (src->kind == ExprKind::kVarRef) {
          SimpleStmt s = make(SimpleOp::kPtrCopy, loc);
          s.x = x;
          s.y = src->name;
          emit(std::move(s));
        } else if (src->kind == ExprKind::kFieldAccess) {
          // x = path->sel : lower the base, then a single Load into x.
          const Symbol base = lower_path(*src->lhs, kill_list);
          if (base.valid()) {
            SimpleStmt s = make(SimpleOp::kLoad, loc);
            s.x = x;
            s.y = base;
            s.sel = src->name;
            emit(std::move(s));
          } else if (diags_.salvage()) {
            // Source path unrecoverable: x still receives *some* value.
            emit_havoc_rebind(x, *lhs.type.struct_id, loc);
          }
        } else if (src->kind == ExprKind::kCall && src->summarizable &&
                   src->type.is_struct_pointer()) {
          // x = f(args): a kCall statement binds x from the callee summary.
          emit_call(*src, x, kill_list);
        } else {
          diags_.unsupported(rhs.loc, "unsupported pointer assignment source");
          if (diags_.salvage()) {
            emit_havoc_rebind(x, *lhs.type.struct_id, loc);
          }
        }
      }
    } else if (lhs.kind == ExprKind::kFieldAccess) {
      // path->sel = rhs. Evaluate the source first (C evaluation order is
      // unspecified here; sources are side-effect-free loads, so any order
      // is equivalent — we keep rhs-first so the store is always last).
      Symbol src;
      if (rhs.kind == ExprKind::kNullLit) {
        src = Symbol();  // StoreNull
      } else if (const Expr* m = as_malloc(rhs)) {
        src = new_temp(*m->type.struct_id);
        kill_list.push_back(src);
        SimpleStmt s = make(SimpleOp::kPtrMalloc, loc);
        s.x = src;
        s.type = *m->type.struct_id;
        emit(std::move(s));
      } else {
        src = lower_path(*strip_casts(rhs), kill_list);
        if (!src.valid()) {
          // Storing an unrecoverable source into a heap cell: any cell of
          // the written struct type could now hold anything.
          if (diags_.salvage()) emit_havoc_global(loc);
          kill_temps(kill_list, loc);
          return;
        }
      }

      const Symbol base = lower_path(*lhs.lhs, kill_list);
      if (base.valid()) {
        if (src.valid()) {
          SimpleStmt s = make(SimpleOp::kStore, loc);
          s.x = base;
          s.sel = lhs.name;
          s.y = src;
          emit(std::move(s));
        } else {
          SimpleStmt s = make(SimpleOp::kStoreNull, loc);
          s.x = base;
          s.sel = lhs.name;
          emit(std::move(s));
        }
      } else if (diags_.salvage()) {
        emit_havoc_global(loc);
      }
    } else {
      diags_.unsupported(lhs.loc, "unsupported assignment target");
      if (diags_.salvage()) emit_havoc_global(loc);
    }

    kill_temps(kill_list, loc);
  }

  // -------------------------------------------------------------------------
  // Conditions
  // -------------------------------------------------------------------------

  /// Lower a branch condition. Emits load temporaries + the kBranch node and
  /// returns the two successor entry nodes (each an assume or a nop), leaving
  /// `cursor_` invalid (callers wire both arms explicitly).
  struct Branch {
    NodeId then_entry;
    NodeId else_entry;
  };

  Branch lower_condition(const Expr& cond) {
    std::vector<Symbol> kill_list;
    if (contains_unsupported_call(cond)) {
      // Evaluating the condition calls unknown code with a struct pointer;
      // havoc before branching. The condition itself then classifies as
      // opaque below (unsupported subexpressions carry scalar types).
      emit_havoc_global(cond.loc);
    }
    bool force_opaque = false;
    if (contains_effect_call(cond)) {
      // Summarizable calls inside a condition: apply their heap effects
      // before branching, then treat the condition as opaque — once the
      // effects are separated the call result is no longer a refinable
      // null-test subject.
      lower_scalar_reads(cond, kill_list);
      force_opaque = true;
    }
    const auto arms = (subtree_unsupported(cond) || force_opaque)
                          ? CondShape{}
                          : classify_condition(cond, kill_list);
    const NodeId branch = emit(make(SimpleOp::kBranch, cond.loc));

    Branch out{};
    auto arm_node = [&](SimpleOp op, Symbol subject) {
      SimpleStmt s = make(op, cond.loc);
      s.x = subject;
      const NodeId id = fresh(std::move(s));
      cfg_.add_edge(branch, id);
      return id;
    };

    if (arms.subject.valid()) {
      out.then_entry = arm_node(
          arms.then_is_null ? SimpleOp::kAssumeNull : SimpleOp::kAssumeNotNull,
          arms.subject);
      out.else_entry = arm_node(
          arms.then_is_null ? SimpleOp::kAssumeNotNull : SimpleOp::kAssumeNull,
          arms.subject);
    } else {
      out.then_entry = arm_node(SimpleOp::kNop, Symbol());
      out.else_entry = arm_node(SimpleOp::kNop, Symbol());
    }

    // Condition temporaries die on both arms.
    for (NodeId* entry : {&out.then_entry, &out.else_entry}) {
      cursor_ = *entry;
      NodeId last = *entry;
      for (auto it = kill_list.rbegin(); it != kill_list.rend(); ++it) {
        SimpleStmt s = make(SimpleOp::kPtrNull, cond.loc);
        s.x = *it;
        last = emit(std::move(s));
      }
      *entry = *entry;  // entry stays the first node of the arm
      arm_tails_.push_back(last);
    }
    // Record tails so callers attach bodies after the kills.
    out_then_tail_ = arm_tails_[arm_tails_.size() - 2];
    out_else_tail_ = arm_tails_.back();
    arm_tails_.clear();
    cursor_ = kInvalidNode;
    return out;
  }

  /// The node each arm's body should be linked after (entry + temp kills).
  NodeId out_then_tail_ = kInvalidNode;
  NodeId out_else_tail_ = kInvalidNode;
  std::vector<NodeId> arm_tails_;

  struct CondShape {
    Symbol subject;          // invalid => opaque condition
    bool then_is_null = false;
  };

  /// Recognize NULL tests (p, !p, p == NULL, p != NULL, path->sel == NULL...)
  /// and emit the loads their access paths need.
  CondShape classify_condition(const Expr& cond, std::vector<Symbol>& kill_list) {
    switch (cond.kind) {
      case ExprKind::kVarRef:
      case ExprKind::kFieldAccess:
      case ExprKind::kCast: {
        if (cond.type.is_struct_pointer()) {
          const Symbol v = lower_path_for_condition(cond, kill_list);
          return CondShape{v, /*then_is_null=*/false};
        }
        return CondShape{};
      }
      case ExprKind::kUnary:
        if (cond.unary_op == lang::UnaryOp::kNot) {
          CondShape inner = classify_condition(*cond.lhs, kill_list);
          inner.then_is_null = !inner.then_is_null;
          return inner;
        }
        return CondShape{};
      case ExprKind::kBinary: {
        const bool is_eq = cond.binary_op == lang::BinaryOp::kEq;
        const bool is_ne = cond.binary_op == lang::BinaryOp::kNe;
        if (!is_eq && !is_ne) return CondShape{};
        const Expr* lhs = strip_casts(*cond.lhs);
        const Expr* rhs = strip_casts(*cond.rhs);
        const Expr* ptr_side = nullptr;
        if (lhs->kind == ExprKind::kNullLit &&
            rhs->type.is_struct_pointer()) {
          ptr_side = rhs;
        } else if (rhs->kind == ExprKind::kNullLit &&
                   lhs->type.is_struct_pointer()) {
          ptr_side = lhs;
        }
        if (ptr_side == nullptr) return CondShape{};
        const Symbol v = lower_path_for_condition(*ptr_side, kill_list);
        return CondShape{v, /*then_is_null=*/is_eq};
      }
      default:
        return CondShape{};
    }
  }

  Symbol lower_path_for_condition(const Expr& e, std::vector<Symbol>& kill_list) {
    const Expr* stripped = strip_casts(e);
    if (stripped->kind == ExprKind::kVarRef) return stripped->name;
    return lower_path(*stripped, kill_list);
  }

  // -------------------------------------------------------------------------
  // Statements
  // -------------------------------------------------------------------------

  void visit_stmt(const Stmt& stmt) {
    if (cursor_ == kInvalidNode && stmt.kind != StmtKind::kBlock) {
      // Unreachable code after break/continue/return: skip.
      return;
    }
    switch (stmt.kind) {
      case StmtKind::kDecl:
        for (const auto& d : stmt.decls) {
          if (!d.init) {
            // Pointer locals start unbound — emit an explicit kill so the
            // analysis state is well-defined even without initializer.
            if (d.type.is_struct_pointer()) {
              SimpleStmt s = make(SimpleOp::kPtrNull, d.loc);
              s.x = d.name;
              emit(std::move(s));
            }
            continue;
          }
          Expr lhs_ref;
          lhs_ref.kind = ExprKind::kVarRef;
          lhs_ref.loc = d.loc;
          lhs_ref.name = d.name;
          lhs_ref.type = d.type;
          lower_assign(lhs_ref, *d.init, d.loc);
        }
        break;
      case StmtKind::kAssign:
        lower_assign(*stmt.lhs, *stmt.rhs, stmt.loc);
        break;
      case StmtKind::kExpr:
        if (contains_unsupported_call(*stmt.lhs)) {
          emit_havoc_global(stmt.loc);
        } else if (contains_effect_call(*stmt.lhs)) {
          // Value-discarded summarizable call(s), e.g. `append(l, n);`.
          std::vector<Symbol> kill_list;
          if (lower_scalar_reads(*stmt.lhs, kill_list) == 0) {
            emit(make(SimpleOp::kScalar, stmt.loc));
          }
          kill_temps(kill_list, stmt.loc);
        } else {
          emit(make(SimpleOp::kScalar, stmt.loc));
        }
        break;
      case StmtKind::kFree: {
        std::vector<Symbol> kill_list;
        if (subtree_unsupported(*stmt.lhs)) {
          // free() of an unsupported path: some cell may be released and the
          // path evaluation may call unknown code. (The salvage envelope
          // documents that havoc'd frees are modeled as leaks, not
          // deallocations — see docs/RESILIENCE.md.)
          emit_havoc_global(stmt.loc);
          break;
        }
        if (stmt.lhs->type.is_struct_pointer()) {
          const Symbol v = lower_path_for_condition(*stmt.lhs, kill_list);
          SimpleStmt s = make(SimpleOp::kFree, stmt.loc);
          s.x = v;
          emit(std::move(s));
        } else {
          emit(make(SimpleOp::kScalar, stmt.loc));
        }
        kill_temps(kill_list, stmt.loc);
        break;
      }
      case StmtKind::kBlock:
        for (const auto& s : stmt.body) visit_stmt(*s);
        break;
      case StmtKind::kIf:
        visit_if(stmt);
        break;
      case StmtKind::kWhile:
        visit_while(stmt);
        break;
      case StmtKind::kDoWhile:
        visit_do_while(stmt);
        break;
      case StmtKind::kFor:
        visit_for(stmt);
        break;
      case StmtKind::kReturn:
        if (stmt.lhs != nullptr) {
          if (ret_var_.valid()) {
            lower_return_value(*stmt.lhs, stmt.loc);
          } else if (contains_unsupported_call(*stmt.lhs)) {
            emit_havoc_global(stmt.loc);
          } else if (contains_effect_call(*stmt.lhs)) {
            std::vector<Symbol> kill_list;
            if (lower_scalar_reads(*stmt.lhs, kill_list) == 0) {
              emit(make(SimpleOp::kScalar, stmt.loc));
            }
            kill_temps(kill_list, stmt.loc);
          } else {
            emit(make(SimpleOp::kScalar, stmt.loc));
          }
        }
        if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, cfg_.exit_);
        cursor_ = kInvalidNode;
        break;
      case StmtKind::kBreak:
        if (loop_ctx_.empty()) {
          diags_.error(stmt.loc, "'break' outside of a loop");
        } else if (cursor_ != kInvalidNode) {
          loop_ctx_.back().break_sources.push_back(cursor_);
        }
        cursor_ = kInvalidNode;
        break;
      case StmtKind::kContinue:
        if (loop_ctx_.empty()) {
          diags_.error(stmt.loc, "'continue' outside of a loop");
        } else if (cursor_ != kInvalidNode) {
          cfg_.add_edge(cursor_, loop_ctx_.back().continue_target);
        }
        cursor_ = kInvalidNode;
        break;
      case StmtKind::kEmpty:
        break;
    }
  }

  /// `return expr;` in a struct-pointer-returning function: materialize the
  /// value in the reserved __ret pvar so a caller's summary can read it.
  void lower_return_value(const Expr& value, support::SourceLoc loc) {
    Expr ref;
    ref.kind = ExprKind::kVarRef;
    ref.loc = loc;
    ref.name = ret_var_;
    ref.type = fn_.decl->return_type;

    const Expr* m = as_malloc(value);
    const bool typed_ok =
        value.kind == ExprKind::kNullLit ||
        (m != nullptr && m->type.is_struct_pointer() &&
         *m->type.struct_id == ret_struct_) ||
        (value.type.is_struct_pointer() &&
         *value.type.struct_id == ret_struct_);
    if (subtree_unsupported(value) || typed_ok) {
      lower_assign(ref, value, loc);
      return;
    }
    // Returning a scalar or mistyped value from a pointer function: __ret
    // holds an unknown value of the declared type.
    emit_havoc_rebind(ret_var_, ret_struct_, loc);
  }

  void visit_if(const Stmt& stmt) {
    const Branch br = lower_condition(*stmt.cond);
    const NodeId then_tail = out_then_tail_;
    const NodeId else_tail = out_else_tail_;

    const NodeId join = fresh(make(SimpleOp::kNop, stmt.loc));

    cursor_ = then_tail;
    visit_stmt(*stmt.then_body);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, join);

    cursor_ = else_tail;
    if (stmt.else_body != nullptr) visit_stmt(*stmt.else_body);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, join);

    cursor_ = join;
    (void)br;
  }

  std::uint32_t open_loop(support::SourceLoc loc) {
    LoopScope scope;
    scope.id = static_cast<std::uint32_t>(cfg_.loop_scopes_.size() + 1);
    scope.loc = loc;
    cfg_.loop_scopes_.push_back(scope);
    loop_stack_.push_back(scope.id);
    return scope.id;
  }

  void close_loop() { loop_stack_.pop_back(); }

  void visit_while(const Stmt& stmt) {
    const std::uint32_t loop_id = open_loop(stmt.loc);

    const NodeId head = emit(make(SimpleOp::kNop, stmt.loc));
    cfg_.loop_scopes_[loop_id - 1].header = head;

    loop_ctx_.push_back(LoopCtx{loop_id, head, {}});

    const Branch br = lower_condition(*stmt.cond);
    const NodeId then_tail = out_then_tail_;
    const NodeId else_tail = out_else_tail_;

    cursor_ = then_tail;
    visit_stmt(*stmt.then_body);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, head);

    close_loop();

    SimpleStmt clear = make(SimpleOp::kTouchClear, stmt.loc);
    clear.loop_id = loop_id;
    const NodeId touch_clear = fresh(std::move(clear));
    cfg_.add_edge(else_tail, touch_clear);
    for (NodeId b : loop_ctx_.back().break_sources)
      cfg_.add_edge(b, touch_clear);
    loop_ctx_.pop_back();

    cursor_ = touch_clear;
    (void)br;
  }

  void visit_do_while(const Stmt& stmt) {
    const std::uint32_t loop_id = open_loop(stmt.loc);

    const NodeId head = emit(make(SimpleOp::kNop, stmt.loc));
    cfg_.loop_scopes_[loop_id - 1].header = head;

    // continue in a do-while jumps to the condition; a marker collects it.
    const NodeId cond_entry = fresh(make(SimpleOp::kNop, stmt.loc));
    loop_ctx_.push_back(LoopCtx{loop_id, cond_entry, {}});

    visit_stmt(*stmt.then_body);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, cond_entry);

    cursor_ = cond_entry;
    const Branch br = lower_condition(*stmt.cond);
    const NodeId then_tail = out_then_tail_;
    const NodeId else_tail = out_else_tail_;
    cfg_.add_edge(then_tail, head);

    close_loop();

    SimpleStmt clear = make(SimpleOp::kTouchClear, stmt.loc);
    clear.loop_id = loop_id;
    const NodeId touch_clear = fresh(std::move(clear));
    cfg_.add_edge(else_tail, touch_clear);
    for (NodeId b : loop_ctx_.back().break_sources)
      cfg_.add_edge(b, touch_clear);
    loop_ctx_.pop_back();

    cursor_ = touch_clear;
    (void)br;
  }

  void visit_for(const Stmt& stmt) {
    if (stmt.init != nullptr) visit_stmt(*stmt.init);

    const std::uint32_t loop_id = open_loop(stmt.loc);
    const NodeId head = emit(make(SimpleOp::kNop, stmt.loc));
    cfg_.loop_scopes_[loop_id - 1].header = head;

    // continue in a for-loop jumps to the step; a marker collects it.
    const NodeId step_entry = fresh(make(SimpleOp::kNop, stmt.loc));
    loop_ctx_.push_back(LoopCtx{loop_id, step_entry, {}});

    NodeId then_tail = head;
    NodeId else_tail = kInvalidNode;
    if (stmt.cond != nullptr) {
      const Branch br = lower_condition(*stmt.cond);
      then_tail = out_then_tail_;
      else_tail = out_else_tail_;
      (void)br;
    }

    cursor_ = then_tail;
    visit_stmt(*stmt.then_body);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, step_entry);

    cursor_ = step_entry;
    if (stmt.step != nullptr) visit_stmt(*stmt.step);
    if (cursor_ != kInvalidNode) cfg_.add_edge(cursor_, head);

    close_loop();

    SimpleStmt clear = make(SimpleOp::kTouchClear, stmt.loc);
    clear.loop_id = loop_id;
    const NodeId touch_clear = fresh(std::move(clear));
    if (else_tail != kInvalidNode) cfg_.add_edge(else_tail, touch_clear);
    for (NodeId b : loop_ctx_.back().break_sources)
      cfg_.add_edge(b, touch_clear);
    loop_ctx_.pop_back();

    cursor_ = touch_clear;
    // An infinite `for(;;)` with no breaks leaves touch_clear unreachable;
    // downstream passes skip unreachable nodes.
  }

  lang::TranslationUnit& unit_;
  const lang::FunctionInfo& fn_;
  support::DiagnosticEngine& diags_;
  Cfg cfg_;
  NodeId cursor_ = kInvalidNode;
  std::vector<std::uint32_t> loop_stack_;
  std::vector<LoopCtx> loop_ctx_;
  std::vector<Symbol> temps_;
  int temp_counter_ = 0;
  Symbol ret_var_;          // valid only for struct-pointer-returning functions
  StructId ret_struct_{};
};

Cfg build_cfg(lang::TranslationUnit& unit, const lang::FunctionInfo& fn,
              support::DiagnosticEngine& diags) {
  CfgBuilder builder(unit, fn, diags);
  return builder.build();
}

}  // namespace psa::cfg
