#include "cache/key.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "rsg/serialize.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"

namespace psa::cache {

namespace {

/// The preimage is accumulated through the snapshot ByteWriter: fixed-width
/// little-endian fields and length-prefixed strings, so no two distinct
/// field sequences can collide by concatenation.
class KeyBuilder {
 public:
  void u8(std::uint8_t v) { out_.u8(v); }
  void u32(std::uint32_t v) { out_.u32(v); }
  void u64(std::uint64_t v) { out_.u64(v); }
  void str(std::string_view s) { out_.str(s); }

  [[nodiscard]] CacheKey finish() const {
    const std::string& bytes = out_.bytes();
    CacheKey key;
    key.hi = support::fnv1a(bytes);
    // Independent second lane: a different basis plus a final avalanche so
    // the two halves never cancel the same way.
    key.lo = support::mix64(support::fnv1a(bytes, 0x9ae16a3b2f90404full));
    return key;
  }

 private:
  rsg::ByteWriter out_;
};

void append_struct_name(KeyBuilder& key, const lang::TypeTable& types,
                        lang::StructId id, const support::Interner& interner) {
  if (raw(id) < types.struct_count()) {
    key.str(interner.spelling(types.struct_decl(id).name));
  } else {
    key.str("<invalid-struct>");
  }
}

// The shared preimage clauses below are appended in the same order by every
// key tier, so the unit key and the function-tier keys can never drift on
// what "same options" or "same CFG" means.

/// Wire-format vocabulary: a skewed build must compute different keys.
void append_versions(KeyBuilder& key) {
  key.u32(rsg::kSnapshotVersion);
  key.u32(static_cast<std::uint32_t>(support::kCounterCount));
}

/// Engine options that steer the fixpoint, the checker and frontend-mode
/// switches, and the interprocedural knobs.
void append_options(KeyBuilder& key, const analysis::Options& options,
                    bool check, bool salvage) {
  key.u8(static_cast<std::uint8_t>(options.level));
  key.u8(options.enable_join ? 1 : 0);
  key.u8(options.share_pruning ? 1 : 0);
  key.u64(options.widen_threshold);
  key.u64(options.max_rsgs_per_set);
  key.u64(options.max_node_visits);
  key.u64(options.memory_budget_bytes);
  key.u64(options.deadline_ms);
  key.u8(static_cast<std::uint8_t>(options.budget_policy));
  key.u8(check ? 1 : 0);
  key.u8(salvage ? 1 : 0);
  // Interprocedural knobs: summaries change which transfer runs at every
  // call site, so flipping them must never resurface a stale entry.
  key.u8(options.enable_summaries ? 1 : 0);
  key.u64(options.max_summary_iters);
}

/// The struct table: names, field order, field types. Declaration order is
/// deterministic for a given source.
void append_struct_table(KeyBuilder& key, const lang::TypeTable& types,
                         const support::Interner& interner) {
  key.u32(static_cast<std::uint32_t>(types.struct_count()));
  for (std::size_t s = 0; s < types.struct_count(); ++s) {
    const lang::StructDecl& decl =
        types.struct_decl(static_cast<lang::StructId>(s));
    key.str(interner.spelling(decl.name));
    key.u32(static_cast<std::uint32_t>(decl.fields.size()));
    for (const lang::Field& f : decl.fields) {
      key.str(interner.spelling(f.name));
      key.u8(static_cast<std::uint8_t>(f.type.kind));
      key.u8(f.type.pointee_is_struct ? 1 : 0);
      key.u8(static_cast<std::uint8_t>(f.type.scalar));
      if (f.type.struct_id) {
        append_struct_name(key, types, *f.type.struct_id, interner);
      } else {
        key.str("");
      }
    }
  }
}

/// One lowered CFG: pvar typing (spelling order, so the key is a function
/// of content rather than interner id assignment), then every statement
/// field (spellings, not symbol ids), successor edges and loop nesting.
/// Source locations are included because the cached findings quote them.
void append_cfg(KeyBuilder& key, const cfg::Cfg& cfg,
                const lang::TypeTable& types,
                const support::Interner& interner) {
  std::vector<support::Symbol> pvars = cfg.pointer_vars();
  std::sort(pvars.begin(), pvars.end(),
            [&](support::Symbol a, support::Symbol b) {
              return interner.spelling(a) < interner.spelling(b);
            });
  key.u32(static_cast<std::uint32_t>(pvars.size()));
  for (const support::Symbol pvar : pvars) {
    key.str(interner.spelling(pvar));
    const auto it = cfg.pvar_struct().find(pvar);
    if (it != cfg.pvar_struct().end()) {
      append_struct_name(key, types, it->second, interner);
    } else {
      key.str("");
    }
  }

  key.u32(static_cast<std::uint32_t>(cfg.size()));
  key.u32(cfg.entry());
  key.u32(cfg.exit());
  for (const cfg::CfgNode& node : cfg.nodes()) {
    const cfg::SimpleStmt& stmt = node.stmt;
    key.u8(static_cast<std::uint8_t>(stmt.op));
    key.str(stmt.x.valid() ? interner.spelling(stmt.x) : "");
    key.str(stmt.y.valid() ? interner.spelling(stmt.y) : "");
    key.str(stmt.sel.valid() ? interner.spelling(stmt.sel) : "");
    if (stmt.op == cfg::SimpleOp::kPtrMalloc ||
        stmt.op == cfg::SimpleOp::kHavoc ||
        stmt.op == cfg::SimpleOp::kCall) {
      append_struct_name(key, types, stmt.type, interner);
    }
    if (stmt.op == cfg::SimpleOp::kCall) {
      key.str(stmt.callee.valid() ? interner.spelling(stmt.callee) : "");
      key.u32(static_cast<std::uint32_t>(stmt.args.size()));
      for (const support::Symbol arg : stmt.args) {
        key.str(arg.valid() ? interner.spelling(arg) : "");
      }
    }
    key.u32(stmt.loop_id);
    key.u32(stmt.loc.line);
    key.u32(stmt.loc.column);
    key.u32(static_cast<std::uint32_t>(node.succs.size()));
    for (const cfg::NodeId succ : node.succs) key.u32(succ);
    key.u32(static_cast<std::uint32_t>(node.loops.size()));
    for (const std::uint32_t loop : node.loops) key.u32(loop);
  }
}

/// Salvage degradation summary: the payload replays these fields, so two
/// units that lower to the same CFG but degraded differently must not share
/// an entry.
void append_salvage(KeyBuilder& key, const analysis::SalvageInfo& salvage) {
  key.u64(salvage.skipped_decls);
  key.u64(salvage.havoc_sites);
  key.u64(salvage.unsupported_count);
  key.u64(salvage.functions_analyzable);
  key.u64(salvage.functions_total);
  key.str(salvage.diagnostics);
}

/// Direct-callee summary identities (docs/CACHING.md): the function-tier
/// replacement for the unit key's whole-sibling-CFG clause. The caller sorts
/// `deps` by name, so the clause is a function of the call set, not of call
/// site order.
void append_callee_deps(KeyBuilder& key, const std::vector<CalleeDep>& deps) {
  key.u32(static_cast<std::uint32_t>(deps.size()));
  for (const CalleeDep& dep : deps) {
    key.str(dep.name);
    key.u8(dep.has_summary ? 1 : 0);
    key.u64(dep.summary_hash);
  }
}

}  // namespace

std::string CacheKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

CacheKey cache_key(const analysis::ProgramAnalysis& program,
                   const analysis::Options& options, bool check,
                   bool salvage) {
  const support::Interner& interner = program.interner();
  const lang::TypeTable& types = program.unit.types;
  KeyBuilder key;

  key.str("psa-cache-key v2");
  append_versions(key);
  append_options(key, options, check, salvage);
  append_struct_table(key, types, interner);
  append_cfg(key, program.cfg, types, interner);

  // The rest of the unit: function summaries feed the target function's
  // result, so editing *any* sibling body (or adding/removing one) must
  // invalidate the entry even when the target's own CFG is unchanged. This
  // coarseness is what makes the unit key a *fast path*: the function tier
  // below it re-keys on callee summary hashes instead.
  key.u32(static_cast<std::uint32_t>(program.unit_cfgs.size()));
  for (const analysis::FunctionCfg& fc : program.unit_cfgs) {
    key.str(interner.spelling(fc.name));
    append_cfg(key, fc.cfg, types, interner);
  }

  append_salvage(key, program.salvage);
  return key.finish();
}

CacheKey function_summary_key(const analysis::ProgramAnalysis& program,
                              const analysis::FunctionCfg& fn,
                              const analysis::Options& options, bool salvage,
                              const std::vector<CalleeDep>& deps) {
  const support::Interner& interner = program.interner();
  const lang::TypeTable& types = program.unit.types;
  KeyBuilder key;

  key.str("psa-func-summary-key v1");
  append_versions(key);
  // `check` pinned false: summaries carry no findings, so the checker switch
  // must not split the summary cache.
  append_options(key, options, /*check=*/false, salvage);
  append_struct_table(key, types, interner);
  key.str(interner.spelling(fn.name));
  append_cfg(key, fn.cfg, types, interner);
  append_callee_deps(key, deps);
  return key.finish();
}

CacheKey function_result_key(const analysis::ProgramAnalysis& program,
                             const analysis::Options& options, bool check,
                             bool salvage,
                             const std::vector<CalleeDep>& deps) {
  const support::Interner& interner = program.interner();
  const lang::TypeTable& types = program.unit.types;
  KeyBuilder key;

  key.str("psa-func-result-key v1");
  append_versions(key);
  append_options(key, options, check, salvage);
  append_struct_table(key, types, interner);
  append_cfg(key, program.cfg, types, interner);
  append_callee_deps(key, deps);
  // Salvage fields stay in the result key (the payload replays them) — they
  // cover the *unit's* degradation, including helper lowering, so a sibling
  // edit that changes salvage accounting correctly invalidates the result.
  append_salvage(key, program.salvage);
  return key.finish();
}

}  // namespace psa::cache
