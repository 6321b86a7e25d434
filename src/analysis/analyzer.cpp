#include "analysis/analyzer.hpp"

#include <sstream>

#include "ipa/summarize.hpp"
#include "support/metrics.hpp"

namespace psa::analysis {

ProgramAnalysis prepare(std::string_view source, std::string_view function,
                        const FrontendOptions& frontend) {
  support::DiagnosticEngine diags;
  diags.set_salvage(frontend.salvage);

  ProgramAnalysis program;
  {
    PSA_PHASE_TIMER(parse_timer, support::Counter::kPhaseParseWallNs,
                    support::Counter::kPhaseParseCpuNs);
    program.unit = lang::parse_source(source, diags);
    if (diags.has_errors()) throw FrontendError(diags.to_string());

    program.sema = lang::analyze(program.unit, diags);
    if (diags.has_errors()) throw FrontendError(diags.to_string());
  }

  program.salvage.functions_analyzable = program.sema.functions.size();
  program.salvage.functions_total =
      program.sema.functions.size() + program.unit.skipped.size();

  // A unit is dropped only when nothing parses: salvage with zero surviving
  // functions is indistinguishable from a rejected unit.
  if (frontend.salvage && program.sema.functions.empty()) {
    std::string detail = diags.to_string();
    if (detail.empty()) detail = "no function survived the salvage frontend";
    throw FrontendError(std::move(detail));
  }

  const support::Symbol fn_sym = program.unit.interner->lookup(function);
  const lang::FunctionInfo* info =
      fn_sym.valid() ? program.sema.find(fn_sym) : nullptr;
  if (info == nullptr) {
    std::ostringstream os;
    // Distinguish "never existed" from "existed but could not be salvaged":
    // the latter carries the stub's demoted diagnostics.
    const lang::SkippedDecl* stub = nullptr;
    for (const auto& sk : program.unit.skipped) {
      if (fn_sym.valid() && sk.name == fn_sym) stub = &sk;
    }
    if (stub != nullptr) {
      os << "function '" << function << "' could not be salvaged:";
      for (const auto& d : stub->diagnostics) {
        os << '\n' << support::to_string(d);
      }
    } else {
      os << "function '" << function << "' not found";
    }
    throw FrontendError(os.str());
  }

  {
    PSA_PHASE_TIMER(cfg_timer, support::Counter::kPhaseCfgWallNs,
                    support::Counter::kPhaseCfgCpuNs);
    program.cfg = cfg::build_cfg(program.unit, *info, diags);
    if (diags.has_errors()) throw FrontendError(diags.to_string());
  }

  program.induction = cfg::detect_induction_pvars(program.cfg);

  // Lower every other sema-surviving function for the interprocedural
  // summary computation. Each gets its own salvage-mode diagnostic engine:
  // a helper that cannot be lowered is simply absent from unit_cfgs (its
  // call sites havoc-fallback) and never fails the unit or pollutes the
  // target's diagnostics.
  for (const auto& fi : program.sema.functions) {
    if (&fi == info) {
      program.unit_cfgs.push_back(
          {fi.decl->name, program.cfg, program.induction});
      continue;
    }
    support::DiagnosticEngine local;
    local.set_salvage(true);
    cfg::Cfg helper_cfg = cfg::build_cfg(program.unit, fi, local);
    if (local.has_errors()) continue;
    cfg::InductionInfo helper_ind = cfg::detect_induction_pvars(helper_cfg);
    program.unit_cfgs.push_back(
        {fi.decl->name, std::move(helper_cfg), std::move(helper_ind)});
  }

  // Salvage accounting (all zero on a clean strict or salvage run).
  for (const auto& node : program.cfg.nodes()) {
    if (node.stmt.op == cfg::SimpleOp::kHavoc) ++program.salvage.havoc_sites;
  }
  program.salvage.skipped_decls = program.unit.skipped.size();
  program.salvage.unsupported_count = diags.unsupported_count();
  if (program.salvage.degraded()) {
    std::ostringstream os;
    for (const auto& d : diags.all()) {
      if (d.severity == support::Severity::kUnsupported) {
        os << support::to_string(d) << '\n';
      }
    }
    program.salvage.diagnostics = os.str();
    PSA_COUNT_N(support::Counter::kHavocSites, program.salvage.havoc_sites);
    PSA_COUNT_N(support::Counter::kSkippedDecls, program.salvage.skipped_decls);
    PSA_COUNT(support::Counter::kSalvagedUnits);
  }
  return program;
}

AnalysisResult analyze_program(const ProgramAnalysis& program,
                               const Options& options) {
  Options opts = options;
  opts.types = &program.unit.types;

  // The unit's ops delta spans the summary pass too: a caller reading
  // result.ops sees summary_computed / summary_fixpoint_iters and the
  // phase_ipa timers next to the engine counters, not just the final run.
  support::MetricsRegion unit_region;

  // Interprocedural summary pass (src/ipa): the summaries the target's call
  // sites reach, applied by its kCall transfers. A target without calls
  // demands none — the common single-function case pays nothing.
  ipa::SummaryTable summaries;
  if (opts.enable_summaries && opts.summaries == nullptr) {
    summaries = ipa::compute_summaries(program, opts);
    opts.summaries = &summaries;
  }
  AnalysisResult result = analyze_cfg(program.cfg, program.induction, opts);
  result.ops = unit_region.delta();
  return result;
}

AnalysisResult analyze_source(std::string_view source, const Options& options,
                              std::string_view function,
                              const FrontendOptions& frontend) {
  const ProgramAnalysis program = prepare(source, function, frontend);
  return analyze_program(program, options);
}

}  // namespace psa::analysis
