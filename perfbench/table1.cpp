// The `table1` workload: the paper's Table-1 codes at L1, each pushed through
// analysis::prepare + analysis::analyze_program in-process with default
// Options, no checkers and no cache. The seed orders the four codes and
// picks the concrete executions every exit state must cover.
#include <optional>

#include "analysis/analyzer.hpp"
#include "bench.hpp"
#include "client/queries.hpp"
#include "corpus/corpus.hpp"
#include "testing/concrete_oracle.hpp"

namespace psa::perfbench {
namespace {

/// Concrete executions drawn per code and check; the ones that reach the exit
/// are the answers the exit state must cover.
constexpr unsigned kOracleRuns = 2000;

/// One code's inputs, built during set-up.
struct Code {
  std::string name;
  std::string_view source;
  /// The set-up's frontend result: the CFG and symbols the oracle runs on.
  /// Interning is deterministic, so a pass's result shares its symbol ids.
  std::optional<analysis::ProgramAnalysis> program;
  /// Seed of this code's concrete executions.
  std::uint64_t oracle_seed = 0;
  /// Executions that reached the exit in the last check.
  std::size_t finals = 0;
};

/// The set-up is the cold pass: each code is prepared, which gives the CFG
/// the answer checks run on, and analyzed once, so that every timed pass
/// starts from a process that has run the analysis before.
std::vector<Code> set_up(const std::vector<std::string>& order,
                         const analysis::Options& options) {
  std::vector<Code> codes;
  for (const std::string& name : order) {
    Code code;
    code.name = name;
    code.source = corpus::find_program(name)->source;
    code.program.emplace(analysis::prepare(code.source));
    (void)analysis::analyze_program(*code.program, options);
    codes.push_back(std::move(code));
  }
  return codes;
}

/// The answer check: the exit state covers the final store of every concrete
/// execution that reaches the exit, both its null/alias pattern and every
/// selector it concretely shares. Executions are drawn and dropped one at a
/// time, so the oracle never holds more than one store.
void check(Code& code, const analysis::AnalysisResult& result,
           Verdict& verdict) {
  const analysis::ProgramAnalysis& program = *code.program;
  const analysis::Rsrsg& at_exit = result.at_exit(program.cfg);
  Rng rng(code.oracle_seed);
  code.finals = 0;
  for (unsigned i = 0; i < kOracleRuns; ++i) {
    const oracle::ConcreteOutcome outcome =
        oracle::run_concrete(program, static_cast<unsigned>(rng.next()));
    if (!outcome.completed) continue;
    ++code.finals;
    bool covered = oracle::alias_pattern_covered(program, at_exit, outcome.heap);
    for (const auto& [type, sel] : oracle::concrete_shsel(outcome.heap)) {
      const auto& decl = program.unit.types.struct_decl(type);
      covered = covered &&
                client::may_be_shared_via(
                    program, at_exit,
                    std::string(program.interner().spelling(decl.name)),
                    std::string(program.interner().spelling(sel)));
    }
    if (!covered) {
      verdict.fail(code.name + ": exit state misses concrete execution " +
                   std::to_string(i));
      return;
    }
  }
  if (code.finals == 0) {
    verdict.fail(code.name + ": no concrete execution reached the exit");
  }
}

}  // namespace

void run_table1(const RunConfig& config, Sheet& sheet, Verdict& verdict) {
  std::vector<std::string> order(std::begin(kTable1Codes),
                                 std::end(kTable1Codes));
  Rng rng(config.seed);
  shuffle(order, rng);

  const analysis::Options options;  // defaults: L1, widening, summaries
  const Clock::time_point setup_start = Clock::now();
  std::vector<Code> codes = set_up(order, options);
  sheet.set("setup_s", seconds_between(setup_start, Clock::now()), "s");
  Rng oracle_rng(config.seed ^ 0x7AB1E1ULL);
  for (Code& code : codes) code.oracle_seed = oracle_rng.next();

  Tracer tracer;
  Tracer* const trace = config.trace ? &tracer : nullptr;
  // Peak RSS from here on covers the timed passes and their answer checks,
  // which hold one concrete store at a time.
  const bool rss_reset = reset_self_peak_rss();
  std::vector<double> pass_times;
  // Per code (in set-up order), its analysis time in each pass.
  std::vector<std::vector<double>> code_times(codes.size());
  std::vector<double> iteration_times;
  const Clock::time_point run_start = Clock::now();
  std::size_t pass = 0;
  do {
    const Clock::time_point iteration_start = Clock::now();
    const std::size_t first_span = tracer.spans().size();
    const std::int64_t overhead_before = tracer.overhead_ns();
    double pass_s = 0;
    double degraded = 0;
    double exit_graphs = 0;
    double peak_rsg_mb = 0;
    support::MetricsSnapshot ops;
    for (std::size_t c = 0; c < codes.size(); ++c) {
      const std::uint64_t request = pass * codes.size() + c;
      const std::size_t code_first_span = tracer.spans().size();
      tracer.in_window = true;
      const Clock::time_point start = Clock::now();
      std::optional<analysis::AnalysisResult> result;
      {
        Scope unit(trace, "unit", request);
        std::optional<analysis::ProgramAnalysis> program;
        {
          Scope s(trace, "analysis.prepare", request);
          program.emplace(analysis::prepare(codes[c].source));
        }
        Scope s(trace, "analysis.fixpoint", request);
        result.emplace(analysis::analyze_program(*program, options));
      }
      code_times[c].push_back(seconds_between(start, Clock::now()));
      pass_s += code_times[c].back();
      tracer.in_window = false;

      // Outside the timed window: answers, then this code's layer figures.
      ++verdict.attempted;
      const std::size_t failures = verdict.mismatches.size();
      check(codes[c], *result, verdict);
      if (verdict.mismatches.size() != failures) ++verdict.failed;
      if (!result->converged() || result->degraded()) ++degraded;
      if (config.trace) {
        ops += result->ops;
        exit_graphs += static_cast<double>(
            result->at_exit(codes[c].program->cfg).size());
        const double mb =
            static_cast<double>(result->peak_bytes()) / (1024.0 * 1024.0);
        peak_rsg_mb = std::max(peak_rsg_mb, mb);
        sheet.sample("analysis.peak_rsg_mb." + codes[c].name, mb, "MB");
        sheet.sample("analysis.fixpoint_ms." + codes[c].name,
                     tracer.total_ms("analysis.fixpoint", code_first_span),
                     "ms");
      }
    }
    pass_times.push_back(pass_s);
    sheet.sample("degraded_ratio", degraded / static_cast<double>(codes.size()),
                 "ratio");
    if (config.trace) {
      sample_counters(sheet, ops);
      sheet.sample("analysis.exit_graphs", exit_graphs, "count");
      sheet.sample("analysis.peak_rsg_mb", peak_rsg_mb, "MB");
      sheet.sample("analysis.prepare_ms",
                   tracer.total_ms("analysis.prepare", first_span), "ms");
      sheet.sample("analysis.fixpoint_ms",
                   tracer.total_ms("analysis.fixpoint", first_span), "ms");
      sheet.sample("trace.overhead_ms",
                   static_cast<double>(tracer.overhead_ns() - overhead_before) /
                       1e6,
                   "ms");
    }
    iteration_times.push_back(seconds_between(iteration_start, Clock::now()));
    ++pass;
  } while (another_pass(run_start, iteration_times, config.seconds));

  // The four analyses are independent, so the fastest pass takes each code
  // at its fastest, whichever pass that fell in: a slow phase of the host
  // then has to span a code's every pass to show.
  double best = 0;
  for (std::size_t c = 0; c < codes.size(); ++c) {
    std::printf("table1: %s (%zu concrete finals) (s):", codes[c].name.c_str(),
                codes[c].finals);
    for (const double s : code_times[c]) std::printf(" %.3f", s);
    std::printf("\n");
    best += fastest(code_times[c]);
  }
  set_pass_times(sheet, "table1", best, pass_times, config.trace);
  if (config.trace) {
    sheet.set("trace.spans", static_cast<double>(tracer.spans().size()),
              "count");
    // Layers this workload never calls read zero.
    for (const char* name :
         {"checker.findings", "driver.retries", "driver.failed_units",
          "cache.stores", "cache.entries", "support.io_writes",
          "support.io_fsyncs"}) {
      sheet.set(name, 0.0, "count");
    }
    sheet.set("driver.payload_kb", 0.0, "KB");
    sheet.set("cache_mb", 0.0, "MB");
    if (!config.trace_out.empty()) write_trace(tracer, config.trace_out);
    return;
  }
  if (!rss_reset) std::printf("table1: peak RSS could not be reset\n");
  sheet.set("peak_rss_mb", self_peak_rss_mb(), "MB");
}

}  // namespace psa::perfbench
