// checker_report — memory-safety findings over the whole corpus.
//
//   $ ./checker_report [--level=1|2|3] [--buggy-only] [--verbose]
//
// Runs the analysis and the checker suite (docs/CHECKERS.md) on every clean
// corpus program and every deliberately-buggy variant, and prints one
// summary line per program: finding counts per rule, checker runtime, and —
// for the buggy variants — whether the seeded defect was caught at its
// injection line. --verbose additionally prints the full findings.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>

#include "checker/checker.hpp"
#include "corpus/corpus.hpp"
#include "support/parse_number.hpp"

namespace {

using namespace psa;

struct RunStats {
  std::vector<checker::Finding> findings;
  double analysis_seconds = 0.0;
  double checker_seconds = 0.0;
};

RunStats run_one(const analysis::ProgramAnalysis& program,
                 rsg::AnalysisLevel level) {
  analysis::Options options;
  options.level = level;
  options.types = &program.unit.types;
  RunStats stats;
  const auto result = analysis::analyze_program(program, options);
  stats.analysis_seconds = result.seconds;
  const auto start = std::chrono::steady_clock::now();
  stats.findings = checker::run_checkers(program, result);
  stats.checker_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

void print_summary(std::string_view name, const RunStats& stats) {
  using checker::CheckKind;
  const auto& f = stats.findings;
  std::cout << std::left << std::setw(22) << name << " null-deref="
            << checker::count_findings(f, CheckKind::kNullDeref)
            << " uaf=" << checker::count_findings(f, CheckKind::kUseAfterFree)
            << " double-free="
            << checker::count_findings(f, CheckKind::kDoubleFree)
            << " leak=" << checker::count_findings(f, CheckKind::kLeak)
            << " exit-leak="
            << checker::count_findings(f, CheckKind::kLeakAtExit)
            << "  (analysis " << std::fixed << std::setprecision(3)
            << stats.analysis_seconds << "s, check " << stats.checker_seconds
            << "s)";
}

int usage() {
  std::cerr << "usage: checker_report [--level=1|2|3] [--buggy-only] "
               "[--verbose]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int level = 3;
  bool buggy_only = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--level=", 0) == 0) {
      if (!support::parse_number(std::string_view(arg).substr(8), level) ||
          level < 1 || level > 3) {
        return usage();
      }
    } else if (arg == "--buggy-only") {
      buggy_only = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      return usage();
    }
  }
  const auto analysis_level = static_cast<rsg::AnalysisLevel>(level);

  if (!buggy_only) {
    std::cout << "=== clean corpus (L" << level << ") ===\n";
    for (const auto& prepared : corpus::prepare_all()) {
      if (!prepared.ok()) {
        std::cout << prepared.program->name << ": frontend error\n";
        continue;
      }
      const RunStats stats = run_one(*prepared.analysis, analysis_level);
      print_summary(prepared.program->name, stats);
      std::cout << '\n';
      if (verbose)
        std::cout << checker::format_findings(stats.findings,
                                              *prepared.analysis);
    }
    std::cout << '\n';
  }

  std::cout << "=== buggy variants (L" << level << ") ===\n";
  bool all_caught = true;
  for (const corpus::BuggyProgram& bug : corpus::buggy_programs()) {
    const auto program = analysis::prepare(bug.source);
    const RunStats stats = run_one(program, analysis_level);
    bool caught = false;
    for (const checker::Finding& f : stats.findings) {
      if (checker::rule_id(f.kind) == bug.expected_rule &&
          f.loc.line == bug.defect_line) {
        caught = true;
        break;
      }
    }
    all_caught &= caught;
    print_summary(bug.name, stats);
    std::cout << "  seeded " << bug.expected_rule << "@" << bug.defect_line
              << (caught ? " CAUGHT" : " MISSED") << '\n';
    if (verbose)
      std::cout << checker::format_findings(stats.findings, program);
  }
  return all_caught ? 0 : 1;
}
