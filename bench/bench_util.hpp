// Shared helpers for the benchmark binaries.
//
// Every bench constructs a BenchReport, which (a) strips the shared
// `--quick` flag from argv before google-benchmark sees it, and (b) writes a
// canonical BENCH_<name>.json (schema psa.bench.v1) when the report goes out
// of scope — to $PSA_BENCH_DIR when set, else the working directory. The
// JSON is always written, quick or not: scripts/bench_smoke.sh runs every
// bench with --quick and validates the files; EXPERIMENTS.md regenerates
// its tables from the full-mode files. See docs/OBSERVABILITY.md.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/profile.hpp"
#include "corpus/corpus.hpp"

namespace psa::bench {

/// Run one (program, level) analysis and report the Table-1 metrics through
/// google-benchmark counters: wall time (the iteration time itself), peak
/// RSG bytes, statement visits, and final status (1 = converged).
inline void report_run(benchmark::State& state,
                       const analysis::ProgramAnalysis& program,
                       const analysis::AnalysisResult& result) {
  state.counters["peak_bytes"] = static_cast<double>(result.peak_bytes());
  state.counters["visits"] = static_cast<double>(result.node_visits);
  state.counters["converged"] = result.converged() ? 1.0 : 0.0;
  state.counters["exit_graphs"] =
      static_cast<double>(result.at_exit(program.cfg).size());
}

/// Format bytes like the paper's MB column.
inline std::string format_mb(std::uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(bytes) / 1e6);
  return buf;
}

/// Format seconds like the paper's M'SS'' column.
inline std::string format_time(double seconds) {
  char buf[32];
  if (seconds >= 60.0) {
    std::snprintf(buf, sizeof(buf), "%d'%05.2f''",
                  static_cast<int>(seconds / 60.0),
                  seconds - 60.0 * static_cast<int>(seconds / 60.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  }
  return buf;
}

/// Mean seconds of `iterations` calls of `fn`, for micro-stage rows that
/// have no engine AnalysisResult to quote.
template <typename Fn>
double time_op(int iterations, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iterations; ++i) fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / (iterations > 0 ? iterations : 1);
}

/// One row of the canonical bench JSON.
struct BenchRun {
  std::string config;
  /// Wall seconds of the run; of a repeated row, the median.
  double seconds = 0.0;
  /// A repeated row's run count and its fastest and slowest run (written
  /// only when repetitions > 1).
  std::size_t repetitions = 1;
  double seconds_min = 0.0;
  double seconds_max = 0.0;
  bool converged = true;
  std::uint64_t visits = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t exit_graphs = 0;
  /// Operation counters of the run (AnalysisResult::ops for engine rows;
  /// all-zero for micro-stage samples).
  support::MetricsSnapshot ops;
};

/// Collects rows and writes BENCH_<name>.json on destruction.
class BenchReport {
 public:
  /// Strips `--quick` out of argv (google-benchmark rejects flags it does
  /// not know), leaving the rest for benchmark::Initialize.
  BenchReport(std::string name, int& argc, char** argv)
      : name_(std::move(name)) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--quick") {
        quick_ = true;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { write(); }

  /// Reduced configurations, no google-benchmark pass (bench_smoke mode).
  [[nodiscard]] bool quick() const noexcept { return quick_; }

  /// Row from a full engine run.
  void add(std::string config, const analysis::ProgramAnalysis& program,
           const analysis::AnalysisResult& result) {
    BenchRun run;
    run.config = std::move(config);
    run.seconds = result.seconds;
    run.converged = result.converged();
    run.visits = result.node_visits;
    run.peak_bytes = result.peak_bytes();
    run.exit_graphs = result.at_exit(program.cfg).size();
    run.ops = result.ops;
    runs_.push_back(std::move(run));
  }

  /// Row from `seconds.size()` repeated engine runs that did the same work
  /// as `result`: the row's seconds is their median, with their range.
  void add_repeated(std::string config, const analysis::ProgramAnalysis& program,
                    const analysis::AnalysisResult& result,
                    std::vector<double> seconds) {
    add(std::move(config), program, result);
    std::sort(seconds.begin(), seconds.end());
    BenchRun& run = runs_.back();
    run.seconds = seconds[seconds.size() / 2];
    run.repetitions = seconds.size();
    run.seconds_min = seconds.front();
    run.seconds_max = seconds.back();
  }

  /// Row from a hand-timed micro stage (no engine result).
  void add_sample(std::string config, double seconds) {
    BenchRun run;
    run.config = std::move(config);
    run.seconds = seconds;
    runs_.push_back(std::move(run));
  }

  /// Pre-built row (benches that time whole batches and attach their own
  /// counter deltas, e.g. cache_warm's hit/miss proof).
  void add_run(BenchRun run) { runs_.push_back(std::move(run)); }

  /// The row added last.
  [[nodiscard]] const BenchRun& last() const { return runs_.back(); }

 private:
  void write() const {
    std::string path;
    if (const char* dir = std::getenv("PSA_BENCH_DIR"); dir && *dir) {
      path = std::string(dir) + "/";
    }
    path += "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench report: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"schema\": \"psa.bench.v1\",\n  \"bench\": \""
        << analysis::json_escape(name_) << "\",\n  \"quick\": "
        << (quick_ ? "true" : "false") << ",\n  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const BenchRun& r = runs_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"seconds\": %.9g, \"converged\": %s, \"visits\": %llu, "
                    "\"peak_bytes\": %llu, \"exit_graphs\": %llu",
                    r.seconds, r.converged ? "true" : "false",
                    static_cast<unsigned long long>(r.visits),
                    static_cast<unsigned long long>(r.peak_bytes),
                    static_cast<unsigned long long>(r.exit_graphs));
      out << (i == 0 ? "\n" : ",\n") << "    {\"config\": \""
          << analysis::json_escape(r.config) << "\", " << buf;
      if (r.repetitions > 1) {
        std::snprintf(buf, sizeof buf,
                      ", \"repetitions\": %zu, \"seconds_min\": %.9g, "
                      "\"seconds_max\": %.9g",
                      r.repetitions, r.seconds_min, r.seconds_max);
        out << buf;
      }
      out << ", \"ops\": {";
      for (std::size_t c = 0; c < support::kCounterCount; ++c) {
        if (c != 0) out << ", ";
        out << '"'
            << support::counter_name(static_cast<support::Counter>(c))
            << "\": " << r.ops.values[c];
      }
      out << "}}";
    }
    out << "\n  ]\n}\n";
    std::fprintf(stderr, "bench report written to %s\n", path.c_str());
  }

  std::string name_;
  bool quick_ = false;
  std::vector<BenchRun> runs_;
};

}  // namespace psa::bench
