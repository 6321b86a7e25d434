// Warm-cache batch re-run cost (docs/CACHING.md): the content-addressed
// result cache turns an unchanged re-analysis into a disk lookup. Three
// canonical rows over a slice of the clean corpus:
//
//   corpus/cold        first batch — every unit analyzed, entries stored
//   corpus/warm        identical re-run — every unit served from the cache
//   corpus/warm-edit1  one unit edited — only that unit re-analyzes
//
// The hit/miss counters of each row land in its "ops" object, so the JSON
// doubles as the acceptance proof: warm shows hits == units, misses == 0;
// warm-edit1 shows exactly one miss. The google-benchmark pass re-times the
// cold/warm pair per iteration for statistical depth.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "driver/supervisor.hpp"
#include "support/metrics.hpp"

namespace {

using namespace psa;
namespace fs = std::filesystem;

std::vector<driver::AnalysisUnit> bench_units(bool quick) {
  std::vector<driver::AnalysisUnit> units;
  for (const corpus::CorpusProgram& p : corpus::all_programs()) {
    if (p.in_table1) continue;  // keep the batch in seconds, not minutes
    driver::AnalysisUnit unit;
    unit.name = std::string(p.name) + ".c";
    unit.source = std::string(p.source);
    units.push_back(std::move(unit));
    if (quick && units.size() >= 2) break;
  }
  return units;
}

driver::BatchOptions cached_options(const std::string& cache_dir) {
  driver::BatchOptions options;
  options.isolate = false;  // keep the counters in this process's registry
  options.check = true;
  options.cache_dir = cache_dir;
  options.engine.level = rsg::AnalysisLevel::kL2;
  return options;
}

/// Run one batch, return (seconds, cache-counter delta).
std::pair<double, support::MetricsSnapshot> timed_batch(
    const std::vector<driver::AnalysisUnit>& units,
    const driver::BatchOptions& options) {
  support::MetricsRegion region;
  const auto start = std::chrono::steady_clock::now();
  const driver::BatchResult result = driver::run_batch(units, options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (result.failed_count() != 0) {
    std::fprintf(stderr, "cache_warm: %zu units failed\n",
                 result.failed_count());
  }
  return {elapsed.count(), region.delta()};
}

void BM_ColdVsWarm(benchmark::State& state, bool warm) {
  const auto units = bench_units(/*quick=*/true);
  const std::string dir =
      (fs::temp_directory_path() / "psa-bench-cache-gb").string();
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      fs::remove_all(dir);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        driver::run_batch(units, cached_options(dir)));
  }
  fs::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  psa::bench::BenchReport report("cache_warm", argc, argv);

  const auto units = bench_units(report.quick());
  const std::string dir =
      (fs::temp_directory_path() / "psa-bench-cache").string();
  fs::remove_all(dir);
  const driver::BatchOptions options = cached_options(dir);

  const auto add_row = [&](std::string config, double seconds,
                           const support::MetricsSnapshot& ops) {
    // add_sample carries only config+seconds; attach the counter delta so
    // the JSON records the hit/miss proof. BenchRun rows built through the
    // report keep their ops object.
    psa::bench::BenchRun run;
    run.config = std::move(config);
    run.seconds = seconds;
    run.ops = ops;
    report.add_run(std::move(run));
  };

  const auto [cold_s, cold_ops] = timed_batch(units, options);
  add_row("corpus/cold", cold_s, cold_ops);

  const auto [warm_s, warm_ops] = timed_batch(units, options);
  add_row("corpus/warm", warm_s, warm_ops);

  // Edit one unit in place: only it may re-analyze.
  std::vector<driver::AnalysisUnit> edited = units;
  edited[0].source = "\n" + edited[0].source;  // line shift = content change
  const auto [edit_s, edit_ops] = timed_batch(edited, options);
  add_row("corpus/warm-edit1", edit_s, edit_ops);

  fs::remove_all(dir);

  std::fprintf(
      stderr,
      "cache_warm: cold %.3fs, warm %.3fs (%.1fx), edit1 %.3fs; "
      "warm hits %llu misses %llu\n",
      cold_s, warm_s, warm_s > 0 ? cold_s / warm_s : 0.0, edit_s,
      static_cast<unsigned long long>(
          warm_ops[support::Counter::kCacheHits]),
      static_cast<unsigned long long>(
          warm_ops[support::Counter::kCacheMisses]));

  if (report.quick()) return 0;

  benchmark::RegisterBenchmark("batch/cold", BM_ColdVsWarm, false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("batch/warm", BM_ColdVsWarm, true)
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
