// Function-granular incremental re-analysis cost (docs/CACHING.md): in an
// N-function unit, a one-line edit must re-run exactly ONE fixpoint. The
// rows carry the proof in their "ops" objects:
//
//   chain/cold       first run — unit miss, N function-tier entries stored
//   chain/warm       unchanged re-run — unit-tier hit, function tier silent
//   chain/edit-leaf  one-line leaf edit — func_cache_hits == N-1,
//                    func_cache_misses == 1 (the edited leaf's summary)
//   chain/edit-free  summary-visible edit — the hash cascade re-runs the
//                    leaf AND every caller whose summary bytes changed
//
// The unit is a call chain main -> f1 -> ... -> f_{N-1}: the deepest
// possible cascade, so edit-leaf is the worst case for the invalidation
// oracle — any over-approximation in the keys would show up as extra
// misses right here. The binary exits non-zero if the contract fails, so
// scripts/bench_smoke.sh doubles as its enforcement.
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

// Helpers in leaf-first order; every body line is position-stable so the
// edits below never shift a sibling's source locations.
std::string chain_source(std::size_t functions, std::string_view leaf_line) {
  const std::size_t helpers = functions - 1;  // plus main
  std::string src = "struct node { struct node *next; int v; };\n";
  for (std::size_t i = helpers; i >= 1; --i) {
    src += "void f" + std::to_string(i) + "(struct node *a) {\n";
    if (i == helpers) {
      src += std::string(leaf_line);
    } else {
      src += "  f" + std::to_string(i + 1) + "(a);\n";
    }
    src += "  a->next = NULL;\n";
    src += "}\n";
  }
  src +=
      "void main() {\n"
      "  struct node *p;\n"
      "  p = malloc(sizeof(struct node));\n"
      "  f1(p);\n"
      "  p->next = NULL;\n"
      "}\n";
  return src;
}

driver::AnalysisUnit chain_unit(std::size_t functions,
                                std::string_view leaf_line) {
  driver::AnalysisUnit unit;
  unit.name = "chain.c";
  unit.source = chain_source(functions, leaf_line);
  return unit;
}

driver::BatchOptions cached_options(const std::string& cache_dir) {
  driver::BatchOptions options;
  options.isolate = false;  // keep the counters in this process's registry
  options.check = true;
  options.cache_dir = cache_dir;
  return options;
}

/// Run one batch, return (seconds, counter delta).
std::pair<double, support::MetricsSnapshot> timed_batch(
    const std::vector<driver::AnalysisUnit>& units,
    const driver::BatchOptions& options) {
  support::MetricsRegion region;
  const auto start = std::chrono::steady_clock::now();
  const driver::BatchResult result = driver::run_batch(units, options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (result.failed_count() != 0) {
    std::fprintf(stderr, "incremental: %zu units failed\n",
                 result.failed_count());
  }
  return {elapsed.count(), region.delta()};
}

void BM_EditLeafRerun(benchmark::State& state, std::size_t functions) {
  const std::string dir =
      (fs::temp_directory_path() / "psa-bench-incremental-gb").string();
  fs::remove_all(dir);
  const driver::BatchOptions options = cached_options(dir);
  // Alternate between two leaf bodies so every iteration is a real edit.
  const std::vector<driver::AnalysisUnit> a = {
      chain_unit(functions, "  a->next = NULL;\n")};
  const std::vector<driver::AnalysisUnit> b = {
      chain_unit(functions, "  a->next = a;\n")};
  (void)driver::run_batch(a, options);  // prime
  bool flip = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(driver::run_batch(flip ? b : a, options));
    flip = !flip;
  }
  fs::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  psa::bench::BenchReport report("incremental", argc, argv);

  const std::size_t functions = report.quick() ? 8 : 24;
  const std::string dir =
      (fs::temp_directory_path() / "psa-bench-incremental").string();
  fs::remove_all(dir);
  const driver::BatchOptions options = cached_options(dir);

  const auto add_row = [&](std::string config, double seconds,
                           const support::MetricsSnapshot& ops) {
    psa::bench::BenchRun run;
    run.config = std::move(config);
    run.seconds = seconds;
    run.ops = ops;
    report.add_run(std::move(run));
  };

  const std::vector<driver::AnalysisUnit> original = {
      chain_unit(functions, "  a->next = NULL;\n")};
  const auto [cold_s, cold_ops] = timed_batch(original, options);
  add_row("chain/cold", cold_s, cold_ops);

  const auto [warm_s, warm_ops] = timed_batch(original, options);
  add_row("chain/warm", warm_s, warm_ops);

  // The headline: replace the leaf's single body line in place (same line
  // count, summary facts unchanged). Exactly one fixpoint may re-run.
  const std::vector<driver::AnalysisUnit> edited = {
      chain_unit(functions, "  a->next = a;\n")};
  const auto [edit_s, edit_ops] = timed_batch(edited, options);
  add_row("chain/edit-leaf", edit_s, edit_ops);

  // A summary-VISIBLE edit (free taints may_free): the cascade legitimately
  // re-runs the leaf and its callers — the contrast row for edit-leaf.
  const std::vector<driver::AnalysisUnit> freed = {
      chain_unit(functions, "  free(a);\n")};
  const auto [free_s, free_ops] = timed_batch(freed, options);
  add_row("chain/edit-free", free_s, free_ops);

  fs::remove_all(dir);

  const auto hits = edit_ops[support::Counter::kFuncCacheHits];
  const auto misses = edit_ops[support::Counter::kFuncCacheMisses];
  std::fprintf(
      stderr,
      "incremental: N=%zu cold %.3fs, warm %.3fs, edit-leaf %.3fs "
      "(func hits %llu misses %llu), edit-free %.3fs (misses %llu)\n",
      functions, cold_s, warm_s, edit_s,
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), free_s,
      static_cast<unsigned long long>(
          free_ops[support::Counter::kFuncCacheMisses]));
  // The acceptance contract, enforced where it is measured: a one-line
  // edit in an N-function unit re-runs exactly one fixpoint.
  if (hits != functions - 1 || misses != 1) {
    std::fprintf(stderr,
                 "incremental: CONTRACT VIOLATION — expected hits == %zu, "
                 "misses == 1\n",
                 functions - 1);
    return 1;
  }

  if (report.quick()) return 0;

  benchmark::RegisterBenchmark("edit-leaf/rerun", BM_EditLeafRerun, functions)
      ->Unit(benchmark::kMillisecond);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
