// Figure 2 of the paper: the per-sentence symbolic-execution pipeline —
// division/pruning, abstract interpretation, compression, and the RSG union
// that reduces the sentence's RSRSG. One benchmark per stage, measured on
// representative graphs from a mid-analysis state of the sll corpus code.
#include <benchmark/benchmark.h>

#include "analysis/rsrsg.hpp"
#include "analysis/semantics.hpp"
#include "analysis/analyzer.hpp"
#include "bench_util.hpp"
#include "rsg/canon.hpp"
#include "rsg/ops.hpp"

namespace {

using namespace psa;

/// A mid-analysis snapshot: the RSRSG at the traversal loop's header of the
/// sll program (several member graphs, realistic property mix).
struct Snapshot {
  analysis::ProgramAnalysis program;
  analysis::AnalysisResult result;
  const analysis::Rsrsg* set = nullptr;
  cfg::NodeId load_stmt = 0;

  Snapshot() {
    program = analysis::prepare(corpus::find_program("sll")->source);
    result = analysis::analyze_program(program, {});
    // Find the traversal load p = p->nxt and use its input-side state.
    const auto p = program.symbol("p");
    for (cfg::NodeId id = 0; id < program.cfg.size(); ++id) {
      const auto& s = program.cfg.node(id).stmt;
      if (s.op == cfg::SimpleOp::kLoad && s.x == p && s.y == p) {
        load_stmt = id;
      }
    }
    set = &result.per_node[load_stmt];
  }
};

Snapshot& snapshot() {
  static Snapshot snap;
  return snap;
}

void BM_Fig2_DividePrune(benchmark::State& state) {
  Snapshot& snap = snapshot();
  const auto p = snap.program.symbol("p");
  const auto nxt = snap.program.symbol("nxt");
  for (auto _ : state) {
    for (const rsg::Rsg& g : snap.set->graphs()) {
      if (g.pvar_target(p) == rsg::kNoNode) continue;
      auto parts = rsg::divide(g, p, nxt);
      benchmark::DoNotOptimize(parts);
    }
  }
}
BENCHMARK(BM_Fig2_DividePrune);

void BM_Fig2_AbstractInterpretation(benchmark::State& state) {
  Snapshot& snap = snapshot();
  analysis::TransferContext ctx;
  ctx.policy = rsg::LevelPolicy{rsg::AnalysisLevel::kL2};
  ctx.cfg = &snap.program.cfg;
  ctx.induction = &snap.program.induction;
  const auto& node = snap.program.cfg.node(snap.load_stmt);
  for (auto _ : state) {
    for (const rsg::Rsg& g : snap.set->graphs()) {
      auto out = analysis::execute_statement(g, node, ctx);
      benchmark::DoNotOptimize(out);
    }
  }
}
BENCHMARK(BM_Fig2_AbstractInterpretation);

void BM_Fig2_Compress(benchmark::State& state) {
  Snapshot& snap = snapshot();
  for (auto _ : state) {
    for (const rsg::Rsg& g : snap.set->graphs()) {
      state.PauseTiming();
      rsg::Rsg copy = g;
      state.ResumeTiming();
      rsg::compress(copy, rsg::LevelPolicy{rsg::AnalysisLevel::kL2});
      benchmark::DoNotOptimize(copy);
    }
  }
}
BENCHMARK(BM_Fig2_Compress);

void BM_Fig2_Union(benchmark::State& state) {
  // Re-reduce the whole member list into a fresh RSRSG (the join step).
  Snapshot& snap = snapshot();
  const rsg::LevelPolicy policy{rsg::AnalysisLevel::kL2};
  for (auto _ : state) {
    analysis::Rsrsg reduced;
    for (const rsg::Rsg& g : snap.set->graphs()) {
      reduced.insert(g, policy);
    }
    benchmark::DoNotOptimize(reduced);
  }
}
BENCHMARK(BM_Fig2_Union);

void BM_Fig2_CanonicalKey(benchmark::State& state) {
  // The fixpoint's equality check: one canonical key per graph.
  Snapshot& snap = snapshot();
  for (auto _ : state) {
    for (const rsg::Rsg& g : snap.set->graphs()) {
      benchmark::DoNotOptimize(rsg::canonical_key(g));
    }
  }
}
BENCHMARK(BM_Fig2_CanonicalKey);

}  // namespace

int main(int argc, char** argv) {
  psa::bench::BenchReport report("fig2_pipeline", argc, argv);

  // Canonical JSON rows: the sll fixpoint behind the snapshot plus
  // hand-timed pipeline stages over its loop-header RSRSG.
  {
    Snapshot& snap = snapshot();
    report.add("sll/fixpoint", snap.program, snap.result);
    const int iters = report.quick() ? 5 : 50;
    const auto p = snap.program.symbol("p");
    const auto nxt = snap.program.symbol("nxt");
    report.add_sample("divide_prune", psa::bench::time_op(iters, [&] {
      for (const rsg::Rsg& g : snap.set->graphs()) {
        if (g.pvar_target(p) == rsg::kNoNode) continue;
        benchmark::DoNotOptimize(rsg::divide(g, p, nxt));
      }
    }));
    analysis::TransferContext ctx;
    ctx.policy = rsg::LevelPolicy{rsg::AnalysisLevel::kL2};
    ctx.cfg = &snap.program.cfg;
    ctx.induction = &snap.program.induction;
    const auto& node = snap.program.cfg.node(snap.load_stmt);
    report.add_sample("abstract_interpretation",
                      psa::bench::time_op(iters, [&] {
                        for (const rsg::Rsg& g : snap.set->graphs()) {
                          benchmark::DoNotOptimize(
                              analysis::execute_statement(g, node, ctx));
                        }
                      }));
    report.add_sample("union", psa::bench::time_op(iters, [&] {
      const rsg::LevelPolicy policy{rsg::AnalysisLevel::kL2};
      analysis::Rsrsg reduced;
      for (const rsg::Rsg& g : snap.set->graphs()) reduced.insert(g, policy);
      benchmark::DoNotOptimize(reduced);
    }));
    report.add_sample("canonical_key", psa::bench::time_op(iters, [&] {
      for (const rsg::Rsg& g : snap.set->graphs()) {
        benchmark::DoNotOptimize(rsg::canonical_key(g));
      }
    }));
  }
  if (report.quick()) return 0;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
