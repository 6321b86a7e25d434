// The read side of the observability layer (analysis/profile.hpp):
// determinism of the operation counters, gauge collection against a hand
// walk, aggregation-equals-sum, the psa.metrics.v1 JSONL record round-
// tripped through the in-tree RFC 8259 parser, and the --profile table.
#include "analysis/profile.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/engine.hpp"
#include "support/metrics.hpp"
#include "testing/json.hpp"

namespace psa::analysis {
namespace {

using support::Counter;
using support::counter_name;
using support::kCounterCount;

constexpr std::string_view kListBuild = R"(
  struct node { struct node *nxt; int v; };
  void main() {
    struct node *list; struct node *t;
    int i; int n;
    list = NULL; i = 0; n = 100;
    while (i < n) {
      t = malloc(sizeof(struct node));
      t->nxt = list;
      list = t;
      i = i + 1;
    }
    t = NULL;
  }
)";

TEST(ProfileTest, OperationCountersAreDeterministicAcrossRuns) {
  const auto program = prepare(kListBuild);
  const auto first = analyze_program(program, {});
  const auto second = analyze_program(program, {});
  ASSERT_TRUE(first.converged());
  ASSERT_TRUE(second.converged());
  EXPECT_GT(first.ops[Counter::kWorklistVisits], 0u);
  EXPECT_GT(first.ops[Counter::kJoinAttempts], 0u);
  // Same input, same options: every non-timer counter must match exactly.
  EXPECT_TRUE(first.ops.same_operations(second.ops));
}

TEST(ProfileTest, CollectGaugesMatchesHandWalk) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  const PopulationGauges g = collect_gauges(result);

  std::uint64_t live_rsgs = 0;
  std::uint64_t total_nodes = 0;
  std::uint64_t shared_nodes = 0;
  std::uint64_t cyclelink_nodes = 0;
  for (const auto& state : result.per_node) {
    live_rsgs += state.size();
    for (const rsg::Rsg& graph : state.graphs()) {
      for (const rsg::NodeRef n : graph.node_refs()) {
        ++total_nodes;
        if (graph.props(n).shared) ++shared_nodes;
        if (!graph.props(n).cyclelinks.empty()) ++cyclelink_nodes;
      }
    }
  }
  EXPECT_EQ(g.live_rsgs, live_rsgs);
  EXPECT_EQ(g.total_nodes, total_nodes);
  EXPECT_EQ(g.shared_nodes, shared_nodes);
  EXPECT_EQ(g.cyclelink_nodes, cyclelink_nodes);
  EXPECT_GT(g.live_rsgs, 0u);
  EXPECT_GE(g.live_rsgs, g.max_rsgs_per_stmt);
  EXPECT_GE(g.total_nodes, g.max_nodes_per_rsg);
  EXPECT_GT(g.max_rsgs_per_stmt, 0u);
  EXPECT_DOUBLE_EQ(g.avg_nodes_per_rsg,
                   static_cast<double>(total_nodes) / live_rsgs);
  EXPECT_GE(g.shared_density, 0.0);
  EXPECT_LE(g.shared_density, 1.0);
  EXPECT_GE(g.cyclelinks_density, 0.0);
  EXPECT_LE(g.cyclelinks_density, 1.0);
}

TEST(ProfileTest, CollectUnitMetricsCarriesIdentityAndOutcome) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  const UnitMetrics m =
      collect_unit_metrics("lists.c", "main", "L2", result);
  EXPECT_EQ(m.unit, "lists.c");
  EXPECT_EQ(m.function, "main");
  EXPECT_EQ(m.level, "L2");
  EXPECT_EQ(m.status, std::string(to_string(result.status)));
  EXPECT_EQ(m.node_visits, result.node_visits);
  EXPECT_DOUBLE_EQ(m.wall_seconds, result.seconds);
  EXPECT_FALSE(m.degraded);
  EXPECT_EQ(m.worst_rung, "none");
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_EQ(m.ops.values[i], result.ops.values[i]);
  }
}

UnitMetrics synthetic_unit(const std::string& name, std::uint64_t scale) {
  UnitMetrics m;
  m.unit = name;
  m.function = "main";
  m.level = "L2";
  m.status = "converged";
  m.wall_seconds = 0.5 * static_cast<double>(scale);
  m.node_visits = 10 * scale;
  m.ops.at(Counter::kJoinAttempts) = 100 * scale;
  m.ops.at(Counter::kPruneCalls) = 7 * scale;
  m.memory.peak_bytes = 1000 * scale;
  m.memory.live_bytes = 100 * scale;
  m.gauges.live_rsgs = 4 * scale;
  m.gauges.total_nodes = 20 * scale;
  m.gauges.max_rsgs_per_stmt = scale;
  m.gauges.max_nodes_per_rsg = 5 * scale;
  m.gauges.shared_nodes = 2 * scale;
  return m;
}

TEST(ProfileTest, AggregateEqualsElementwiseSum) {
  const std::vector<UnitMetrics> units = {
      synthetic_unit("a.c", 1), synthetic_unit("b.c", 2),
      synthetic_unit("c.c", 3)};
  const UnitMetrics agg = aggregate_metrics(units);
  EXPECT_EQ(agg.unit, "aggregate");
  EXPECT_EQ(agg.level, "-");
  EXPECT_EQ(agg.status, "aggregate");
  EXPECT_EQ(agg.node_visits, 60u);
  EXPECT_DOUBLE_EQ(agg.wall_seconds, 3.0);
  EXPECT_EQ(agg.ops[Counter::kJoinAttempts], 600u);
  EXPECT_EQ(agg.ops[Counter::kPruneCalls], 42u);
  EXPECT_EQ(agg.memory.peak_bytes, 6000u);
  EXPECT_EQ(agg.gauges.live_rsgs, 24u);
  EXPECT_EQ(agg.gauges.total_nodes, 120u);
  // max_* gauges take the max, not the sum.
  EXPECT_EQ(agg.gauges.max_rsgs_per_stmt, 3u);
  EXPECT_EQ(agg.gauges.max_nodes_per_rsg, 15u);
  // Densities are recomputed from the summed totals.
  EXPECT_DOUBLE_EQ(agg.gauges.shared_density, 12.0 / 120.0);
  EXPECT_DOUBLE_EQ(agg.gauges.avg_nodes_per_rsg, 120.0 / 24.0);
}

TEST(ProfileTest, MetricsJsonRoundTripsThroughTheParser) {
  const UnitMetrics m = synthetic_unit("dir/unit.c", 2);
  const std::string line = to_metrics_json(m, "unit");
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  // One line per record: no interior newlines.
  EXPECT_EQ(line.find('\n'), line.size() - 1);

  const auto doc = testing::parse_json(line);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->str("schema"), "psa.metrics.v1");
  EXPECT_EQ(doc->str("kind"), "unit");
  EXPECT_EQ(doc->str("unit"), "dir/unit.c");
  EXPECT_EQ(doc->str("function"), "main");
  EXPECT_EQ(doc->str("level"), "L2");
  EXPECT_EQ(doc->str("status"), "converged");
  EXPECT_DOUBLE_EQ(doc->num("wall_seconds"), 1.0);
  EXPECT_DOUBLE_EQ(doc->num("node_visits"), 20.0);

  const testing::JsonValue* ops = doc->find("ops");
  ASSERT_NE(ops, nullptr);
  ASSERT_TRUE(ops->is_object());
  // Every counter appears under its stable name with the exact value.
  EXPECT_EQ(ops->object.size(), kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string key{counter_name(c)};
    EXPECT_DOUBLE_EQ(ops->num(key), static_cast<double>(m.ops[c])) << key;
  }
  // The result-cache vocabulary (docs/CACHING.md) is part of the stable
  // schema: these counters must be present under exactly these names even
  // when zero — consumers key on them for cache hit-rate dashboards.
  for (const char* key :
       {"cache_hits", "cache_misses", "cache_stores", "cache_evictions",
        "cache_self_heals", "cache_sweep_runs", "cache_sweep_evictions",
        "cache_sweep_bytes", "func_cache_hits", "func_cache_misses",
        "func_cache_stores", "summary_reuse", "phase_cache_lookup_wall_ns"}) {
    EXPECT_NE(ops->find(key), nullptr) << key;
  }
  // The interprocedural vocabulary (docs/OBSERVABILITY.md): summary
  // production/consumption and the havoc-fallback rate, plus the phase_ipa
  // timers — dashboards track fallback/applied as the precision burn-down.
  for (const char* key :
       {"summary_computed", "summary_applied", "summary_fixpoint_iters",
        "call_havoc_fallback", "phase_ipa_wall_ns", "phase_ipa_cpu_ns"}) {
    EXPECT_NE(ops->find(key), nullptr) << key;
  }

  const testing::JsonValue* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->num("live_rsgs"), 8.0);
  EXPECT_DOUBLE_EQ(gauges->num("total_nodes"), 40.0);

  const testing::JsonValue* memory = doc->find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_DOUBLE_EQ(memory->num("peak_bytes"), 2000.0);
}

TEST(ProfileTest, MetricsJsonEscapesPathologicalStrings) {
  UnitMetrics m = synthetic_unit("we\"ird\\path\nwith.c", 1);
  m.function = "ma\tin";
  const std::string line = to_metrics_json(m, "unit");
  const auto doc = testing::parse_json(line);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->str("unit"), "we\"ird\\path\nwith.c");
  EXPECT_EQ(doc->str("function"), "ma\tin");
}

TEST(ProfileTest, FormatProfileListsEverySection) {
  const auto program = prepare(kListBuild);
  const auto result = analyze_program(program, {});
  const UnitMetrics m = collect_unit_metrics("lists.c", "main", "L2", result);
  const std::string table = format_profile(m);
  EXPECT_NE(table.find("phases:"), std::string::npos);
  EXPECT_NE(table.find("worklist:"), std::string::npos);
  EXPECT_NE(table.find("rsg operations:"), std::string::npos);
  EXPECT_NE(table.find("governor:"), std::string::npos);
  EXPECT_NE(table.find("gauges:"), std::string::npos);
  EXPECT_NE(table.find("join"), std::string::npos);
}

}  // namespace
}  // namespace psa::analysis
