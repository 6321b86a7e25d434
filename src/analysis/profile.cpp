// Metric record building, JSONL export, and the --profile table (see
// profile.hpp and docs/OBSERVABILITY.md).
#include "analysis/profile.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace psa::analysis {

namespace {

using support::Counter;
using support::MetricsSnapshot;

/// Shortest decimal form that still round-trips typical metric values; %g
/// output ("0.0015", "1e+09") is valid JSON number syntax.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void recompute_densities(PopulationGauges& g) {
  g.avg_nodes_per_rsg = g.live_rsgs == 0
                            ? 0.0
                            : static_cast<double>(g.total_nodes) /
                                  static_cast<double>(g.live_rsgs);
  if (g.total_nodes == 0) {
    g.shared_density = 0.0;
    g.cyclelinks_density = 0.0;
  } else {
    const double total = static_cast<double>(g.total_nodes);
    g.shared_density = static_cast<double>(g.shared_nodes) / total;
    g.cyclelinks_density = static_cast<double>(g.cyclelink_nodes) / total;
  }
}

PopulationGauges collect_gauges(const AnalysisResult& result) {
  PopulationGauges g;
  for (const Rsrsg& set : result.per_node) {
    const std::uint64_t card = set.size();
    g.live_rsgs += card;
    if (card > g.max_rsgs_per_stmt) g.max_rsgs_per_stmt = card;
    for (const Rsg& rsg : set.graphs()) {
      std::uint64_t nodes = 0;
      for (const rsg::NodeRef n : rsg.node_refs()) {
        ++nodes;
        const rsg::NodeProps& props = rsg.props(n);
        if (props.shared) ++g.shared_nodes;
        if (!props.cyclelinks.empty()) ++g.cyclelink_nodes;
      }
      g.total_nodes += nodes;
      if (nodes > g.max_nodes_per_rsg) g.max_nodes_per_rsg = nodes;
    }
  }
  recompute_densities(g);
  return g;
}

UnitMetrics collect_unit_metrics(std::string unit, std::string function,
                                 std::string level,
                                 const AnalysisResult& result) {
  UnitMetrics m;
  m.unit = std::move(unit);
  m.function = std::move(function);
  m.level = std::move(level);
  m.status = std::string(to_string(result.status));
  m.wall_seconds = result.seconds;
  m.node_visits = result.node_visits;
  m.degraded = result.degraded();
  for (std::size_t r = result.degradation.rung_applications.size(); r-- > 0;) {
    if (result.degradation.rung_applications[r] > 0) {
      m.worst_rung = std::string(to_string(static_cast<DegradationRung>(r)));
      break;
    }
  }
  m.memory = result.memory;
  m.ops = result.ops;
  m.gauges = collect_gauges(result);
  return m;
}

UnitMetrics aggregate_metrics(const std::vector<UnitMetrics>& units) {
  UnitMetrics agg;
  agg.unit = "aggregate";
  agg.function = "-";
  agg.level = "-";
  agg.status = "aggregate";
  std::size_t worst = 0;
  for (const UnitMetrics& u : units) {
    agg.wall_seconds += u.wall_seconds;
    agg.node_visits += u.node_visits;
    agg.degraded = agg.degraded || u.degraded;
    // Rungs order by severity, so the worst rung of the batch is the max
    // over units; compare by enum value via the applications-scan convention
    // used in collect_unit_metrics.
    for (std::size_t r = 3; r > worst; --r) {
      if (u.worst_rung == to_string(static_cast<DegradationRung>(r))) {
        worst = r;
        break;
      }
    }
    agg.memory.live_bytes += u.memory.live_bytes;
    agg.memory.peak_bytes += u.memory.peak_bytes;
    agg.memory.total_allocated_bytes += u.memory.total_allocated_bytes;
    agg.memory.nodes_created += u.memory.nodes_created;
    agg.memory.graphs_created += u.memory.graphs_created;
    agg.ops += u.ops;
    agg.gauges.live_rsgs += u.gauges.live_rsgs;
    agg.gauges.total_nodes += u.gauges.total_nodes;
    agg.gauges.shared_nodes += u.gauges.shared_nodes;
    agg.gauges.cyclelink_nodes += u.gauges.cyclelink_nodes;
    if (u.gauges.max_rsgs_per_stmt > agg.gauges.max_rsgs_per_stmt) {
      agg.gauges.max_rsgs_per_stmt = u.gauges.max_rsgs_per_stmt;
    }
    if (u.gauges.max_nodes_per_rsg > agg.gauges.max_nodes_per_rsg) {
      agg.gauges.max_nodes_per_rsg = u.gauges.max_nodes_per_rsg;
    }
  }
  agg.worst_rung = std::string(to_string(static_cast<DegradationRung>(worst)));
  recompute_densities(agg.gauges);
  return agg;
}

std::string to_metrics_json(const UnitMetrics& m, std::string_view kind) {
  std::string out;
  out.reserve(2048);
  auto str = [&](std::string_view key, std::string_view value) {
    out += '"';
    out += key;
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  };
  auto num = [&](std::string_view key, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out += '"';
    out += key;
    out += "\":";
    out += buf;
  };
  auto dbl = [&](std::string_view key, double value) {
    out += '"';
    out += key;
    out += "\":";
    out += format_double(value);
  };

  out += '{';
  str("schema", "psa.metrics.v1");
  out += ',';
  str("kind", kind);
  out += ',';
  str("unit", m.unit);
  out += ',';
  str("function", m.function);
  out += ',';
  str("level", m.level);
  out += ',';
  str("status", m.status);
  out += ',';
  dbl("wall_seconds", m.wall_seconds);
  out += ',';
  num("node_visits", m.node_visits);
  out += ',';
  out += m.degraded ? "\"degraded\":true" : "\"degraded\":false";
  out += ',';
  str("worst_rung", m.worst_rung);

  out += ",\"memory\":{";
  num("live_bytes", m.memory.live_bytes);
  out += ',';
  num("peak_bytes", m.memory.peak_bytes);
  out += ',';
  num("total_allocated_bytes", m.memory.total_allocated_bytes);
  out += ',';
  num("nodes_created", m.memory.nodes_created);
  out += ',';
  num("graphs_created", m.memory.graphs_created);
  out += '}';

  out += ",\"gauges\":{";
  num("live_rsgs", m.gauges.live_rsgs);
  out += ',';
  num("total_nodes", m.gauges.total_nodes);
  out += ',';
  num("max_rsgs_per_stmt", m.gauges.max_rsgs_per_stmt);
  out += ',';
  num("max_nodes_per_rsg", m.gauges.max_nodes_per_rsg);
  out += ',';
  dbl("avg_nodes_per_rsg", m.gauges.avg_nodes_per_rsg);
  out += ',';
  num("shared_nodes", m.gauges.shared_nodes);
  out += ',';
  dbl("shared_density", m.gauges.shared_density);
  out += ',';
  num("cyclelink_nodes", m.gauges.cyclelink_nodes);
  out += ',';
  dbl("cyclelinks_density", m.gauges.cyclelinks_density);
  out += '}';

  out += ",\"ops\":{";
  for (std::size_t i = 0; i < support::kCounterCount; ++i) {
    if (i != 0) out += ',';
    num(support::counter_name(static_cast<Counter>(i)), m.ops.values[i]);
  }
  out += "}}\n";
  return out;
}

namespace {

/// One `--profile` phase row. Stage rows split the fixpoint rows above
/// them and have no CPU timer (the stages are timed by wall clock only).
struct PhaseRow {
  const char* name;
  Counter wall;
  Counter cpu;  // unused for a stage row
  bool stage = false;
};

/// Every phase timer, in display order. format_profile prints each one that
/// ran; tests/analysis/profile_test.cpp checks no timer is missing.
constexpr PhaseRow kPhaseRows[] = {
    {"parse", Counter::kPhaseParseWallNs, Counter::kPhaseParseCpuNs},
    {"cfg", Counter::kPhaseCfgWallNs, Counter::kPhaseCfgCpuNs},
    {"ipa", Counter::kPhaseIpaWallNs, Counter::kPhaseIpaCpuNs},
    {"fixpoint L1", Counter::kPhaseFixpointL1WallNs,
     Counter::kPhaseFixpointL1CpuNs},
    {"fixpoint L2", Counter::kPhaseFixpointL2WallNs,
     Counter::kPhaseFixpointL2CpuNs},
    {"fixpoint L3", Counter::kPhaseFixpointL3WallNs,
     Counter::kPhaseFixpointL3CpuNs},
    {"consider", Counter::kPhaseConsiderWallNs, Counter::kPhaseConsiderWallNs,
     true},
    {"transfer", Counter::kPhaseTransferWallNs, Counter::kPhaseTransferWallNs,
     true},
    {"join", Counter::kPhaseJoinWallNs, Counter::kPhaseJoinWallNs, true},
    {"widen", Counter::kPhaseWidenWallNs, Counter::kPhaseWidenWallNs, true},
    {"checkers", Counter::kPhaseCheckerWallNs, Counter::kPhaseCheckerCpuNs},
    {"cache lookup", Counter::kPhaseCacheLookupWallNs,
     Counter::kPhaseCacheLookupCpuNs},
};

void profile_phase_row(std::ostringstream& os, const MetricsSnapshot& ops,
                       const PhaseRow& row) {
  const std::uint64_t wall_ns = ops[row.wall];
  const std::uint64_t cpu_ns = row.stage ? 0 : ops[row.cpu];
  if (wall_ns == 0 && cpu_ns == 0) return;  // phase never ran
  char buf[96];
  if (row.stage) {
    std::snprintf(buf, sizeof buf, "    %-12s %10.3f ms wall\n", row.name,
                  static_cast<double>(wall_ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "  %-14s %10.3f ms wall %10.3f ms cpu\n",
                  row.name, static_cast<double>(wall_ns) / 1e6,
                  static_cast<double>(cpu_ns) / 1e6);
  }
  os << buf;
}

void profile_counter_row(std::ostringstream& os, const char* label,
                         std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "  %-28s %12" PRIu64 "\n", label, value);
  os << buf;
}

}  // namespace

std::string format_profile(const UnitMetrics& m) {
  std::ostringstream os;
  const MetricsSnapshot& ops = m.ops;
  os << "profile: " << m.unit << " (" << m.function << ", " << m.level
     << ", " << m.status << ")\n";

  os << "phases:\n";
  for (const PhaseRow& row : kPhaseRows) profile_phase_row(os, ops, row);

  os << "worklist:\n";
  profile_counter_row(os, "visits", ops[Counter::kWorklistVisits]);
  profile_counter_row(os, "revisits", ops[Counter::kWorklistRevisits]);
  profile_counter_row(os, "shared visits", ops[Counter::kSharedVisits]);
  profile_counter_row(os, "transfer cache hits",
                      ops[Counter::kTransferCacheHits]);
  profile_counter_row(os, "transfer cache misses",
                      ops[Counter::kTransferCacheMisses]);
  profile_counter_row(os, "widenings", ops[Counter::kWidenings]);
  profile_counter_row(os, "canon fallbacks", ops[Counter::kCanonFallbacks]);

  os << "rsg operations:\n";
  profile_counter_row(os, "compress calls", ops[Counter::kCompressCalls]);
  profile_counter_row(os, "compress merges", ops[Counter::kCompressMerges]);
  profile_counter_row(os, "coarsen calls", ops[Counter::kCoarsenCalls]);
  profile_counter_row(os, "summarize-top calls",
                      ops[Counter::kSummarizeTopCalls]);
  profile_counter_row(os, "join attempts", ops[Counter::kJoinAttempts]);
  profile_counter_row(os, "join accepts", ops[Counter::kJoinAccepts]);
  profile_counter_row(os, "join rejects (ALIAS)",
                      ops[Counter::kJoinRejectedAlias]);
  profile_counter_row(os, "join rejects (COMPATIBLE)",
                      ops[Counter::kJoinRejectedCompat]);
  profile_counter_row(os, "force joins", ops[Counter::kForceJoins]);
  profile_counter_row(os, "prune calls", ops[Counter::kPruneCalls]);
  profile_counter_row(os, "prune iterations", ops[Counter::kPruneIterations]);
  profile_counter_row(os, "prune links removed",
                      ops[Counter::kPruneLinksRemoved]);
  profile_counter_row(os, "prune nodes removed",
                      ops[Counter::kPruneNodesRemoved]);
  profile_counter_row(os, "prune infeasible", ops[Counter::kPruneInfeasible]);
  profile_counter_row(os, "divide calls", ops[Counter::kDivideCalls]);
  profile_counter_row(os, "divide variants", ops[Counter::kDivideVariants]);
  profile_counter_row(os, "materialize calls",
                      ops[Counter::kMaterializeCalls]);
  profile_counter_row(os, "materialize variants",
                      ops[Counter::kMaterializeVariants]);

  os << "governor:\n";
  profile_counter_row(os, "escalations", ops[Counter::kGovernorEscalations]);
  profile_counter_row(os, "collapses", ops[Counter::kGovernorCollapses]);
  profile_counter_row(os, "reapplies", ops[Counter::kGovernorReapplies]);
  profile_counter_row(os, "deadline drains", ops[Counter::kGovernorDrains]);
  if (m.degraded) os << "  degraded (worst rung: " << m.worst_rung << ")\n";

  char buf[160];
  os << "gauges:\n";
  std::snprintf(buf, sizeof buf,
                "  live RSGs %" PRIu64 " (max/stmt %" PRIu64
                "), nodes %" PRIu64 " (max/RSG %" PRIu64 ", avg %.2f)\n",
                m.gauges.live_rsgs, m.gauges.max_rsgs_per_stmt,
                m.gauges.total_nodes, m.gauges.max_nodes_per_rsg,
                m.gauges.avg_nodes_per_rsg);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  SHARED density %.3f (%" PRIu64
                " nodes), CYCLELINKS density %.3f (%" PRIu64 " nodes)\n",
                m.gauges.shared_density, m.gauges.shared_nodes,
                m.gauges.cyclelinks_density, m.gauges.cyclelink_nodes);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  peak memory %.2f MB, visits %" PRIu64 ", wall %.3f s\n",
                static_cast<double>(m.memory.peak_bytes) / (1024.0 * 1024.0),
                m.node_visits, m.wall_seconds);
  os << buf;
  return os.str();
}

}  // namespace psa::analysis
