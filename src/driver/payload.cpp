#include "driver/payload.hpp"

#include "support/metrics.hpp"

namespace psa::driver {

namespace {

using rsg::ByteReader;
using rsg::ByteWriter;
using rsg::SnapshotError;

void append_finding(ByteWriter& out, const checker::Finding& f) {
  out.u8(static_cast<std::uint8_t>(f.kind));
  out.u8(static_cast<std::uint8_t>(f.severity));
  out.u32(f.site);
  out.u32(f.loc.line);
  out.u32(f.loc.column);
  out.str(f.stmt);
  out.str(f.message);
  out.str(f.witness_node);
  out.u64(f.graphs_bad);
  out.u64(f.graphs_total);
  out.u8(f.degraded ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(f.trace.size()));
  for (const checker::TraceStep& step : f.trace) {
    out.u32(step.loc.line);
    out.u32(step.loc.column);
    out.str(step.text);
  }
}

checker::Finding read_finding(ByteReader& in) {
  checker::Finding f;
  const std::uint8_t kind = in.u8("finding kind");
  if (kind > static_cast<std::uint8_t>(checker::CheckKind::kLeakAtExit)) {
    throw SnapshotError("bad finding kind");
  }
  f.kind = static_cast<checker::CheckKind>(kind);
  const std::uint8_t severity = in.u8("finding severity");
  if (severity > static_cast<std::uint8_t>(checker::CheckSeverity::kError)) {
    throw SnapshotError("bad finding severity");
  }
  f.severity = static_cast<checker::CheckSeverity>(severity);
  f.site = in.u32("finding site");
  f.loc.line = in.u32("finding line");
  f.loc.column = in.u32("finding column");
  f.stmt = std::string(in.str("finding stmt"));
  f.message = std::string(in.str("finding message"));
  f.witness_node = std::string(in.str("finding witness"));
  f.graphs_bad = in.u64("finding graphs bad");
  f.graphs_total = in.u64("finding graphs total");
  const std::uint8_t degraded = in.u8("finding degraded flag");
  if (degraded > 1) throw SnapshotError("bad finding degraded flag");
  f.degraded = degraded != 0;
  const std::uint32_t steps = in.count("finding trace", 12);
  f.trace.reserve(steps);
  for (std::uint32_t i = 0; i < steps; ++i) {
    checker::TraceStep step;
    step.loc.line = in.u32("trace line");
    step.loc.column = in.u32("trace column");
    step.text = std::string(in.str("trace text"));
    f.trace.push_back(std::move(step));
  }
  return f;
}

void append_gauges(ByteWriter& out, const analysis::PopulationGauges& g) {
  out.u64(g.live_rsgs);
  out.u64(g.total_nodes);
  out.u64(g.max_rsgs_per_stmt);
  out.u64(g.max_nodes_per_rsg);
  out.u64(g.shared_nodes);
  out.u64(g.cyclelink_nodes);
}

analysis::PopulationGauges read_gauges(ByteReader& in) {
  analysis::PopulationGauges g;
  g.live_rsgs = in.u64("gauge live rsgs");
  g.total_nodes = in.u64("gauge total nodes");
  g.max_rsgs_per_stmt = in.u64("gauge max rsgs per stmt");
  g.max_nodes_per_rsg = in.u64("gauge max nodes per rsg");
  g.shared_nodes = in.u64("gauge shared nodes");
  g.cyclelink_nodes = in.u64("gauge cyclelink nodes");
  if (g.max_rsgs_per_stmt > g.live_rsgs ||
      g.max_nodes_per_rsg > g.total_nodes ||
      g.shared_nodes > g.total_nodes || g.cyclelink_nodes > g.total_nodes) {
    throw SnapshotError("population gauges inconsistent");
  }
  analysis::recompute_densities(g);
  return g;
}

/// A loaded result holds one (empty) set per CFG statement, and the
/// statement count is untrusted, so it is capped: far above any function
/// the engine can analyze, far below an allocation that could hurt.
constexpr std::uint32_t kMaxStatements = std::uint32_t{1} << 20;

}  // namespace

std::string serialize_unit_payload(const UnitPayload& payload,
                                   const support::Interner& interner) {
  rsg::SymbolTableBuilder table(interner);
  ByteWriter body;
  body.str(payload.unit_name);
  body.str(payload.function);
  body.u8(payload.frontend_ok ? 1 : 0);
  if (!payload.frontend_ok) {
    body.str(payload.frontend_error);
  } else {
    body.u32(static_cast<std::uint32_t>(payload.result.per_node.size()));
    body.u32(payload.exit_node);
    analysis::append_result_scalars(body, payload.result);
    analysis::append_rsrsg(body, payload.result.per_node[payload.exit_node],
                           table);
    append_gauges(body, payload.gauges);
    // Salvage-mode degradation summary (all zero on a clean frontend).
    body.u32(payload.skipped_decls);
    body.u32(payload.havoc_sites);
    body.u32(payload.unsupported_count);
    body.u32(payload.functions_analyzable);
    body.u32(payload.functions_total);
    body.str(payload.salvage_diagnostics);
  }
  body.u8(payload.checked ? 1 : 0);
  body.u32(static_cast<std::uint32_t>(payload.findings.size()));
  for (const checker::Finding& f : payload.findings) append_finding(body, f);
  analysis::append_metrics(body, payload.metrics);

  ByteWriter out;
  table.write_table(out);
  std::string bytes = out.take();
  bytes += body.bytes();
  return rsg::wrap_snapshot(std::move(bytes));
}

UnitPayload deserialize_unit_payload(std::string_view bytes) {
  ByteReader in(rsg::unwrap_snapshot(bytes));
  UnitPayload payload;
  payload.interner = std::make_shared<support::Interner>();
  const rsg::SymbolTableView table(in, *payload.interner);
  payload.unit_name = std::string(in.str("unit name"));
  payload.function = std::string(in.str("unit function"));
  const std::uint8_t frontend_ok = in.u8("frontend flag");
  if (frontend_ok > 1) throw SnapshotError("bad frontend flag");
  payload.frontend_ok = frontend_ok != 0;
  if (!payload.frontend_ok) {
    payload.frontend_error = std::string(in.str("frontend error"));
  } else {
    const std::uint32_t statements = in.u32("statement count");
    if (statements > kMaxStatements) {
      throw SnapshotError("statement count out of range");
    }
    payload.exit_node = in.u32("exit node");
    if (payload.exit_node >= statements) {
      throw SnapshotError("exit node out of range");
    }
    payload.result = analysis::read_result_scalars(in);
    payload.result.per_node.resize(statements);
    payload.result.per_node[payload.exit_node] =
        analysis::read_rsrsg(in, table);
    payload.gauges = read_gauges(in);
    payload.skipped_decls = in.u32("salvage skipped decls");
    payload.havoc_sites = in.u32("salvage havoc sites");
    payload.unsupported_count = in.u32("salvage unsupported count");
    payload.functions_analyzable = in.u32("salvage functions analyzable");
    payload.functions_total = in.u32("salvage functions total");
    if (payload.functions_analyzable > payload.functions_total) {
      throw SnapshotError("salvage function counts inconsistent");
    }
    payload.salvage_diagnostics = std::string(in.str("salvage diagnostics"));
  }
  const std::uint8_t checked = in.u8("checked flag");
  if (checked > 1) throw SnapshotError("bad checked flag");
  payload.checked = checked != 0;
  const std::uint32_t findings = in.count("findings", 39);
  payload.findings.reserve(findings);
  for (std::uint32_t i = 0; i < findings; ++i) {
    payload.findings.push_back(read_finding(in));
  }
  payload.metrics = analysis::read_metrics(in);
  in.expect_end("unit payload");
  return payload;
}

}  // namespace psa::driver
