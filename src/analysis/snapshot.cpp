// Analysis-layer snapshot records (see snapshot.hpp).
#include "analysis/snapshot.hpp"

namespace psa::analysis {

namespace {

using rsg::ByteReader;
using rsg::ByteWriter;
using rsg::SymbolTableBuilder;
using rsg::SymbolTableView;

void append_degradation(ByteWriter& out, const DegradationReport& report) {
  out.u32(static_cast<std::uint32_t>(report.events.size()));
  for (const DegradationEvent& e : report.events) {
    out.u32(e.node);
    out.u8(static_cast<std::uint8_t>(e.rung));
    out.u8(static_cast<std::uint8_t>(e.trigger));
    out.u64(e.graphs_before);
    out.u64(e.graphs_after);
  }
  for (const std::uint32_t n : report.rung_applications) out.u32(n);
  for (const double s : report.rung_seconds) out.f64(s);
  out.u8(report.deadline_drain ? 1 : 0);
  out.u8(report.memory_budget_unreachable ? 1 : 0);
  out.u8(static_cast<std::uint8_t>(report.floor));
}

DegradationRung read_rung(ByteReader& in, const char* what) {
  const std::uint8_t rung = in.u8(what);
  if (rung > static_cast<std::uint8_t>(DegradationRung::kSummarize)) {
    throw SnapshotError(std::string("bad degradation rung in ") + what);
  }
  return static_cast<DegradationRung>(rung);
}

AnalysisStatus read_status(ByteReader& in, const char* what) {
  const std::uint8_t status = in.u8(what);
  if (status > static_cast<std::uint8_t>(AnalysisStatus::kDeadline)) {
    throw SnapshotError(std::string("bad analysis status in ") + what);
  }
  return static_cast<AnalysisStatus>(status);
}

DegradationReport read_degradation(ByteReader& in) {
  DegradationReport report;
  const std::uint32_t events = in.count("degradation events", 22);
  report.events.reserve(events);
  for (std::uint32_t i = 0; i < events; ++i) {
    DegradationEvent e;
    e.node = in.u32("event node");
    e.rung = read_rung(in, "event rung");
    e.trigger = read_status(in, "event trigger");
    e.graphs_before = in.u64("event graphs before");
    e.graphs_after = in.u64("event graphs after");
    report.events.push_back(e);
  }
  for (std::uint32_t& n : report.rung_applications) {
    n = in.u32("rung applications");
  }
  for (double& s : report.rung_seconds) s = in.f64("rung seconds");
  report.deadline_drain = in.u8("deadline drain") != 0;
  report.memory_budget_unreachable = in.u8("memory unreachable") != 0;
  report.floor = read_rung(in, "floor rung");
  return report;
}

}  // namespace

void append_metrics(ByteWriter& out, const support::MetricsSnapshot& ops) {
  out.u32(static_cast<std::uint32_t>(support::kCounterCount));
  for (const std::uint64_t v : ops.values) out.u64(v);
}

support::MetricsSnapshot read_metrics(ByteReader& in) {
  // Writer and reader are the same build, so the counter vocabulary must
  // match exactly; anything else is corruption (or a stale checkpoint from a
  // different binary — equally unusable).
  const std::uint32_t count = in.u32("ops counter count");
  if (count != support::kCounterCount) {
    throw SnapshotError("ops counter count mismatch");
  }
  support::MetricsSnapshot ops;
  for (std::uint64_t& v : ops.values) v = in.u64("ops counter");
  return ops;
}

void append_rsrsg(ByteWriter& out, const Rsrsg& set,
                  SymbolTableBuilder& table) {
  out.u8(set.widened() ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(set.size()));
  for (const Rsg& g : set.graphs()) rsg::append_rsg(out, g, table);
}

Rsrsg read_rsrsg(ByteReader& in, const SymbolTableView& table) {
  const std::uint8_t widened = in.u8("widened flag");
  if (widened > 1) throw SnapshotError("bad widened flag");
  const std::uint32_t n = in.count("rsrsg members", 12);
  std::vector<Rsg> graphs;
  graphs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    graphs.push_back(rsg::read_rsg(in, table));
  }
  return Rsrsg::restore(std::move(graphs), widened != 0);
}

void append_result_scalars(ByteWriter& out, const AnalysisResult& result) {
  out.u8(static_cast<std::uint8_t>(result.status));
  out.f64(result.seconds);
  out.u64(result.node_visits);
  out.u64(result.memory.live_bytes);
  out.u64(result.memory.peak_bytes);
  out.u64(result.memory.total_allocated_bytes);
  out.u64(result.memory.nodes_created);
  out.u64(result.memory.graphs_created);
  append_degradation(out, result.degradation);
  append_metrics(out, result.ops);
}

AnalysisResult read_result_scalars(ByteReader& in) {
  AnalysisResult result;
  result.status = read_status(in, "result status");
  result.seconds = in.f64("result seconds");
  result.node_visits = in.u64("node visits");
  result.memory.live_bytes = in.u64("live bytes");
  result.memory.peak_bytes = in.u64("peak bytes");
  result.memory.total_allocated_bytes = in.u64("total allocated bytes");
  result.memory.nodes_created = in.u64("nodes created");
  result.memory.graphs_created = in.u64("graphs created");
  result.degradation = read_degradation(in);
  result.ops = read_metrics(in);
  return result;
}

std::string serialize_rsrsg(const Rsrsg& set,
                            const support::Interner& interner) {
  SymbolTableBuilder table(interner);
  ByteWriter body;
  append_rsrsg(body, set, table);
  ByteWriter out;
  table.write_table(out);
  std::string bytes = out.take();
  bytes += body.bytes();
  return rsg::wrap_snapshot(std::move(bytes));
}

Rsrsg deserialize_rsrsg(std::string_view bytes, support::Interner& interner) {
  ByteReader in(rsg::unwrap_snapshot(bytes));
  const SymbolTableView table(in, interner);
  Rsrsg set = read_rsrsg(in, table);
  in.expect_end("rsrsg record");
  return set;
}

}  // namespace psa::analysis
