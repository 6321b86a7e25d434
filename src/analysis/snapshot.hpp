// Snapshots of analysis-layer values, built on the rsg/serialize.hpp wire
// format: Rsrsg sets and whole AnalysisResults (status, per-statement
// states, degradation report, resource accounting).
//
// The batch driver (src/driver/) ships an AnalysisResult snapshot from a
// sandboxed worker process to its supervisor and journals the same bytes as
// the on-disk checkpoint that makes interrupted batch runs resumable; the
// round-trip is canon-exact when restored into the originating interner
// (every restored Rsrsg equals the original member-for-member by
// canonical key, and every scalar field is preserved bit-for-bit); restored
// into a different interner it is the same value up to symbol renaming and
// re-serializes to byte-identical bytes (see rsg/serialize.hpp).
// Deserialization follows the serialize.hpp robustness contract: hostile
// bytes throw rsg::SnapshotError, never UB.
#pragma once

#include <string>
#include <string_view>

#include "analysis/engine.hpp"
#include "rsg/serialize.hpp"

namespace psa::analysis {

using rsg::SnapshotError;

// Record-level API (for embedding in larger payloads, e.g. the batch
// driver's UnitPayload).
void append_metrics(rsg::ByteWriter& out, const support::MetricsSnapshot& ops);
[[nodiscard]] support::MetricsSnapshot read_metrics(rsg::ByteReader& in);

void append_rsrsg(rsg::ByteWriter& out, const Rsrsg& set,
                  rsg::SymbolTableBuilder& table);
[[nodiscard]] Rsrsg read_rsrsg(rsg::ByteReader& in,
                               const rsg::SymbolTableView& table);

void append_analysis_result(rsg::ByteWriter& out, const AnalysisResult& result,
                            rsg::SymbolTableBuilder& table);
[[nodiscard]] AnalysisResult read_analysis_result(
    rsg::ByteReader& in, const rsg::SymbolTableView& table);

// Self-contained snapshots (envelope + string table + one record).
[[nodiscard]] std::string serialize_rsrsg(const Rsrsg& set,
                                          const support::Interner& interner);
[[nodiscard]] Rsrsg deserialize_rsrsg(std::string_view bytes,
                                      support::Interner& interner);

[[nodiscard]] std::string serialize_analysis_result(
    const AnalysisResult& result, const support::Interner& interner);
[[nodiscard]] AnalysisResult deserialize_analysis_result(
    std::string_view bytes, support::Interner& interner);

}  // namespace psa::analysis
