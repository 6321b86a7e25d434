// Snapshots of analysis-layer values, built on the rsg/serialize.hpp wire
// format: Rsrsg sets, the scalar record of an AnalysisResult (status,
// resource accounting, degradation report, operation counters) and the
// operation counters alone.
//
// The batch driver (src/driver/payload.hpp) composes these records into the
// unit payload a sandboxed worker sends its supervisor, which the result
// cache and the checkpoint store too. A payload carries the exit Rsrsg
// only: per-statement states never leave the process that ran the fixpoint.
// The Rsrsg round trip is canon-exact when restored into the originating
// interner (the restored set equals the original member-for-member by
// canonical key); restored into a different interner it is the same value
// up to symbol renaming and re-serializes to byte-identical bytes (see
// rsg/serialize.hpp). Scalars round-trip bit for bit. Deserialization
// follows the serialize.hpp robustness contract: hostile bytes throw
// rsg::SnapshotError, never UB.
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

/// Everything of an AnalysisResult but its states: status, seconds, node
/// visits, memory, degradation report and ops. The read side returns an
/// empty per_node.
void append_result_scalars(rsg::ByteWriter& out, const AnalysisResult& result);
[[nodiscard]] AnalysisResult read_result_scalars(rsg::ByteReader& in);

// Self-contained snapshot of one Rsrsg (envelope + string table + record).
[[nodiscard]] std::string serialize_rsrsg(const Rsrsg& set,
                                          const support::Interner& interner);
[[nodiscard]] Rsrsg deserialize_rsrsg(std::string_view bytes,
                                      support::Interner& interner);

}  // namespace psa::analysis
