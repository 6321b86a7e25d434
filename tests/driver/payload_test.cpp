// The batch unit payload (driver/payload.hpp): its bytes depend on the exit
// state and on no other statement's state, a loaded payload holds the exit
// state and the worker's gauges and re-serializes to the same bytes, and
// hostile bytes throw SnapshotError, never UB (this suite also runs under
// ASan/UBSan via the sanitize preset).
#include "driver/payload.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "analysis/analyzer.hpp"
#include "corpus/corpus.hpp"
#include "driver/supervisor.hpp"

namespace psa::driver {
namespace {

/// A payload built the way the batch worker builds one: L1, checked.
UnitPayload build_payload(const analysis::ProgramAnalysis& program,
                          std::string_view name) {
  UnitPayload payload;
  payload.unit_name = std::string(name);
  payload.function = "main";
  payload.result = analysis::analyze_program(program, analysis::Options{});
  payload.exit_node = program.cfg.exit();
  payload.gauges = analysis::collect_gauges(payload.result);
  payload.checked = true;
  payload.findings = checker::run_checkers(program, payload.result);
  return payload;
}

TEST(PayloadTest, BytesDependOnTheExitStateOnly) {
  for (const corpus::CorpusProgram& p : corpus::all_programs()) {
    SCOPED_TRACE(std::string(p.name));
    const analysis::ProgramAnalysis program = analysis::prepare(p.source);
    UnitPayload payload = build_payload(program, p.name);
    const std::string bytes =
        serialize_unit_payload(payload, program.interner());

    // A loaded payload keeps the CFG's shape, the exit state and the
    // worker's gauges, and nothing of the other statements.
    const UnitPayload loaded = deserialize_unit_payload(bytes);
    ASSERT_EQ(loaded.result.per_node.size(), program.cfg.size());
    for (std::size_t i = 0; i < loaded.result.per_node.size(); ++i) {
      if (i == loaded.exit_node) continue;
      EXPECT_TRUE(loaded.result.per_node[i].empty()) << "stmt " << i;
    }
    const analysis::Rsrsg& exit_state =
        loaded.result.per_node[loaded.exit_node];
    EXPECT_EQ(analysis::serialize_rsrsg(exit_state, *loaded.interner),
              analysis::serialize_rsrsg(payload.result.at_exit(program.cfg),
                                        program.interner()));
    EXPECT_EQ(loaded.gauges.live_rsgs, payload.gauges.live_rsgs);
    EXPECT_EQ(loaded.gauges.total_nodes, payload.gauges.total_nodes);
    EXPECT_EQ(loaded.gauges.avg_nodes_per_rsg,
              payload.gauges.avg_nodes_per_rsg);
    EXPECT_EQ(loaded.gauges.shared_density, payload.gauges.shared_density);
    EXPECT_EQ(serialize_unit_payload(loaded, *loaded.interner), bytes);

    // Clearing every other statement's state changes no byte.
    for (std::size_t i = 0; i < payload.result.per_node.size(); ++i) {
      if (i != payload.exit_node) payload.result.per_node[i] = {};
    }
    EXPECT_EQ(serialize_unit_payload(payload, program.interner()), bytes);
  }
}

/// The real payload bytes of the corpus `sll` unit, as its worker sends
/// them.
std::string sll_payload_bytes() {
  for (const AnalysisUnit& unit : corpus_units()) {
    if (unit.name == "sll") {
      return run_unit_serialized(unit, analysis::Options{}, /*check=*/true);
    }
  }
  return {};
}

TEST(SnapshotCorruption, BitFlipsInResultSnapshotsAreRejected) {
  const std::string bytes = sll_payload_bytes();
  ASSERT_TRUE(deserialize_unit_payload(bytes).frontend_ok);
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string mutated = bytes;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x20);
    EXPECT_THROW((void)deserialize_unit_payload(mutated), rsg::SnapshotError)
        << "byte " << byte;
  }
}

TEST(SnapshotCorruption, TruncationsOfResultSnapshotsAreRejected) {
  const std::string bytes = sll_payload_bytes();
  ASSERT_TRUE(deserialize_unit_payload(bytes).frontend_ok);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)deserialize_unit_payload(bytes.substr(0, n)),
                 rsg::SnapshotError)
        << "prefix length " << n;
  }
}

TEST(SnapshotCorruption, HostileStatementCountsAreRejected) {
  // Checksum-valid bytes whose statement count or exit node lies: the
  // loader must neither allocate a set per claimed statement nor index
  // past them.
  constexpr std::string_view kName = "payload-under-test";
  UnitPayload payload = deserialize_unit_payload(sll_payload_bytes());
  payload.unit_name = std::string(kName);
  const std::string bytes = serialize_unit_payload(payload, *payload.interner);
  // The two u32 fields follow the unit name, the function and the frontend
  // flag; rewrapping keeps the envelope checksum valid.
  const auto with_field = [&](std::size_t field, std::uint32_t value) {
    std::string body(rsg::unwrap_snapshot(bytes));
    const std::string anchor =
        std::string(kName) + std::string("\x04\0\0\0main\x01", 9);
    const std::size_t at = body.find(anchor);
    EXPECT_NE(at, std::string::npos);
    rsg::ByteWriter value_bytes;
    value_bytes.u32(value);
    body.replace(at + anchor.size() + 4 * field, 4, value_bytes.bytes());
    return rsg::wrap_snapshot(std::move(body));
  };
  const auto statements =
      static_cast<std::uint32_t>(payload.result.per_node.size());
  EXPECT_EQ(with_field(0, statements), bytes);
  EXPECT_THROW((void)deserialize_unit_payload(
                   with_field(0, std::numeric_limits<std::uint32_t>::max())),
               rsg::SnapshotError);
  EXPECT_THROW(
      (void)deserialize_unit_payload(with_field(0, payload.exit_node)),
      rsg::SnapshotError);
  EXPECT_THROW((void)deserialize_unit_payload(with_field(1, statements)),
               rsg::SnapshotError);
}

}  // namespace
}  // namespace psa::driver
