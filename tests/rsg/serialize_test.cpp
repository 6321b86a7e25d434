// Round-trip and corruption-tolerance suite for the snapshot wire format.
//
// The robustness contract under test: deserialize(serialize(g)) is
// canon-identical to g, and deserialization of hostile bytes — truncated,
// bit-flipped, wrong version, wrong checksum — throws SnapshotError with a
// diagnostic and never exhibits UB (this suite also runs under ASan/UBSan
// via the sanitize preset).
#include "rsg/serialize.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "rsg/canon.hpp"
#include "testing/program_gen.hpp"
#include "testing/rsg_builder.hpp"

namespace psa::rsg {
namespace {

using psa::testing::RsgBuilder;

Rsg sample_graph(RsgBuilder& b) {
  const auto head = b.node(Cardinality::kOne);
  const auto tail = b.node(Cardinality::kMany);
  b.pvar("head", head);
  b.link(head, "next", tail);
  b.link(tail, "next", tail);
  b.selout(head, "next");
  b.selin(tail, "next");
  b.shared(tail);
  b.cyclelink(tail, "next", "prev");
  b.touch(tail, "head");
  return b.g;
}

TEST(SerializeEnvelope, RoundTripsPayloadBytes) {
  const std::string payload = "hello snapshot";
  const std::string wrapped = wrap_snapshot(payload);
  EXPECT_EQ(unwrap_snapshot(wrapped), payload);
}

TEST(SerializeEnvelope, RejectsBadMagic) {
  std::string bytes = wrap_snapshot("payload");
  bytes[0] = 'X';
  EXPECT_THROW((void)unwrap_snapshot(bytes), SnapshotError);
}

TEST(SerializeEnvelope, RejectsWrongVersion) {
  std::string bytes = wrap_snapshot("payload");
  bytes[8] = static_cast<char>(kSnapshotVersion + 1);
  EXPECT_THROW((void)unwrap_snapshot(bytes), SnapshotError);
}

TEST(SerializeEnvelope, VersionIsPinnedAndPredecessorsAreRejected) {
  // v10: the metrics vocabulary lost the two phase_serialize timers
  // (src/rsg/serialize.hpp). A version bump without updating this pin is a
  // wire-format change nobody signed off on.
  EXPECT_EQ(kSnapshotVersion, 10u);
  // Every prior version (v1 pre-metrics, v2 pre-IPA, v3 pre-func-cache,
  // v4 pre-io-counters, v5 with the daemon counters, v6 before the stage
  // timers, v7 before shared_visits, v8 with per-statement states, v9 with
  // the serialize timers) must be rejected — stale cache entries and
  // checkpoints re-analyze rather than misparse.
  for (std::uint8_t old = 0; old < kSnapshotVersion; ++old) {
    std::string bytes = wrap_snapshot("payload");
    bytes[8] = static_cast<char>(old);
    EXPECT_THROW((void)unwrap_snapshot(bytes), SnapshotError)
        << "version " << static_cast<int>(old);
  }
}

TEST(SerializeEnvelope, RejectsWrongChecksum) {
  std::string bytes = wrap_snapshot("payload");
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);
  EXPECT_THROW((void)unwrap_snapshot(bytes), SnapshotError);
}

TEST(SerializeEnvelope, RejectsTruncationAtEveryLength) {
  const std::string bytes = wrap_snapshot("a payload long enough to cut");
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW((void)unwrap_snapshot(bytes.substr(0, n)), SnapshotError)
        << "prefix length " << n;
  }
}

TEST(SerializeEnvelope, RejectsTrailingGarbage) {
  std::string bytes = wrap_snapshot("payload");
  bytes += "garbage";
  EXPECT_THROW((void)unwrap_snapshot(bytes), SnapshotError);
}

TEST(ByteReaderTest, CountRejectsImpossibleElementCounts) {
  ByteWriter w;
  w.u32(1'000'000);  // count claiming a million 8-byte records in 4 bytes
  w.u32(0);
  const std::string bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.count("records", 8), SnapshotError);
}

TEST(ByteReaderTest, StrRejectsLengthBeyondBuffer) {
  ByteWriter w;
  w.u32(500);  // length prefix promising 500 bytes that are not there
  w.u8('x');
  const std::string bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW((void)r.str("name"), SnapshotError);
}

TEST(RsgRoundTrip, HandBuiltGraphIsCanonIdentical) {
  // Read back into the ORIGINATING interner: symbols resolve to the same
  // ids, so the round-trip is exactly the original graph.
  RsgBuilder b;
  const Rsg g = sample_graph(b);
  const std::string bytes = serialize_rsg(g, b.interner());

  const Rsg back = deserialize_rsg(bytes, *b.interner_ptr());
  EXPECT_EQ(canonical_key(g), canonical_key(back));
}

TEST(RsgRoundTrip, HavocTaintBitsRoundTrip) {
  // v2 of the wire format added the salvage-mode HAVOC taint: one byte per
  // node plus one graph-level byte. Both must survive the round-trip.
  RsgBuilder b;
  Rsg g = sample_graph(b);
  const auto refs = g.node_refs();
  ASSERT_GE(refs.size(), 2u);
  g.props(refs[0]).havoc = true;
  g.set_havoc(true);
  const std::string bytes = serialize_rsg(g, b.interner());

  const Rsg back = deserialize_rsg(bytes, *b.interner_ptr());
  EXPECT_EQ(canonical_key(g), canonical_key(back));
  EXPECT_TRUE(back.havoc());
  const auto back_refs = back.node_refs();
  EXPECT_TRUE(back.props(back_refs[0]).havoc);
  EXPECT_FALSE(back.props(back_refs[1]).havoc);
  // A graph without taint must not gain it.
  b.g.set_havoc(false);
  for (const NodeRef n : b.g.node_refs()) b.g.props(n).havoc = false;
  const Rsg clean = deserialize_rsg(serialize_rsg(b.g, b.interner()),
                                    *b.interner_ptr());
  EXPECT_FALSE(clean.havoc());
}

TEST(RsgRoundTrip, EmptyGraph) {
  support::Interner interner;
  const Rsg g;
  support::Interner fresh;
  const Rsg back = deserialize_rsg(serialize_rsg(g, interner), fresh);
  EXPECT_EQ(canonical_key(g), canonical_key(back));
}

TEST(RsgRoundTrip, SurvivesReinterningIntoADifferentInterner) {
  // Across interners symbol IDS may change (keys are id-based), but the
  // snapshot is canonical: the string table is written in first-use order of
  // the SPELLINGS, so re-serializing the re-interned graph reproduces the
  // original bytes exactly — even into a pre-polluted interner.
  RsgBuilder b;
  const Rsg g = sample_graph(b);
  const std::string bytes = serialize_rsg(g, b.interner());

  support::Interner fresh;
  for (int i = 0; i < 50; ++i) {
    (void)fresh.intern("pad" + std::to_string(i));
  }
  const Rsg back = deserialize_rsg(bytes, fresh);
  EXPECT_EQ(serialize_rsg(back, fresh), bytes);
}

TEST(RsgRoundTrip, FuzzGeneratedExitStatesAreCanonIdentical) {
  for (unsigned seed = 0; seed < 10; ++seed) {
    const std::string source = psa::testing::generate_program(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto program = analysis::prepare(source);
    analysis::Options options;
    options.level = rsg::AnalysisLevel::kL2;
    options.max_node_visits = 200'000;
    const auto result = analysis::analyze_program(program, options);
    ASSERT_TRUE(result.converged());
    for (const Rsg& g : result.at_exit(program.cfg).graphs()) {
      const std::string bytes = serialize_rsg(g, program.interner());
      // Same-interner round trip: exact.
      const Rsg back = deserialize_rsg(bytes, *program.unit.interner);
      EXPECT_EQ(canonical_key(g), canonical_key(back));
      // Cross-interner round trip: canonical bytes.
      support::Interner fresh;
      const Rsg reinterned = deserialize_rsg(bytes, fresh);
      EXPECT_EQ(serialize_rsg(reinterned, fresh), bytes);
    }
  }
}

// The payload of a graph snapshot is checksummed, so EVERY single-bit flip
// anywhere in the bytes must be detected (header flips break magic/version/
// size, payload flips break the checksum, checksum flips mismatch the
// payload) — and must never crash or read out of bounds.
TEST(RsgCorruption, EverySingleBitFlipIsRejected) {
  RsgBuilder b;
  const Rsg g = sample_graph(b);
  const std::string bytes = serialize_rsg(g, b.interner());

  support::Interner fresh;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      EXPECT_THROW((void)deserialize_rsg(mutated, fresh), SnapshotError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(RsgCorruption, TruncatedSnapshotsAreRejected) {
  RsgBuilder b;
  const Rsg g = sample_graph(b);
  const std::string bytes = serialize_rsg(g, b.interner());

  support::Interner fresh;
  for (std::size_t n = 0; n < bytes.size(); n += 3) {
    EXPECT_THROW((void)deserialize_rsg(bytes.substr(0, n), fresh),
                 SnapshotError)
        << "prefix length " << n;
  }
}

TEST(RsgCorruption, ValidEnvelopeAroundGarbagePayloadIsRejected) {
  // A well-formed envelope whose payload is noise: the structural validators
  // (symbol table, node refs, counts) must catch it.
  const std::string garbage(64, '\xff');
  const std::string bytes = wrap_snapshot(garbage);
  support::Interner fresh;
  EXPECT_THROW((void)deserialize_rsg(bytes, fresh), SnapshotError);
}

TEST(RsgCorruption, EmptyAndTinyInputsAreRejected) {
  support::Interner fresh;
  EXPECT_THROW((void)deserialize_rsg("", fresh), SnapshotError);
  EXPECT_THROW((void)deserialize_rsg("PSA", fresh), SnapshotError);
  EXPECT_THROW((void)deserialize_rsg(std::string(32, '\0'), fresh),
               SnapshotError);
}

}  // namespace
}  // namespace psa::rsg
