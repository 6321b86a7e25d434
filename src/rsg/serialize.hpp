// Versioned, checksummed binary snapshots of shape graphs.
//
// The wire format backs two consumers (see docs/RESILIENCE.md):
//   * the worker -> supervisor IPC payload of the crash-isolated batch
//     driver (src/driver/), and
//   * the on-disk checkpoint journal that makes interrupted batch runs
//     resumable.
//
// Layout. Every snapshot is an *envelope* around a payload:
//
//   offset  size  field
//   0       8     magic "PSASNAP1"
//   8       4     format version (little-endian u32, kSnapshotVersion)
//   12      4     flags (reserved, 0)
//   16      8     payload size in bytes (little-endian u64)
//   24      8     FNV-1a 64-bit checksum of the payload bytes
//                 (support::fnv1a)
//   32      n     payload
//
// Payloads are built from little-endian fixed-width integers, length-
// prefixed byte strings, and an interned-strings table: symbols are stored
// as indices into the table (index 0 is the invalid symbol), and the table
// itself is re-interned into the destination Interner on load, so a snapshot
// is portable across processes whose interners differ. Identity semantics:
// reading back into the ORIGINATING interner reproduces the value exactly
// (canonical keys compare symbol ids); reading into a different
// interner yields the same graph up to symbol renaming, and re-serializing
// it reproduces the original bytes exactly — every symbol collection is
// written in spelling order (in-memory containers sort by interner id, which
// is process-local), so the snapshot itself is canonical.
//
// Robustness contract: deserialization NEVER exhibits UB on hostile bytes.
// Every read is bounds-checked, every count is validated against the bytes
// actually remaining, and every node ref / symbol index is range-checked;
// violations (including truncation, bit flips, version and checksum
// mismatches) throw SnapshotError with a diagnostic. The corruption suite in
// tests/rsg/serialize_test.cpp locks this in under ASan/UBSan.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rsg/rsg.hpp"
#include "support/interner.hpp"

namespace psa::rsg {

/// Any defect in a snapshot: truncation, corruption, version or checksum
/// mismatch, out-of-range record. The message names the offending field.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// The format version written by this build. v2 added the salvage-mode HAVOC
/// taint (one flag byte per node record, one per graph record); v3 grew the
/// embedded metrics vocabulary with the interprocedural-summary counters and
/// the phase_ipa timers (the metrics array is length-checked against
/// kCounterCount, so the growth is a wire-format change); v4 grew it again
/// with the function-granular cache counters (func_cache_*, summary_reuse);
/// v5 grew it with the durable-I/O counters (io_writes, io_fsyncs,
/// io_faults_injected, io_degradations); v6 shrank it by the eight counters
/// of the removed analysis daemon (76 -> 68); v7 grew it with the
/// canon_fallbacks counter and the four fixpoint-stage timers (68 -> 73);
/// v8 grew it with shared_visits (73 -> 74); v9 slimmed the batch unit
/// payload to its exit state and population gauges (driver/payload.hpp);
/// v10 shrank the vocabulary by the two phase_serialize timers (74 -> 72).
/// Older snapshots are rejected with a version mismatch rather than misread.
inline constexpr std::uint32_t kSnapshotVersion = 10;

// --- Byte-level primitives ---------------------------------------------------

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bit pattern, round-trips exactly
  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::string take() noexcept { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked reader over a byte buffer; every overrun throws
/// SnapshotError naming `what`.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8(const char* what);
  [[nodiscard]] std::uint32_t u32(const char* what);
  [[nodiscard]] std::uint64_t u64(const char* what);
  [[nodiscard]] double f64(const char* what);
  [[nodiscard]] std::string_view str(const char* what);
  /// A u32 element count about to drive a loop: additionally validated
  /// against the bytes remaining (>= min_bytes_each per element), so a
  /// corrupted count cannot trigger a pathological allocation.
  [[nodiscard]] std::uint32_t count(const char* what,
                                    std::size_t min_bytes_each = 1);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }
  /// Throws unless the buffer was fully consumed.
  void expect_end(const char* what) const;

 private:
  void need(std::size_t n, const char* what) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// --- Envelope ----------------------------------------------------------------

/// Wrap a payload in the magic/version/size/checksum envelope.
[[nodiscard]] std::string wrap_snapshot(std::string payload);

/// Validate the envelope and return a view of the payload. Throws
/// SnapshotError on bad magic, unsupported version, size mismatch
/// (truncation/trailing garbage) or checksum mismatch.
[[nodiscard]] std::string_view unwrap_snapshot(std::string_view bytes);

// --- Interned-strings table --------------------------------------------------

/// Collects the distinct strings a payload references; symbols serialize as
/// table indices. Index 0 is reserved for the invalid symbol.
class SymbolTableBuilder {
 public:
  explicit SymbolTableBuilder(const support::Interner& interner)
      : interner_(interner) {}

  /// Table index of `sym`, interning its spelling on first use.
  [[nodiscard]] std::uint32_t index_of(support::Symbol sym);

  /// Spelling lookup, used to write symbol collections in spelling order so
  /// the byte stream is independent of interner ids (see file comment).
  [[nodiscard]] std::string_view spelling(support::Symbol sym) const {
    return interner_.spelling(sym);
  }

  /// Emit the table (count + length-prefixed strings, index 0 omitted).
  void write_table(ByteWriter& out) const;

 private:
  const support::Interner& interner_;
  std::vector<std::string_view> strings_;       // index-1 -> spelling
  std::vector<std::uint32_t> by_symbol_id_;     // interner id -> index+1
};

/// The table read back: maps snapshot indices to symbols of the destination
/// interner (re-interning each spelling).
class SymbolTableView {
 public:
  SymbolTableView(ByteReader& in, support::Interner& interner);

  /// Symbol for table index `idx`; index 0 is the invalid symbol. Throws
  /// SnapshotError when out of range.
  [[nodiscard]] support::Symbol symbol_at(std::uint32_t idx) const;

 private:
  std::vector<support::Symbol> symbols_;  // [0] = invalid
};

// --- Graph records -----------------------------------------------------------

/// Append the RSG record: alive nodes renumbered densely, with properties,
/// pvar bindings and out-links. Symbols go through `table`.
void append_rsg(ByteWriter& out, const Rsg& g, SymbolTableBuilder& table);

/// Read one RSG record. The result is canon-identical (equal canonical_key)
/// to the graph that was serialized when `table` re-interns into the
/// originating interner; otherwise identical up to symbol renaming (see file
/// comment).
/// Throws SnapshotError on any malformed field.
[[nodiscard]] Rsg read_rsg(ByteReader& in, const SymbolTableView& table);

/// Convenience single-graph snapshot: envelope + string table + one record.
[[nodiscard]] std::string serialize_rsg(const Rsg& g,
                                        const support::Interner& interner);
[[nodiscard]] Rsg deserialize_rsg(std::string_view bytes,
                                  support::Interner& interner);

}  // namespace psa::rsg
