#include "ipa/summary_io.hpp"

#include "rsg/serialize.hpp"
#include "support/hash.hpp"

namespace psa::ipa {

namespace {

constexpr std::string_view kSummaryMagic = "psa-func-summary v1";

/// The canonical byte form: fixed field order, spellings for symbols, raw
/// u32 for struct ids (see header). Shared by the wire form and the hash so
/// they can never disagree about summary identity.
void write_summary_body(rsg::ByteWriter& out, const FunctionSummary& s,
                        const support::Interner& interner) {
  out.str(kSummaryMagic);
  out.str(s.function.valid() ? interner.spelling(s.function) : "");
  out.u32(static_cast<std::uint32_t>(s.params.size()));
  for (const Symbol p : s.params) {
    out.str(p.valid() ? interner.spelling(p) : "");
  }
  out.u8(s.analyzed ? 1 : 0);
  out.u8(s.havoc_tainted ? 1 : 0);
  out.u8(s.mutates_heap ? 1 : 0);
  out.u8(s.may_free ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(s.alloc_types.size()));
  for (const auto& [type_raw, lines] : s.alloc_types) {
    out.u32(type_raw);
    out.u32(static_cast<std::uint32_t>(lines.size()));
    for (const std::uint32_t line : lines) out.u32(line);
  }
  out.u8(s.ret_kinds);
  out.u8(s.ret_type.has_value() ? 1 : 0);
  out.u32(s.ret_type.has_value() ? lang::raw(*s.ret_type) : 0);
  out.u8(s.ret_maybe_freed ? 1 : 0);
}

/// Resolve a serialized spelling against the current unit's interner. An
/// unresolvable non-empty spelling means the entry does not belong to this
/// unit (hash collision or corruption): payload skew, not a soft miss.
Symbol resolve(std::string_view spelling, const support::Interner& interner) {
  if (spelling.empty()) return Symbol{};
  const Symbol sym = interner.lookup(spelling);
  if (!sym.valid()) {
    throw rsg::SnapshotError("summary symbol not interned in this unit");
  }
  return sym;
}

}  // namespace

std::string serialize_summary(const FunctionSummary& summary,
                              const support::Interner& interner) {
  rsg::ByteWriter out;
  write_summary_body(out, summary, interner);
  return rsg::wrap_snapshot(out.take());
}

FunctionSummary deserialize_summary(std::string_view bytes,
                                    const support::Interner& interner) {
  const std::string_view payload = rsg::unwrap_snapshot(bytes);
  rsg::ByteReader in(payload);
  if (in.str("summary magic") != kSummaryMagic) {
    throw rsg::SnapshotError("not a function-summary entry");
  }
  FunctionSummary s;
  s.function = resolve(in.str("summary function"), interner);
  const std::uint32_t nparams = in.count("summary params", 4);
  s.params.reserve(nparams);
  for (std::uint32_t i = 0; i < nparams; ++i) {
    s.params.push_back(resolve(in.str("summary param"), interner));
  }
  s.analyzed = in.u8("summary analyzed") != 0;
  s.havoc_tainted = in.u8("summary havoc_tainted") != 0;
  s.mutates_heap = in.u8("summary mutates_heap") != 0;
  s.may_free = in.u8("summary may_free") != 0;
  const std::uint32_t ntypes = in.count("summary alloc_types", 8);
  for (std::uint32_t i = 0; i < ntypes; ++i) {
    const std::uint32_t type_raw = in.u32("summary alloc type");
    auto& lines = s.alloc_types[type_raw];
    const std::uint32_t nlines = in.count("summary alloc lines", 4);
    for (std::uint32_t j = 0; j < nlines; ++j) {
      lines.insert(in.u32("summary alloc line"));
    }
  }
  s.ret_kinds = in.u8("summary ret_kinds");
  const bool has_ret_type = in.u8("summary has ret_type") != 0;
  const std::uint32_t ret_type_raw = in.u32("summary ret_type");
  if (has_ret_type) s.ret_type = static_cast<lang::StructId>(ret_type_raw);
  s.ret_maybe_freed = in.u8("summary ret_maybe_freed") != 0;
  in.expect_end("summary entry");
  return s;
}

std::uint64_t summary_hash(const FunctionSummary& summary,
                           const support::Interner& interner) {
  rsg::ByteWriter out;
  write_summary_body(out, summary, interner);
  return support::fnv1a(out.bytes());
}

}  // namespace psa::ipa
