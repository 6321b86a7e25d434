// Snapshot wire format (see serialize.hpp for the layout contract).
#include "rsg/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "support/hash.hpp"

namespace psa::rsg {

namespace {

constexpr char kMagic[8] = {'P', 'S', 'A', 'S', 'N', 'A', 'P', '1'};
/// Magic, version, flags, payload size, checksum.
constexpr std::size_t kSnapshotHeaderSize = 8 + 4 + 4 + 8 + 8;

/// Hard cap on any element count: well above every real workload, well below
/// anything that could make a corrupted count allocate gigabytes.
constexpr std::uint32_t kMaxCount = 1u << 24;

}  // namespace

// --- ByteWriter --------------------------------------------------------------

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s.data(), s.size());
}

// --- ByteReader --------------------------------------------------------------

void ByteReader::need(std::size_t n, const char* what) const {
  if (bytes_.size() - pos_ < n) {
    throw SnapshotError(std::string("truncated reading ") + what);
  }
}

std::uint8_t ByteReader::u8(const char* what) {
  need(1, what);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t ByteReader::u32(const char* what) {
  need(4, what);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes_[pos_++]))
         << (8 * i);
  }
  return v;
}

std::uint64_t ByteReader::u64(const char* what) {
  need(8, what);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes_[pos_++]))
         << (8 * i);
  }
  return v;
}

double ByteReader::f64(const char* what) {
  const std::uint64_t bits = u64(what);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view ByteReader::str(const char* what) {
  const std::uint32_t len = u32(what);
  need(len, what);
  const std::string_view out = bytes_.substr(pos_, len);
  pos_ += len;
  return out;
}

std::uint32_t ByteReader::count(const char* what, std::size_t min_bytes_each) {
  const std::uint32_t n = u32(what);
  if (n > kMaxCount) {
    throw SnapshotError(std::string("implausible count for ") + what);
  }
  if (min_bytes_each != 0 && remaining() / min_bytes_each < n) {
    throw SnapshotError(std::string("count overruns buffer for ") + what);
  }
  return n;
}

void ByteReader::expect_end(const char* what) const {
  if (!at_end()) {
    throw SnapshotError(std::string("trailing bytes after ") + what);
  }
}

// --- Envelope ----------------------------------------------------------------

std::string wrap_snapshot(std::string payload) {
  std::string out(kMagic, sizeof(kMagic));
  ByteWriter w;
  w.u32(kSnapshotVersion);
  w.u32(0);  // flags
  w.u64(payload.size());
  w.u64(support::fnv1a(payload));
  out += w.bytes();
  out += payload;
  return out;
}

std::string_view unwrap_snapshot(std::string_view bytes) {
  if (bytes.size() < kSnapshotHeaderSize) {
    throw SnapshotError("truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw SnapshotError("bad magic");
  }
  ByteReader r(
      bytes.substr(sizeof(kMagic), kSnapshotHeaderSize - sizeof(kMagic)));
  const std::uint32_t version = r.u32("version");
  if (version != kSnapshotVersion) {
    throw SnapshotError("unsupported version " + std::to_string(version) +
                        " (expected " + std::to_string(kSnapshotVersion) + ")");
  }
  const std::uint32_t flags = r.u32("flags");
  if (flags != 0) {
    // Reserved: a v1 reader must not silently accept bytes written with
    // semantics it does not know (also makes every header bit checked).
    throw SnapshotError("unsupported flags " + std::to_string(flags));
  }
  const std::uint64_t size = r.u64("payload size");
  const std::uint64_t checksum = r.u64("checksum");
  const std::string_view payload = bytes.substr(kSnapshotHeaderSize);
  if (payload.size() != size) {
    throw SnapshotError("payload size mismatch (header says " +
                        std::to_string(size) + ", got " +
                        std::to_string(payload.size()) + ")");
  }
  if (support::fnv1a(payload) != checksum) {
    throw SnapshotError("checksum mismatch");
  }
  return payload;
}

// --- Interned-strings table --------------------------------------------------

std::uint32_t SymbolTableBuilder::index_of(support::Symbol sym) {
  if (!sym.valid()) return 0;
  const std::uint32_t id = sym.id();
  if (by_symbol_id_.size() <= id) by_symbol_id_.resize(id + 1, 0);
  if (by_symbol_id_[id] == 0) {
    strings_.push_back(interner_.spelling(sym));
    by_symbol_id_[id] = static_cast<std::uint32_t>(strings_.size());
  }
  return by_symbol_id_[id];
}

void SymbolTableBuilder::write_table(ByteWriter& out) const {
  out.u32(static_cast<std::uint32_t>(strings_.size()));
  for (const std::string_view s : strings_) out.str(s);
}

SymbolTableView::SymbolTableView(ByteReader& in, support::Interner& interner) {
  const std::uint32_t n = in.count("string table", 4);
  symbols_.reserve(n + 1);
  symbols_.push_back(support::Symbol());  // index 0 = invalid
  for (std::uint32_t i = 0; i < n; ++i) {
    symbols_.push_back(interner.intern(in.str("string table entry")));
  }
}

support::Symbol SymbolTableView::symbol_at(std::uint32_t idx) const {
  if (idx >= symbols_.size()) {
    throw SnapshotError("symbol index " + std::to_string(idx) +
                        " out of range (table has " +
                        std::to_string(symbols_.size()) + ")");
  }
  return symbols_[idx];
}

// --- Graph records -----------------------------------------------------------

namespace {

// In-memory containers sort symbols by interner id, which differs between
// processes; the wire format orders every symbol collection by SPELLING so
// the bytes are canonical (re-serializing a snapshot read into any interner
// reproduces them exactly).
void append_symbol_set(ByteWriter& out, const SmallSet<Symbol>& set,
                       SymbolTableBuilder& table) {
  std::vector<Symbol> order(set.begin(), set.end());
  std::sort(order.begin(), order.end(), [&](Symbol a, Symbol b) {
    return table.spelling(a) < table.spelling(b);
  });
  out.u32(static_cast<std::uint32_t>(order.size()));
  for (const Symbol s : order) out.u32(table.index_of(s));
}

SmallSet<Symbol> read_symbol_set(ByteReader& in, const SymbolTableView& table,
                                 const char* what) {
  SmallSet<Symbol> set;
  const std::uint32_t n = in.count(what, 4);
  for (std::uint32_t i = 0; i < n; ++i) set.insert(table.symbol_at(in.u32(what)));
  return set;
}

void append_props(ByteWriter& out, const NodeProps& p,
                  SymbolTableBuilder& table) {
  out.u32(lang::raw(p.type));
  out.u8(static_cast<std::uint8_t>(p.cardinality));
  out.u8(p.shared ? 1 : 0);
  out.u8(static_cast<std::uint8_t>(p.free_state));
  out.u8(p.havoc ? 1 : 0);
  append_symbol_set(out, p.shsel, table);
  append_symbol_set(out, p.selin, table);
  append_symbol_set(out, p.selout, table);
  append_symbol_set(out, p.pos_selin, table);
  append_symbol_set(out, p.pos_selout, table);
  append_symbol_set(out, p.touch, table);
  std::vector<SelPair> cycles(p.cyclelinks.begin(), p.cyclelinks.end());
  std::sort(cycles.begin(), cycles.end(),
            [&](const SelPair& a, const SelPair& b) {
              return std::pair(table.spelling(a.out), table.spelling(a.back)) <
                     std::pair(table.spelling(b.out), table.spelling(b.back));
            });
  out.u32(static_cast<std::uint32_t>(cycles.size()));
  for (const SelPair pair : cycles) {
    out.u32(table.index_of(pair.out));
    out.u32(table.index_of(pair.back));
  }
  out.u32(static_cast<std::uint32_t>(p.alloc_sites.size()));
  for (const std::uint32_t line : p.alloc_sites) out.u32(line);
}

NodeProps read_props(ByteReader& in, const SymbolTableView& table) {
  NodeProps p;
  p.type = static_cast<StructId>(in.u32("node type"));
  const std::uint8_t card = in.u8("cardinality");
  if (card > 1) throw SnapshotError("bad cardinality value");
  p.cardinality = static_cast<Cardinality>(card);
  const std::uint8_t shared = in.u8("shared flag");
  if (shared > 1) throw SnapshotError("bad shared flag");
  p.shared = shared != 0;
  const std::uint8_t free_state = in.u8("free state");
  if (free_state > 2) throw SnapshotError("bad free state");
  p.free_state = static_cast<FreeState>(free_state);
  const std::uint8_t havoc = in.u8("havoc flag");
  if (havoc > 1) throw SnapshotError("bad havoc flag");
  p.havoc = havoc != 0;
  p.shsel = read_symbol_set(in, table, "shsel");
  p.selin = read_symbol_set(in, table, "selin");
  p.selout = read_symbol_set(in, table, "selout");
  p.pos_selin = read_symbol_set(in, table, "pos_selin");
  p.pos_selout = read_symbol_set(in, table, "pos_selout");
  p.touch = read_symbol_set(in, table, "touch");
  const std::uint32_t cycles = in.count("cyclelinks", 8);
  for (std::uint32_t i = 0; i < cycles; ++i) {
    SelPair pair;
    pair.out = table.symbol_at(in.u32("cyclelink out"));
    pair.back = table.symbol_at(in.u32("cyclelink back"));
    p.cyclelinks.insert(pair);
  }
  const std::uint32_t sites = in.count("alloc sites", 4);
  for (std::uint32_t i = 0; i < sites; ++i) {
    p.alloc_sites.insert(in.u32("alloc site"));
  }
  return p;
}

}  // namespace

void append_rsg(ByteWriter& out, const Rsg& g, SymbolTableBuilder& table) {
  out.u8(g.havoc() ? 1 : 0);
  // Alive nodes, renumbered densely in ref order.
  const NodeRefs refs = g.node_refs();
  NodeRefs dense(g.node_capacity(), std::numeric_limits<std::uint32_t>::max());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    dense[refs[i]] = static_cast<std::uint32_t>(i);
  }

  out.u32(static_cast<std::uint32_t>(refs.size()));
  for (const NodeRef n : refs) append_props(out, g.props(n), table);

  std::vector<std::pair<Symbol, NodeRef>> pvars(g.pvar_links().begin(),
                                                g.pvar_links().end());
  std::sort(pvars.begin(), pvars.end(), [&](const auto& a, const auto& b) {
    return table.spelling(a.first) < table.spelling(b.first);
  });
  out.u32(static_cast<std::uint32_t>(pvars.size()));
  for (const auto& [pvar, target] : pvars) {
    out.u32(table.index_of(pvar));
    out.u32(dense[target]);
  }

  std::uint32_t link_count = 0;
  for (const NodeRef n : refs) {
    link_count += static_cast<std::uint32_t>(g.out_links(n).size());
  }
  out.u32(link_count);
  for (const NodeRef n : refs) {
    std::vector<Link> links(g.out_links(n).begin(), g.out_links(n).end());
    std::sort(links.begin(), links.end(), [&](const Link& a, const Link& b) {
      return std::pair(table.spelling(a.sel), dense[a.target]) <
             std::pair(table.spelling(b.sel), dense[b.target]);
    });
    for (const Link& l : links) {
      out.u32(dense[n]);
      out.u32(table.index_of(l.sel));
      out.u32(dense[l.target]);
    }
  }
}

Rsg read_rsg(ByteReader& in, const SymbolTableView& table) {
  Rsg g;
  const std::uint8_t graph_havoc = in.u8("graph havoc flag");
  if (graph_havoc > 1) throw SnapshotError("bad graph havoc flag");
  g.set_havoc(graph_havoc != 0);
  // A minimal node record is 40 bytes: type + four flag bytes + eight empty
  // set counts.
  const std::uint32_t node_count = in.count("node count", 40);
  for (std::uint32_t i = 0; i < node_count; ++i) {
    (void)g.add_node(read_props(in, table));
  }
  auto check_ref = [&](std::uint32_t n, const char* what) -> NodeRef {
    if (n >= node_count) {
      throw SnapshotError(std::string("node ref out of range in ") + what);
    }
    return static_cast<NodeRef>(n);
  };

  const std::uint32_t pvars = in.count("pvar bindings", 8);
  for (std::uint32_t i = 0; i < pvars; ++i) {
    const Symbol pvar = table.symbol_at(in.u32("pvar symbol"));
    if (!pvar.valid()) throw SnapshotError("invalid pvar symbol in binding");
    g.bind_pvar(pvar, check_ref(in.u32("pvar target"), "pvar binding"));
  }

  const std::uint32_t links = in.count("links", 12);
  for (std::uint32_t i = 0; i < links; ++i) {
    const NodeRef from = check_ref(in.u32("link source"), "link");
    const Symbol sel = table.symbol_at(in.u32("link selector"));
    if (!sel.valid()) throw SnapshotError("invalid selector in link");
    const NodeRef to = check_ref(in.u32("link target"), "link");
    (void)g.add_link(from, sel, to);
  }
  return g;
}

std::string serialize_rsg(const Rsg& g, const support::Interner& interner) {
  SymbolTableBuilder table(interner);
  ByteWriter body;
  append_rsg(body, g, table);
  ByteWriter payload;
  table.write_table(payload);
  std::string out = payload.take();
  out += body.bytes();
  return wrap_snapshot(std::move(out));
}

Rsg deserialize_rsg(std::string_view bytes, support::Interner& interner) {
  const std::string_view payload = unwrap_snapshot(bytes);
  ByteReader in(payload);
  const SymbolTableView table(in, interner);
  Rsg g = read_rsg(in, table);
  in.expect_end("rsg record");
  g.refresh_footprint();
  return g;
}

}  // namespace psa::rsg
