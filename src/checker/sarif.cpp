// SARIF 2.1.0 writer (see sarif.hpp). Hand-rolled JSON emission — the
// subset is small and fixed, and the repo deliberately has no JSON
// dependency.
#include "checker/sarif.hpp"

#include <array>
#include <sstream>

#include "analysis/profile.hpp"

namespace psa::checker {

namespace {

/// Tiny streaming JSON writer: tracks nesting and comma placement so the
/// SARIF structure below stays readable.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty) : pretty_(pretty) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(std::string_view k) {
    comma();
    newline();
    os_ << '"' << analysis::json_escape(k) << "\":";
    if (pretty_) os_ << ' ';
    pending_value_ = true;
  }

  void value(std::string_view v) {
    comma();
    newline();
    os_ << '"' << analysis::json_escape(v) << '"';
    first_ = false;
  }
  void value(std::uint64_t v) {
    comma();
    newline();
    os_ << v;
    first_ = false;
  }
  /// Deliberately not an overload of value(): a string literal would
  /// pointer-convert to bool and win overload resolution.
  void value_bool(bool v) {
    comma();
    newline();
    os_ << (v ? "true" : "false");
    first_ = false;
  }

  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  void open(char c) {
    comma();
    newline();
    os_ << c;
    ++depth_;
    first_ = true;
  }
  void close(char c) {
    --depth_;
    if (!first_ && pretty_) {
      os_ << '\n';
      indent();
    }
    os_ << c;
    first_ = false;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;
      was_key_ = true;
      return;
    }
    if (!first_) os_ << ',';
    was_key_ = false;
  }
  void newline() {
    if (was_key_) {
      was_key_ = false;
      return;
    }
    if (pretty_ && depth_ > 0) {
      os_ << '\n';
      indent();
    }
  }
  void indent() {
    for (int i = 0; i < depth_; ++i) os_ << "  ";
  }

  std::ostringstream os_;
  bool pretty_;
  int depth_ = 0;
  bool first_ = true;
  bool pending_value_ = false;
  bool was_key_ = false;
};

constexpr std::array<CheckKind, 5> kAllKinds = {
    CheckKind::kNullDeref, CheckKind::kUseAfterFree, CheckKind::kDoubleFree,
    CheckKind::kLeak, CheckKind::kLeakAtExit};

std::string_view rule_description(CheckKind kind) {
  switch (kind) {
    case CheckKind::kNullDeref:
      return "Dereference of a pointer that may be NULL.";
    case CheckKind::kUseAfterFree:
      return "Dereference of a pointer to memory that may have been freed.";
    case CheckKind::kDoubleFree:
      return "free() of memory that may already have been freed.";
    case CheckKind::kLeak:
      return "The last reference to a heap allocation is lost.";
    case CheckKind::kLeakAtExit:
      return "A heap allocation may still be live at function exit.";
  }
  return "";
}

std::string_view sarif_level(CheckSeverity severity) {
  switch (severity) {
    case CheckSeverity::kNote: return "note";
    case CheckSeverity::kWarning: return "warning";
    case CheckSeverity::kError: return "error";
  }
  return "none";
}

std::size_t rule_index(CheckKind kind) {
  for (std::size_t i = 0; i < kAllKinds.size(); ++i)
    if (kAllKinds[i] == kind) return i;
  return 0;
}

void write_location(JsonWriter& w, std::string_view artifact_uri,
                    support::SourceLoc loc) {
  w.begin_object();
  w.key("physicalLocation");
  w.begin_object();
  w.key("artifactLocation");
  w.begin_object();
  w.key("uri");
  w.value(artifact_uri);
  w.end_object();
  if (loc.valid()) {
    w.key("region");
    w.begin_object();
    w.key("startLine");
    w.value(static_cast<std::uint64_t>(loc.line));
    w.key("startColumn");
    w.value(static_cast<std::uint64_t>(loc.column == 0 ? 1 : loc.column));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void write_result(JsonWriter& w, std::string_view artifact_uri,
                  const Finding& f) {
  w.begin_object();
  w.key("ruleId");
  w.value(rule_id(f.kind));
  w.key("ruleIndex");
  w.value(static_cast<std::uint64_t>(rule_index(f.kind)));
  w.key("level");
  w.value(sarif_level(f.severity));
  w.key("message");
  w.begin_object();
  w.key("text");
  std::string text(f.message);
  if (!f.witness_node.empty()) text += " [witness: " + f.witness_node + "]";
  w.value(text);
  w.end_object();
  w.key("locations");
  w.begin_array();
  write_location(w, artifact_uri, f.loc);
  w.end_array();
  if (f.degraded) {
    // Salvage-mode confidence taint (partialFingerprints-adjacent): every
    // witness of this result went through a havoc over-approximation of
    // unsupported code, so the defect is possible rather than established.
    w.key("properties");
    w.begin_object();
    w.key("degradedFrontend");
    w.value_bool(true);
    w.key("confidence");
    w.value("possible");
    w.end_object();
  }
  if (!f.trace.empty()) {
    w.key("codeFlows");
    w.begin_array();
    w.begin_object();
    w.key("threadFlows");
    w.begin_array();
    w.begin_object();
    w.key("locations");
    w.begin_array();
    for (const TraceStep& step : f.trace) {
      w.begin_object();
      w.key("location");
      w.begin_object();
      w.key("physicalLocation");
      w.begin_object();
      w.key("artifactLocation");
      w.begin_object();
      w.key("uri");
      w.value(artifact_uri);
      w.end_object();
      if (step.loc.valid()) {
        w.key("region");
        w.begin_object();
        w.key("startLine");
        w.value(static_cast<std::uint64_t>(step.loc.line));
        w.end_object();
      }
      w.end_object();
      w.key("message");
      w.begin_object();
      w.key("text");
      w.value(step.text);
      w.end_object();
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_array();
    w.end_object();
    w.end_array();
  }
  w.end_object();
}

}  // namespace

std::string to_sarif_batch(const std::vector<ArtifactFindings>& batch,
                           const SarifOptions& options) {
  JsonWriter w(options.pretty);
  w.begin_object();
  w.key("$schema");
  w.value("https://json.schemastore.org/sarif-2.1.0.json");
  w.key("version");
  w.value("2.1.0");
  w.key("runs");
  w.begin_array();
  w.begin_object();

  w.key("tool");
  w.begin_object();
  w.key("driver");
  w.begin_object();
  w.key("name");
  w.value(options.tool_name);
  w.key("version");
  w.value(options.tool_version);
  w.key("informationUri");
  w.value("https://doi.org/10.1109/ICPP.2001.952041");
  w.key("rules");
  w.begin_array();
  for (const CheckKind kind : kAllKinds) {
    w.begin_object();
    w.key("id");
    w.value(rule_id(kind));
    w.key("name");
    w.value(to_string(kind));
    w.key("shortDescription");
    w.begin_object();
    w.key("text");
    w.value(rule_description(kind));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();

  w.key("results");
  w.begin_array();
  for (const ArtifactFindings& group : batch) {
    for (const Finding& f : group.findings) {
      write_result(w, group.artifact_uri, f);
    }
  }
  w.end_array();

  w.end_object();
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

std::string to_sarif(const std::vector<Finding>& findings,
                     const SarifOptions& options) {
  std::vector<ArtifactFindings> batch(1);
  batch[0].artifact_uri = options.artifact_uri;
  batch[0].findings = findings;
  return to_sarif_batch(batch, options);
}

}  // namespace psa::checker
