#include "driver/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "support/hash.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"

namespace psa::driver {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kJournalHeader = "psa-journal v1";

std::string escape_detail(std::string_view detail) {
  std::string out;
  out.reserve(detail.size());
  for (const char c : detail) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_detail(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out += s[i] == 'n' ? '\n' : s[i];
    } else {
      out += s[i];
    }
  }
  return out;
}

/// The name part of a unit key or snapshot stem (`<name>-<16 hex>`), or
/// empty when `stem` has no hash suffix.
std::string_view key_name(std::string_view stem) {
  constexpr std::size_t kSuffix = 17;  // '-' plus 16 hex digits
  if (stem.size() <= kSuffix || stem[stem.size() - kSuffix] != '-') return {};
  return stem.substr(0, stem.size() - kSuffix);
}

}  // namespace

std::string unit_key(const AnalysisUnit& unit) {
  std::string sanitized;
  for (const char c : unit.name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '.';
    sanitized += safe ? c : '_';
    if (sanitized.size() >= 64) break;
  }
  if (sanitized.empty()) sanitized = "unit";
  // The source bytes are part of the identity: an edited unit is a new
  // unit, so --resume re-runs it instead of serving the old result. All 64
  // bits are kept — only this hash tells an edit from the original.
  std::uint64_t h = support::fnv1a(unit.name) ^ 0x9e3779b9ull;
  h = support::fnv1a(unit.function, h) ^ 0x9e3779b9ull;
  h = support::fnv1a(unit.source, h);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return sanitized + "-" + hex;
}

Checkpoint::Checkpoint(std::string dir, bool resume,
                       const std::vector<std::string>& unit_keys)
    : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  journal_path_ = (fs::path(dir_) / "journal.psaj").string();

  if (resume) {
    // A batch killed mid-write leaves its .snap.tmp behind; the rename
    // never happened, so the bytes were never a result. Sweep them before
    // replay — a stray tmp must neither shadow a re-run's write nor survive
    // as junk in a directory the resume contract calls recovered.
    // A snapshot of one of this batch's units under another key holds a
    // result for source bytes the unit no longer has: no resume can serve
    // it, so it goes too. Other units' snapshots stay.
    const std::set<std::string> keys(unit_keys.begin(), unit_keys.end());
    std::set<std::string_view> names;
    for (const std::string& key : keys) names.insert(key_name(key));
    names.erase(std::string_view{});
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.ends_with(".snap.tmp")) {
        fs::remove(entry.path(), ec);
        recovery_notes_.push_back(
            "checkpoint: removed stale in-flight snapshot " + name +
            " (writer died mid-write)");
        continue;
      }
      if (!name.ends_with(".snap")) continue;
      const std::string stem = entry.path().stem().string();
      if (keys.contains(stem) || !names.contains(key_name(stem))) continue;
      fs::remove(entry.path(), ec);
      recovery_notes_.push_back("checkpoint: removed superseded snapshot " +
                                name + " (its unit's source changed)");
    }

    // Replay: the last outcome line per key wins; torn/unknown lines —
    // including the `attempt` records older journals carry — are skipped.
    std::ifstream in(journal_path_);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string tag;
      fields >> tag;
      if (tag != "outcome") continue;
      std::string key, kind_str;
      int exit_code = 0, signal = 0, attempts = 0, quarantined = 0;
      if (!(fields >> key >> kind_str >> exit_code >> signal >> attempts >>
            quarantined)) {
        continue;
      }
      UnitOutcome outcome;
      if (!parse_outcome_kind(kind_str, outcome.kind)) continue;
      outcome.exit_code = exit_code;
      outcome.signal = signal;
      outcome.attempts = attempts;
      outcome.quarantined = quarantined != 0;
      std::string detail;
      std::getline(fields, detail);
      if (!detail.empty() && detail.front() == ' ') detail.erase(0, 1);
      outcome.detail = unescape_detail(detail);
      replayed_[key] = std::move(outcome);
    }
  } else {
    // Fresh run into an existing directory: clear the previous journal and
    // snapshots so stale state can never masquerade as this run's.
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name == "journal.psaj" || name.ends_with(".snap") ||
          name.ends_with(".snap.tmp")) {
        fs::remove(entry.path(), ec);
      }
    }
  }

  // A torn final line (writer died mid-write, even inside the header) is
  // skipped by replay — but it must also not glue itself onto the next
  // record we append. Terminate it first.
  {
    std::error_code ec;
    const auto size = fs::file_size(journal_path_, ec);
    if (!ec && size > 0) {
      std::ifstream tail(journal_path_, std::ios::binary);
      tail.seekg(-1, std::ios::end);
      char last = '\n';
      if (tail.get(last) && last != '\n') {
        (void)append_record("");
      }
    }
  }

  std::error_code ec;
  const auto size = fs::file_size(journal_path_, ec);
  if (ec || size == 0) {
    if (!append_record(std::string(kJournalHeader))) {
      // The journal is unwritable (full disk, failing device, bad perms).
      // Degrade instead of killing the batch: the run completes normally,
      // every later record_outcome reports failure for the caller to count,
      // and a --resume simply re-runs what the journal never learned about.
      recovery_notes_.push_back(
          "checkpoint: journal not writable at " + journal_path_ +
          "; this run will not be resumable from it");
    }
  }
}

bool Checkpoint::append_record(const std::string& line) {
  const auto result = support::io::checked_append(journal_path_, line + '\n');
  if (!result) PSA_COUNT(support::Counter::kIoDegradations);
  return result.ok;
}

bool Checkpoint::record_outcome(const std::string& key,
                                const UnitOutcome& outcome) {
  std::ostringstream record;
  record << "outcome " << key << ' ' << to_string(outcome.kind) << ' '
         << outcome.exit_code << ' ' << outcome.signal << ' '
         << outcome.attempts << ' ' << (outcome.quarantined ? 1 : 0) << ' '
         << escape_detail(outcome.detail);
  return append_record(record.str());
}

const UnitOutcome* Checkpoint::replayed_outcome(const std::string& key) const {
  const auto it = replayed_.find(key);
  return it == replayed_.end() ? nullptr : &it->second;
}

std::string Checkpoint::snapshot_path(const std::string& key) const {
  return (fs::path(dir_) / (key + ".snap")).string();
}

std::string Checkpoint::snapshot_tmp_path(const std::string& key) const {
  return (fs::path(dir_) / (key + ".snap.tmp")).string();
}

bool Checkpoint::store_payload(const std::string& key,
                               std::string_view bytes) const {
  const auto result =
      support::io::atomic_write(snapshot_tmp_path(key), snapshot_path(key),
                                bytes);
  if (!result) PSA_COUNT(support::Counter::kIoDegradations);
  return result.ok;
}

std::optional<UnitPayload> Checkpoint::load_payload(const std::string& key,
                                                    const AnalysisUnit& unit,
                                                    std::string* error) const {
  const std::string path = snapshot_path(key);
  const std::optional<std::string> bytes = support::io::read_file(path);
  if (!bytes) {
    if (error != nullptr) *error = "missing snapshot " + path;
    return std::nullopt;
  }
  try {
    UnitPayload payload = deserialize_unit_payload(*bytes);
    if (payload.unit_name != unit.name || payload.function != unit.function) {
      if (error != nullptr) {
        *error = "snapshot of " + payload.unit_name + " (" +
                 payload.function + ") in " + path;
      }
      return std::nullopt;
    }
    return payload;
  } catch (const rsg::SnapshotError& e) {
    if (error != nullptr) *error = std::string(e.what()) + " in " + path;
    return std::nullopt;
  }
}

}  // namespace psa::driver
