#include "support/io.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/metrics.hpp"

namespace psa::support::io {

namespace fs = std::filesystem;

namespace {

/// The process-tree-global op counter. A MAP_SHARED | MAP_ANONYMOUS page is
/// inherited by every child fork()ed after creation, so the supervisor and
/// its workers draw from one numbering — the property the fault campaign's
/// deterministic op stream rests on. ensure_initialized() forces creation in
/// the parent before the first fork.
std::atomic<std::uint64_t>* op_counter() {
  static std::atomic<std::uint64_t>* counter = [] {
    void* mem =
        ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>),
               PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      // Degraded (no shared page): numbering is still correct within one
      // process, which is all the unit tests need.
      static std::atomic<std::uint64_t> local{0};
      return &local;
    }
    return new (mem) std::atomic<std::uint64_t>{0};
  }();
  return counter;
}

std::uint64_t next_op() {
  return op_counter()->fetch_add(1, std::memory_order_relaxed) + 1;
}

struct FaultSpec {
  bool armed = false;
  bool by_path = false;       // @<substr> form: every matching op fails
  std::uint64_t op = 0;       // numeric form: exactly this op fails
  std::string substr;
  FaultKind kind = FaultKind::kNone;
};

bool parse_kind(std::string_view s, FaultKind& out) {
  if (s == "enospc") out = FaultKind::kEnospc;
  else if (s == "eio") out = FaultKind::kEio;
  else if (s == "shortwrite") out = FaultKind::kShortWrite;
  else if (s == "tornrename") out = FaultKind::kTornRename;
  else if (s == "crash") out = FaultKind::kCrash;
  else return false;
  return true;
}

/// Parse PSA_IO_FAULT fresh on every op: the env var is the single source of
/// truth, so tests can re-arm between scenarios without process restarts. A
/// malformed spec arms nothing (same posture as PSA_FAULT_AT).
FaultSpec current_fault_spec() {
  FaultSpec spec;
  const char* env = std::getenv("PSA_IO_FAULT");
  if (env == nullptr || *env == '\0') return spec;
  const std::string_view raw(env);
  const std::size_t colon = raw.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return spec;
  if (!parse_kind(raw.substr(colon + 1), spec.kind)) return spec;
  const std::string_view sel = raw.substr(0, colon);
  if (sel.front() == '@') {
    if (sel.size() < 2) return spec;
    spec.by_path = true;
    spec.substr = std::string(sel.substr(1));
  } else {
    std::uint64_t value = 0;
    for (const char c : sel) {
      if (c < '0' || c > '9') return spec;
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value == 0) return spec;
    spec.op = value;
  }
  spec.armed = true;
  return spec;
}

FaultKind fault_for(std::uint64_t op, const std::string& path) {
  const FaultSpec spec = current_fault_spec();
  if (!spec.armed) return FaultKind::kNone;
  if (spec.by_path) {
    return path.find(spec.substr) != std::string::npos ? spec.kind
                                                       : FaultKind::kNone;
  }
  return op == spec.op ? spec.kind : FaultKind::kNone;
}

/// Record one op in the PSA_IO_TRACE stream. Raw O_APPEND open-write-close,
/// never numbered, never faulted, never fsynced: the trace observes the op
/// stream without perturbing it.
void trace_op(std::uint64_t op, const char* what, const std::string& path,
              std::size_t bytes, const IoResult& result, FaultKind fault) {
  const char* file = std::getenv("PSA_IO_TRACE");
  if (file == nullptr || *file == '\0') return;
  std::string line = "op " + std::to_string(op) + ' ' + what + ' ' + path +
                     ' ' + std::to_string(bytes) + ' ' +
                     (result.ok ? "ok" : "error") +
                     (fault != FaultKind::kNone ? " faulted" : "") + '\n';
  const int fd = ::open(file, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return;
  (void)!::write(fd, line.data(), line.size());
  ::close(fd);
}

IoResult fail(std::string message) {
  IoResult r;
  r.ok = false;
  r.error = std::move(message);
  return r;
}

/// Die like a power cut: the completed op is durable, everything buffered
/// anywhere else in the process is lost. _Exit skips atexit/flush on purpose.
[[noreturn]] void crash_now() { std::_Exit(kCrashExitCode); }

/// fsync the directory holding `path`, making a completed rename durable.
/// Best effort: some filesystems refuse directory fsync, and the rename
/// itself already happened.
void sync_parent_dir(const std::string& path) {
  const std::string dir = fs::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(),
                        O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  PSA_COUNT(Counter::kIoFsyncs);
  (void)::fsync(fd);
  ::close(fd);
}

IoResult atomic_write_impl(const std::string& tmp,
                           const std::string& final_path,
                           std::string_view bytes, FaultKind fault) {
  if (fault == FaultKind::kEnospc) {
    return fail("injected ENOSPC: no bytes written to " + tmp);
  }
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return fail("open " + tmp + ": " + std::strerror(errno));
  }
  const std::size_t to_write =
      fault == FaultKind::kShortWrite ? bytes.size() / 2 : bytes.size();
  if (!write_all(fd, bytes.substr(0, to_write))) {
    const int err = errno;
    ::close(fd);
    // The torn tmp stays behind: that is exactly the straggler the callers'
    // recovery sweeps exist for, and deleting it here would hide the state a
    // real ENOSPC leaves.
    return fail("write " + tmp + ": " + std::strerror(err));
  }
  if (fault == FaultKind::kShortWrite) {
    ::close(fd);
    return fail("injected short write: " + std::to_string(to_write) + "/" +
                std::to_string(bytes.size()) + " bytes to " + tmp);
  }
  PSA_COUNT(Counter::kIoFsyncs);
  const bool synced = ::fsync(fd) == 0;
  const int sync_err = errno;
  ::close(fd);
  if (!synced || fault == FaultKind::kEio) {
    // The bytes may sit in the page cache but are not known durable — never
    // publish them. Unlinking the tmp keeps an undurable file from
    // masquerading as a completed write after the next crash.
    ::unlink(tmp.c_str());
    return fail(fault == FaultKind::kEio
                    ? "injected EIO: fsync failed for " + tmp
                    : "fsync " + tmp + ": " + std::strerror(sync_err));
  }
  if (fault == FaultKind::kTornRename) {
    // Power cut in the gap between fsync and rename: the durable tmp exists,
    // the final path never appears.
    return fail("injected torn rename: " + tmp + " not renamed to " +
                final_path);
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return fail("rename " + tmp + " -> " + final_path + ": " +
                std::strerror(err));
  }
  sync_parent_dir(final_path);
  return {};
}

IoResult checked_append_impl(const std::string& path, std::string_view record,
                             FaultKind fault) {
  if (fault == FaultKind::kEnospc) {
    return fail("injected ENOSPC: record not appended to " + path);
  }
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return fail("open " + path + ": " + std::strerror(errno));
  }
  const std::size_t to_write =
      fault == FaultKind::kShortWrite ? record.size() / 2 : record.size();
  if (!write_all(fd, record.substr(0, to_write))) {
    const int err = errno;
    ::close(fd);
    return fail("append " + path + ": " + std::strerror(err));
  }
  if (fault == FaultKind::kShortWrite) {
    // A torn trailing line is left in the journal on purpose — consumers
    // (checkpoint replay, sweep journal) must tolerate and repair it.
    ::close(fd);
    return fail("injected short write: torn record in " + path);
  }
  PSA_COUNT(Counter::kIoFsyncs);
  const bool synced = ::fsync(fd) == 0;
  const int sync_err = errno;
  ::close(fd);
  if (!synced || fault == FaultKind::kEio) {
    return fail(fault == FaultKind::kEio
                    ? "injected EIO: record in " + path + " not known durable"
                    : "fsync " + path + ": " + std::strerror(sync_err));
  }
  return {};
}

IoResult checked_rename_impl(const std::string& from, const std::string& to,
                             FaultKind fault) {
  if (fault == FaultKind::kEnospc || fault == FaultKind::kEio) {
    return fail("injected rename failure: " + from + " -> " + to);
  }
  if (fault == FaultKind::kTornRename) {
    return fail("injected torn rename: " + from + " not renamed to " + to);
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return fail("rename " + from + " -> " + to + ": " + std::strerror(errno));
  }
  sync_parent_dir(to);
  return {};
}

}  // namespace

void ensure_initialized() { (void)op_counter(); }

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ::ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

std::uint64_t ops_issued() {
  return op_counter()->load(std::memory_order_relaxed);
}

IoResult atomic_write(const std::string& tmp, const std::string& final_path,
                      std::string_view bytes) {
  const std::uint64_t op = next_op();
  PSA_COUNT(Counter::kIoWrites);
  const FaultKind fault = fault_for(op, final_path);
  if (fault != FaultKind::kNone) PSA_COUNT(Counter::kIoFaultsInjected);
  const IoResult result = atomic_write_impl(
      tmp, final_path, bytes, fault == FaultKind::kCrash ? FaultKind::kNone
                                                         : fault);
  trace_op(op, "atomic_write", final_path, bytes.size(), result, fault);
  if (fault == FaultKind::kCrash) crash_now();
  return result;
}

IoResult checked_append(const std::string& path, std::string_view record) {
  const std::uint64_t op = next_op();
  PSA_COUNT(Counter::kIoWrites);
  const FaultKind fault = fault_for(op, path);
  if (fault != FaultKind::kNone) PSA_COUNT(Counter::kIoFaultsInjected);
  const IoResult result = checked_append_impl(
      path, record, fault == FaultKind::kCrash ? FaultKind::kNone : fault);
  trace_op(op, "append", path, record.size(), result, fault);
  if (fault == FaultKind::kCrash) crash_now();
  return result;
}

IoResult checked_rename(const std::string& from, const std::string& to) {
  const std::uint64_t op = next_op();
  PSA_COUNT(Counter::kIoWrites);
  const FaultKind fault = fault_for(op, to);
  if (fault != FaultKind::kNone) PSA_COUNT(Counter::kIoFaultsInjected);
  const IoResult result = checked_rename_impl(
      from, to, fault == FaultKind::kCrash ? FaultKind::kNone : fault);
  trace_op(op, "rename", to, 0, result, fault);
  if (fault == FaultKind::kCrash) crash_now();
  return result;
}

}  // namespace psa::support::io
