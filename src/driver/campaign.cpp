#include "driver/campaign.hpp"

#include <fcntl.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "driver/supervisor.hpp"
#include "support/io.hpp"

namespace psa::driver {

namespace fs = std::filesystem;

namespace {

struct ChildResult {
  bool spawned = false;   // fork/exec machinery itself worked
  bool exited = false;    // normal exit (vs. signal death)
  int exit_code = -1;
  int signal = 0;
};

struct EnvVar {
  std::string name;
  std::string value;
};

struct TracedOp {
  std::uint64_t number = 0;
  std::string what;  // "atomic-write" / "append" / "rename"
  std::string path;
};

/// Re-exec `exe` with `args`, stdout/stderr captured to files. The io fault
/// env vars are always cleared first so the campaign's own environment can
/// never leak a fault plan into a child; `env` then sets this scenario's.
ChildResult run_child(const std::string& exe,
                      const std::vector<std::string>& args,
                      const std::vector<EnvVar>& env,
                      const std::string& stdout_path,
                      const std::string& stderr_path) {
  ChildResult result;
  const pid_t pid = ::fork();
  if (pid < 0) return result;
  if (pid == 0) {
    ::unsetenv("PSA_IO_FAULT");
    ::unsetenv("PSA_IO_TRACE");
    for (const EnvVar& var : env) {
      ::setenv(var.name.c_str(), var.value.c_str(), 1);
    }
    const int out_fd =
        ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err_fd =
        ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out_fd < 0 || err_fd < 0) ::_exit(127);
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::close(out_fd);
    ::close(err_fd);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return result;
  result.spawned = true;
  if (WIFEXITED(status)) {
    result.exited = true;
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.signal = WTERMSIG(status);
  }
  return result;
}

/// Parse a PSA_IO_TRACE file: "op <n> <what> <path> <bytes> <status>...".
std::vector<TracedOp> parse_trace(const std::string& path) {
  std::vector<TracedOp> ops;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    TracedOp op;
    std::uint64_t bytes = 0;
    if (!(fields >> tag >> op.number >> op.what >> op.path >> bytes)) continue;
    if (tag != "op") continue;
    ops.push_back(std::move(op));
  }
  std::sort(ops.begin(), ops.end(),
            [](const TracedOp& a, const TracedOp& b) {
              return a.number < b.number;
            });
  return ops;
}

/// Strip the documented resume markers so a resumed report can be compared
/// byte-for-byte against the uninterrupted golden one: the summary line's
/// ", <n> from checkpoint" and each unit line's ", from checkpoint".
std::string strip_resume_markers(const std::string& report) {
  std::string out;
  std::istringstream in(report);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    const std::string::size_type at = line.find(" from checkpoint");
    if (at != std::string::npos) {
      // Walk back over ", " / ", <digits>" to erase the whole marker: the
      // summary line reads ", <n> from checkpoint", a unit line reads
      // ", from checkpoint".
      std::string::size_type start = at;
      while (start > 0 && std::isdigit(static_cast<unsigned char>(
                              line[start - 1])) != 0) {
        --start;
      }
      if (start >= 2 && line.compare(start - 2, 2, ", ") == 0) {
        start -= 2;
      } else if (start > 0 && line[start - 1] == ',') {
        start -= 1;
      }
      line.erase(start, at + std::string(" from checkpoint").size() - start);
    }
    if (!first) out += '\n';
    out += line;
    first = false;
  }
  if (!report.empty() && report.back() == '\n') out += '\n';
  return out;
}

/// A report that differs from golden must say so: any of the explicit
/// degradation markers the pipeline emits when it absorbed a failure — the
/// trailing "io degradations" note, a retried unit's attempt count, a
/// quarantine, or a nonzero failed count in the summary line. (Golden runs
/// print " 0 failed", so its absence means a unit failure was reported.)
bool carries_degradation_marker(const std::string& report) {
  return report.find("io degradations:") != std::string::npos ||
         report.find(", attempts ") != std::string::npos ||
         report.find("quarantined") != std::string::npos ||
         report.find(" 0 failed") == std::string::npos;
}

void clear_dir(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

}  // namespace

int run_fault_campaign(const CampaignOptions& options) {
  // Validate the kind vocabulary up front — a typo'd kind would silently
  // sweep nothing.
  for (const std::string& kind : options.kinds) {
    if (kind != "enospc" && kind != "eio" && kind != "shortwrite" &&
        kind != "tornrename" && kind != "crash") {
      std::fprintf(stderr, "campaign: unknown fault kind '%s'\n",
                   kind.c_str());
      return 2;
    }
  }

  const fs::path root(options.workdir);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    std::fprintf(stderr, "campaign: cannot create workdir %s: %s\n",
                 options.workdir.c_str(), ec.message().c_str());
    return 2;
  }

  // Materialize the corpus units as source files so every child sees the
  // identical inputs (unit names in the report are these paths).
  const fs::path unit_dir = root / "units";
  clear_dir(unit_dir);
  std::vector<std::string> unit_files;
  {
    std::vector<corpus::UnitSource> sources = corpus::unit_sources();
    const std::size_t count =
        options.full_corpus ? sources.size()
                            : std::min<std::size_t>(2, sources.size());
    for (std::size_t i = 0; i < count; ++i) {
      const fs::path file =
          unit_dir / (std::string(sources[i].name) + ".c");
      std::ofstream out(file);
      out << sources[i].source;
      if (!out) {
        std::fprintf(stderr, "campaign: cannot write %s\n",
                     file.string().c_str());
        return 2;
      }
      unit_files.push_back(file.string());
    }
  }

  // Shared child argv: single-job isolated batch so the durable-op stream is
  // deterministic and the fault selector lands on the same op every run.
  const fs::path scn = root / "scenario";
  const std::string ckpt_dir = (scn / "ckpt").string();
  const std::string cache_dir = (scn / "cache").string();
  std::vector<std::string> base_args = unit_files;
  base_args.push_back("--function=main");
  base_args.push_back("--check");
  base_args.push_back("--isolate");
  base_args.push_back("--jobs=1");
  base_args.push_back("--checkpoint=" + ckpt_dir);
  base_args.push_back("--cache-dir=" + cache_dir);

  // Golden run: trace the durable-op stream of a fault-free execution.
  const fs::path golden_dir = root / "golden";
  clear_dir(golden_dir);
  clear_dir(scn);
  const std::string trace_path = (golden_dir / "trace.log").string();
  const std::string golden_out = (golden_dir / "report.out").string();
  const ChildResult golden =
      run_child(options.exe, base_args, {{"PSA_IO_TRACE", trace_path}},
                golden_out, (golden_dir / "report.err").string());
  if (!golden.spawned || !golden.exited ||
      (golden.exit_code != kExitOk && golden.exit_code != kExitFindings)) {
    std::fprintf(stderr,
                 "campaign: golden run broken (exited=%d code=%d signal=%d) "
                 "— nothing to sweep\n",
                 golden.exited ? 1 : 0, golden.exit_code, golden.signal);
    return 2;
  }
  const std::string golden_report =
      support::io::read_file(golden_out).value_or("");

  std::vector<TracedOp> ops = parse_trace(trace_path);
  if (ops.empty()) {
    std::fprintf(stderr, "campaign: golden trace at %s recorded no ops\n",
                 trace_path.c_str());
    return 2;
  }
  if (options.max_ops > 0 && ops.size() > options.max_ops) {
    std::fprintf(stderr,
                 "campaign: capping sweep to the first %llu of %zu traced "
                 "ops (--campaign-max-ops)\n",
                 static_cast<unsigned long long>(options.max_ops), ops.size());
    ops.resize(static_cast<std::size_t>(options.max_ops));
  }
  std::fprintf(stderr,
               "campaign: golden exit %d, %zu traced ops x %zu kinds = %zu "
               "scenarios\n",
               golden.exit_code, ops.size(), options.kinds.size(),
               ops.size() * options.kinds.size());

  const fs::path out_dir = root / "out";
  clear_dir(out_dir);
  std::vector<std::string> violations;
  auto violation = [&](const TracedOp& op, const std::string& kind,
                       const std::string& what) {
    std::ostringstream msg;
    msg << "op " << op.number << " (" << op.what << ' ' << op.path
        << ") kind=" << kind << ": " << what;
    violations.push_back(msg.str());
    std::fprintf(stderr, "campaign: VIOLATION %s\n",
                 violations.back().c_str());
  };

  std::size_t scenario_index = 0;
  for (const TracedOp& op : ops) {
    for (const std::string& kind : options.kinds) {
      ++scenario_index;
      const std::string tag =
          std::to_string(op.number) + "-" + kind;
      const std::string fault_spec = std::to_string(op.number) + ":" + kind;
      clear_dir(scn);
      const std::string fault_out = (out_dir / (tag + ".out")).string();
      const ChildResult faulted =
          run_child(options.exe, base_args, {{"PSA_IO_FAULT", fault_spec}},
                    fault_out, (out_dir / (tag + ".err")).string());
      if (!faulted.spawned) {
        violation(op, kind, "failed to spawn child");
        continue;
      }

      const bool process_crashed =
          faulted.exited &&
          faulted.exit_code == support::io::kCrashExitCode;
      if (kind == "crash" && process_crashed) {
        // Invariant 4: the batch died mid-run at exactly this op; --resume
        // against the surviving checkpoint + cache must reproduce the
        // golden report byte-for-byte (modulo resume markers).
        std::vector<std::string> resume_args = base_args;
        resume_args.push_back("--resume");
        const std::string resume_out =
            (out_dir / (tag + ".resume.out")).string();
        const ChildResult resumed = run_child(
            options.exe, resume_args, {}, resume_out,
            (out_dir / (tag + ".resume.err")).string());
        if (!resumed.spawned || !resumed.exited ||
            resumed.exit_code != golden.exit_code) {
          std::ostringstream what;
          what << "--resume after crash exited " << resumed.exit_code
               << " (signal " << resumed.signal << "), want golden "
               << golden.exit_code;
          violation(op, kind, what.str());
          continue;
        }
        const std::string resumed_report = strip_resume_markers(
            support::io::read_file(resume_out).value_or(""));
        if (resumed_report != golden_report) {
          violation(op, kind,
                    "--resume report differs from golden (see " + resume_out +
                        ")");
        }
        continue;
      }

      // Non-crash kinds (and crash faults contained inside a worker): the
      // batch must survive the fault with a contract exit code.
      if (!faulted.exited) {
        std::ostringstream what;
        what << "child died on signal " << faulted.signal;
        violation(op, kind, what.str());
        continue;
      }
      if (faulted.exit_code != golden.exit_code &&
          faulted.exit_code != kExitSomeUnitsFailed) {
        std::ostringstream what;
        what << "exit " << faulted.exit_code << " outside contract {golden "
             << golden.exit_code << ", " << kExitSomeUnitsFailed << "}";
        violation(op, kind, what.str());
        continue;
      }

      // Invariant 2: byte-identical report, or an explicit degradation
      // marker — never a silently different answer.
      const std::string faulted_report =
          support::io::read_file(fault_out).value_or("");
      if (faulted_report != golden_report &&
          !carries_degradation_marker(faulted_report)) {
        violation(op, kind,
                  "report differs from golden without a degradation marker "
                  "(see " +
                      fault_out + ")");
        continue;
      }

      // Invariant 3: warm verification. Re-run against the fault-scarred
      // cache directory (fresh checkpoint, no fault): every surviving cache
      // entry is either valid or quarantined on read, so the report must be
      // byte-identical to golden. A torn entry served from cache would
      // surface right here.
      std::error_code scrub_ec;
      fs::remove_all(ckpt_dir, scrub_ec);
      const std::string warm_out = (out_dir / (tag + ".warm.out")).string();
      const ChildResult warm =
          run_child(options.exe, base_args, {}, warm_out,
                    (out_dir / (tag + ".warm.err")).string());
      if (!warm.spawned || !warm.exited ||
          warm.exit_code != golden.exit_code) {
        std::ostringstream what;
        what << "warm verify exited " << warm.exit_code << " (signal "
             << warm.signal << "), want golden " << golden.exit_code;
        violation(op, kind, what.str());
        continue;
      }
      const std::string warm_report =
          support::io::read_file(warm_out).value_or("");
      if (warm_report != golden_report) {
        violation(op, kind,
                  "warm verify report differs from golden (see " + warm_out +
                      ")");
      }
    }
    std::fprintf(stderr, "campaign: op %llu/%llu swept (%zu scenarios so far, %zu violations)\n",
                 static_cast<unsigned long long>(op.number),
                 static_cast<unsigned long long>(ops.back().number),
                 scenario_index, violations.size());
  }

  std::ostringstream verdict;
  verdict << "fault campaign: " << ops.size() << " ops x "
          << options.kinds.size() << " kinds = " << scenario_index
          << " scenarios, " << violations.size() << " violations\n";
  for (const std::string& v : violations) verdict << "  " << v << '\n';
  std::fputs(verdict.str().c_str(), stdout);
  return violations.empty() ? 0 : 1;
}

}  // namespace psa::driver
