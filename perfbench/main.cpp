// The psa benchmark binary. perfbench/run.py builds it and drives it; see
// README.md for the workloads, the metrics and how to run it by hand.
//
//   psa_perfbench run    --workload W --seed N --seconds S --trace 0|1
//                        --root DIR [--trace-out FILE]
//   psa_perfbench setup  --workload corpus_warm|corpus_edit --seed N
//                        --root DIR
//   psa_perfbench record --root DIR
//
// `run` and `setup` print a readable table, then one JSON line with every
// metric the run measured.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace psa::perfbench {

double self_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool reset_self_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double children_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Sheet& sheet, const Verdict& verdict) {
  std::printf("%-36s %16s  %-6s %s\n", "metric", "value", "unit", "passes");
  for (const auto& [name, m] : sheet.metrics()) {
    std::printf("%-36s %16.6g  %-6s %zu\n", name.c_str(), m.value(),
                m.unit.c_str(), m.samples.size());
  }
  for (const std::string& what : verdict.mismatches) {
    std::printf("MISMATCH %s\n", what.c_str());
  }
  std::string json = "{\"correct\": ";
  json += verdict.failed == 0 && verdict.mismatches.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted);
  json += ", \"failed\": " + std::to_string(verdict.failed);
  json += ", \"mismatches\": [";
  for (std::size_t i = 0; i < verdict.mismatches.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(verdict.mismatches[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : sheet.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += json_string(name) +
            ": {\"value\": " + json_number(m.value()) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--root") {
      config.root = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (config.root.empty()) throw std::invalid_argument("--root is required");
  return config;
}

}  // namespace

void sample_counters(Sheet& sheet, const support::MetricsSnapshot& ops) {
  using support::Counter;
  const auto count = [&](const char* name, Counter c) {
    sheet.sample(name, static_cast<double>(ops[c]), "count");
  };
  // A ratio over an empty base reads 0; the base is sampled beside it.
  const auto ratio = [&](const char* name, Counter part, Counter base_a,
                         Counter base_b) {
    const double base = static_cast<double>(ops[base_a]) +
                        (base_b == Counter::kCount ? 0.0 : ops[base_b]);
    sheet.sample(name, base > 0 ? static_cast<double>(ops[part]) / base : 0.0,
                 "ratio");
  };
  count("analysis.visits", Counter::kWorklistVisits);
  count("analysis.revisits", Counter::kWorklistRevisits);
  count("analysis.transfers", Counter::kTransferCacheMisses);
  count("analysis.consider_hits", Counter::kTransferCacheHits);
  ratio("analysis.consider_hit_ratio", Counter::kTransferCacheHits,
        Counter::kTransferCacheHits, Counter::kTransferCacheMisses);
  count("analysis.widenings", Counter::kWidenings);
  count("analysis.governor_escalations", Counter::kGovernorEscalations);

  count("rsg.join_attempts", Counter::kJoinAttempts);
  count("rsg.join_accepts", Counter::kJoinAccepts);
  count("rsg.join_rejected_alias", Counter::kJoinRejectedAlias);
  count("rsg.join_rejected_compat", Counter::kJoinRejectedCompat);
  ratio("rsg.join_accept_ratio", Counter::kJoinAccepts, Counter::kJoinAttempts,
        Counter::kCount);
  count("rsg.force_joins", Counter::kForceJoins);
  count("rsg.compress_calls", Counter::kCompressCalls);
  count("rsg.compress_merges", Counter::kCompressMerges);
  count("rsg.coarsen_calls", Counter::kCoarsenCalls);
  count("rsg.prune_calls", Counter::kPruneCalls);
  count("rsg.prune_iterations", Counter::kPruneIterations);
  count("rsg.divide_calls", Counter::kDivideCalls);
  count("rsg.materialize_calls", Counter::kMaterializeCalls);

  count("ipa.summaries_computed", Counter::kSummaryComputed);
  count("ipa.summaries_applied", Counter::kSummaryApplied);
  count("ipa.summary_reuse", Counter::kSummaryReuse);
  count("ipa.call_havoc_fallback", Counter::kCallHavocFallback);

  count("cache.hits", Counter::kCacheHits);
  count("cache.misses", Counter::kCacheMisses);
  count("cache.func_hits", Counter::kFuncCacheHits);
  count("cache.func_misses", Counter::kFuncCacheMisses);
  count("cache.func_stores", Counter::kFuncCacheStores);
  ratio("cache.hit_ratio", Counter::kCacheHits, Counter::kCacheHits,
        Counter::kCacheMisses);
}

void write_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : tracer.spans()) {
    out << "{\"name\": " << json_string(s.name)
        << ", \"start_us\": " << s.start_ns / 1000
        << ", \"end_us\": " << s.end_ns / 1000 << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  out << "{\"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : tracer.self_ms()) {
    out << (first ? "" : ", ") << json_string(name) << ": " << json_number(ms);
    first = false;
  }
  out << "}}\n";
}

}  // namespace psa::perfbench

int main(int argc, char** argv) {
  using namespace psa::perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: psa_perfbench run|setup|record [flags]\n");
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const RunConfig config = parse(argc, argv);
    if (mode == "record") return record_corpus_report(config);
    Sheet sheet;
    Verdict verdict;
    if (mode == "setup") {
      setup_corpus(config, sheet, verdict);
    } else if (mode == "run" && config.workload == "table1") {
      run_table1(config, sheet, verdict);
    } else if (mode == "run" && (config.workload == "corpus_warm" ||
                                 config.workload == "corpus_edit")) {
      run_corpus(config, sheet, verdict);
    } else {
      std::fprintf(stderr, "psa_perfbench: unknown mode/workload %s/%s\n",
                   mode.c_str(), config.workload.c_str());
      return 2;
    }
    print_result(sheet, verdict);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psa_perfbench: %s\n", e.what());
    return 1;
  }
}
