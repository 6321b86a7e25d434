// The corpus workloads: one driver::run_batch over the 18 clean corpus
// units plus the 6 buggy programs, with the checkers on, forked isolation
// and one worker at a time, against a cache that cold batches filled during
// set-up (a separate process, so set-up stays out of peak RSS).
//
//   corpus_warm  the unchanged re-run: every unit is a unit-tier hit.
//   corpus_edit  each step prepends one comment line to k = 4 of the 17
//                light units (drawn by seed; edits accumulate, so no version
//                repeats), then re-runs the batch: 4 misses, 20 hits.
//
// The seed orders the units. The batch runs in forked workers the benchmark
// cannot see into, so the traced run replays each unit's path through the
// same public calls in-process, after the pass and outside its timing.
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "bench.hpp"
#include "cache/cache.hpp"
#include "cache/key.hpp"
#include "checker/checker.hpp"
#include "corpus/corpus.hpp"
#include "driver/incremental.hpp"
#include "driver/payload.hpp"
#include "driver/supervisor.hpp"
#include "support/io.hpp"

namespace psa::perfbench {
namespace {

namespace fs = std::filesystem;
using support::Counter;

constexpr std::size_t kEditsPerStep = 4;
/// Cold batches in a set-up; setup_s is their median. One takes 10-15 s.
constexpr int kColdFills = 2;
/// Clean units kept out of the edit loop besides the Table-1 codes: their
/// fixpoints would make an edit step several times slower.
constexpr std::string_view kHeavyUnits[] = {"binary_tree", "em3d_like",
                                            "tree_mirror"};

struct Unit {
  std::string name;
  std::string_view source;
  const corpus::BuggyProgram* bug = nullptr;
  bool light = false;
  /// Comment lines prepended so far (corpus_edit).
  std::size_t prepended = 0;
};

/// The 24 units in canonical order: the clean corpus, then the buggy programs.
std::vector<Unit> all_units() {
  std::vector<Unit> units;
  for (const corpus::CorpusProgram& p : corpus::all_programs()) {
    Unit u;
    u.name = std::string(p.name);
    u.source = p.source;
    u.light = !p.in_table1 && std::find(std::begin(kHeavyUnits),
                                        std::end(kHeavyUnits),
                                        p.name) == std::end(kHeavyUnits);
    units.push_back(std::move(u));
  }
  for (const corpus::BuggyProgram& b : corpus::buggy_programs()) {
    Unit u;
    u.name = std::string(b.name);
    u.source = b.source;
    u.bug = &b;
    u.light = true;
    units.push_back(std::move(u));
  }
  return units;
}

std::string edited_source(const Unit& u) {
  std::string text;
  for (std::size_t i = 0; i < u.prepended; ++i) {
    text += "// edit " + std::to_string(i + 1) + "\n";
  }
  return text + std::string(u.source);
}

std::vector<driver::AnalysisUnit> batch_units(const std::vector<Unit>& units) {
  std::vector<driver::AnalysisUnit> batch;
  for (const Unit& u : units) {
    driver::AnalysisUnit unit;
    unit.name = u.name;
    unit.source = edited_source(u);
    batch.push_back(std::move(unit));
  }
  return batch;
}

driver::BatchOptions batch_options(const std::string& cache_dir) {
  driver::BatchOptions options;
  options.isolate = true;
  options.jobs = 1;
  options.check = true;
  options.cache_dir = cache_dir;
  return options;
}

/// The batch report recorded at the commit that added this benchmark, in
/// canonical unit order: header, one line per unit, footer.
struct GoldenReport {
  std::string header;
  std::map<std::string, std::string> unit_lines;
  std::string footer;

  [[nodiscard]] std::string for_order(const std::vector<Unit>& units) const {
    std::string text = header;
    for (const Unit& u : units) {
      const auto it = unit_lines.find(u.name);
      text += it == unit_lines.end() ? "  " + u.name + ": <no golden line>\n"
                                     : it->second;
    }
    return text + footer;
  }
};

GoldenReport load_golden() {
  const std::string path =
      std::string(PERFBENCH_DIR) + "/expected/corpus_report.txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  GoldenReport golden;
  std::string line;
  bool in_units = false;
  while (std::getline(in, line)) {
    line += '\n';
    if (golden.header.empty()) {
      golden.header = line;
      in_units = true;
    } else if (in_units && line.rfind("  ", 0) == 0) {
      golden.unit_lines[line.substr(2, line.find(": ") - 2)] = line;
    } else {
      in_units = false;
      golden.footer += line;
    }
  }
  return golden;
}

std::vector<std::string> report_lines(const std::string& report) {
  std::vector<std::string> lines;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line + '\n');
  return lines;
}

/// Answer checks of one pass, outside its timing: (a) the report is the
/// golden one, (b) each buggy unit reports its seeded defect at its line
/// plus the prepended lines, and the cache served exactly the units it
/// should (`miss[i]` marks the units this pass must re-analyze). Every unit
/// that fails a check counts once in the verdict.
void check_pass(const std::vector<Unit>& units, const std::vector<bool>& miss,
                const driver::BatchResult& result, const std::string& report,
                const GoldenReport& golden, const std::string& label,
                Verdict& verdict) {
  const std::string expected = golden.for_order(units);
  const std::vector<std::string> got = report_lines(report);
  const std::vector<std::string> want = report_lines(expected);
  if (got.empty() || got.size() != want.size() || got.front() != want.front() ||
      got.back() != want.back()) {
    verdict.fail(label + ": report header/footer differ from the golden");
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    const driver::UnitReport& r = result.units[i];
    std::string problem;
    if (i + 1 >= got.size() || got[i + 1] != want[i + 1]) {
      problem = "report line differs";
    } else if (r.outcome.failed() || r.outcome.quarantined || !r.payload) {
      problem = "outcome " + driver::describe(r.outcome);
    } else if (r.payload->metrics[Counter::kCacheMisses] != (miss[i] ? 1 : 0) ||
               r.payload->metrics[Counter::kCacheHits] != (miss[i] ? 0 : 1)) {
      problem = miss[i] ? "expected a unit-tier miss"
                        : "expected a unit-tier hit";
    } else if (!miss[i] && r.payload->metrics[Counter::kWorklistVisits] != 0) {
      problem = "cache hit ran the fixpoint";
    } else if (u.bug != nullptr) {
      const std::uint32_t line =
          u.bug->defect_line + static_cast<std::uint32_t>(u.prepended);
      bool found = false;
      for (const checker::Finding& f : r.payload->findings) {
        found = found || (checker::rule_id(f.kind) == u.bug->expected_rule &&
                          f.loc.line == line);
      }
      if (!found) {
        problem = std::string(u.bug->expected_rule) + " not reported at line " +
                  std::to_string(line);
      }
    }
    ++verdict.attempted;
    if (!problem.empty()) {
      ++verdict.failed;
      verdict.fail(label + ": " + u.name + ": " + problem);
    }
  }
}

std::size_t count_entries(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    n += e.path().extension() == ".entry" ? 1 : 0;
  }
  return n;
}

std::uint64_t entry_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) n += e.file_size(ec);
  }
  return n;
}

/// The traced run's view into one unit: its path through the same public
/// calls the worker and supervisor made, replayed in-process. Hits read the
/// real cache; misses store into a private replay cache so the measured
/// cache is never touched.
struct Replay {
  Replay(const std::string& cache_dir, const std::string& root,
         Tracer& tracer_in, Verdict& verdict_in)
      : cache(cache_dir),
        scratch_cache(root + "/replay-cache"),
        snapshot_dir(root + "/replay-snap"),
        tracer(&tracer_in),
        verdict(&verdict_in) {
    fs::create_directories(snapshot_dir);
  }

  cache::ResultCache cache;
  cache::ResultCache scratch_cache;
  std::string snapshot_dir;
  Tracer* tracer;
  Verdict* verdict;

  /// Returns the payload bytes; samples the miss's RSG peak into `peak_mb`.
  std::size_t unit(const driver::AnalysisUnit& unit, bool hit,
                   std::uint64_t request, double& peak_mb) {
    Scope span(tracer, "replay.unit", request);
    const analysis::Options engine;
    std::optional<analysis::ProgramAnalysis> program;
    {
      Scope s(tracer, "analysis.prepare", request);
      analysis::FrontendOptions frontend;
      frontend.salvage = true;
      program.emplace(analysis::prepare(unit.source, unit.function, frontend));
    }
    cache::CacheKey key;
    {
      Scope s(tracer, "cache.key", request);
      key = cache::cache_key(*program, engine, /*check=*/true,
                             /*salvage=*/true);
    }
    std::string bytes;
    if (hit) {
      cache::ResultCache::Lookup found;
      {
        Scope s(tracer, "cache.lookup", request);
        found = cache.lookup(key);
      }
      if (found.status != cache::ResultCache::Lookup::Status::kHit) {
        verdict->fail("replay: " + unit.name + " missed a served entry");
        return 0;
      }
      std::optional<driver::UnitPayload> payload;
      {
        Scope s(tracer, "driver.deserialize", request);
        payload.emplace(driver::deserialize_unit_payload(found.bytes));
      }
      payload->unit_name = unit.name;
      Scope s(tracer, "driver.serialize", request);
      bytes = driver::serialize_unit_payload(*payload, *payload->interner);
    } else {
      {
        Scope s(tracer, "cache.lookup", request);
        (void)scratch_cache.lookup(key);
      }
      driver::UnitPayload payload;
      payload.unit_name = unit.name;
      payload.function = unit.function;
      {
        Scope s(tracer, "analysis.fixpoint", request);
        payload.result = analysis::analyze_program(*program, engine);
      }
      peak_mb = std::max(peak_mb,
                         static_cast<double>(payload.result.peak_bytes()) /
                             (1024.0 * 1024.0));
      payload.exit_node = program->cfg.exit();
      payload.checked = true;
      {
        Scope s(tracer, "checker.run", request);
        payload.findings = checker::run_checkers(*program, payload.result);
      }
      {
        Scope s(tracer, "driver.serialize", request);
        bytes = driver::serialize_unit_payload(payload, program->interner());
      }
      // The batch stores the same bytes under the function-result key and
      // the unit key. The replay has no summary table at hand, so its
      // function key omits the callee summary hashes; the I/O is the same.
      const cache::CacheKey func_key = cache::function_result_key(
          *program, engine, true, true,
          driver::callee_deps(program->cfg, program->interner(), {}));
      {
        Scope s(tracer, "cache.store", request);
        (void)scratch_cache.store(func_key, bytes, cache::StoreFault::kNone,
                                   cache::EntryTier::kFunction);
      }
      Scope s(tracer, "cache.store", request);
      (void)scratch_cache.store(key, bytes);
    }
    const std::string final_path =
        snapshot_dir + "/" + std::to_string(request) + ".snap";
    {
      Scope s(tracer, "support.atomic_write", request);
      (void)support::io::atomic_write(final_path + ".tmp", final_path, bytes);
    }
    {
      // The supervisor's read-back of the worker's snapshot.
      Scope s(tracer, "driver.deserialize", request);
      (void)driver::deserialize_unit_payload(bytes);
    }
    std::error_code ec;
    fs::remove(final_path, ec);
    return bytes.size();
  }
};

}  // namespace

void setup_corpus(const RunConfig& config, Sheet& sheet, Verdict& verdict) {
  Rng rng(config.seed);
  std::vector<Unit> units = all_units();
  shuffle(units, rng);
  const std::vector<driver::AnalysisUnit> batch = batch_units(units);
  const GoldenReport golden = load_golden();
  const std::vector<bool> all_miss(units.size(), true);
  const std::string cache_dir = config.root + "/cache";
  std::vector<double> fill_times;
  for (int r = 0; r < kColdFills; ++r) {
    fs::remove_all(cache_dir);
    const Clock::time_point start = Clock::now();
    const driver::BatchResult result =
        driver::run_batch(batch, batch_options(cache_dir));
    const std::string report = driver::format_batch_report(result);
    fill_times.push_back(seconds_between(start, Clock::now()));
    check_pass(units, all_miss, result, report, golden,
               "set-up fill " + std::to_string(r + 1), verdict);
  }
  sheet.set("setup_s", median(fill_times), "s");
  sheet.set("cache_mb", static_cast<double>(entry_bytes(cache_dir)) /
                           (1024.0 * 1024.0),
            "MB");
  sheet.set("cache.entries", static_cast<double>(count_entries(cache_dir)),
            "count");
}

int record_corpus_report(const RunConfig& config) {
  const std::string cache_dir = config.root + "/record-cache";
  fs::remove_all(cache_dir);
  const driver::BatchResult result =
      driver::run_batch(batch_units(all_units()), batch_options(cache_dir));
  fs::remove_all(cache_dir);
  std::fputs(driver::format_batch_report(result).c_str(), stdout);
  return result.failed_count() == 0 ? 0 : 1;
}

void run_corpus(const RunConfig& config, Sheet& sheet, Verdict& verdict) {
  const bool edit = config.workload == "corpus_edit";
  Rng rng(config.seed);
  std::vector<Unit> units = all_units();
  shuffle(units, rng);
  std::vector<std::size_t> light;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].light) light.push_back(i);
  }
  std::vector<driver::AnalysisUnit> batch = batch_units(units);
  const GoldenReport golden = load_golden();
  const std::string cache_dir = config.root + "/cache";
  if (count_entries(cache_dir) == 0) {
    throw std::runtime_error("no warm cache in " + cache_dir +
                             "; run the set-up first");
  }

  Tracer tracer;
  Tracer* const trace = config.trace ? &tracer : nullptr;
  driver::BatchOptions options = batch_options(cache_dir);
  std::map<std::string, std::uint64_t> unit_index;
  std::map<std::string, Clock::time_point> unit_start;
  std::uint64_t request_base = 0;
  if (config.trace) {
    options.log = [&](const std::string& line) {
      const Clock::time_point now = Clock::now();
      if (line.rfind("start ", 0) == 0) {
        const std::string_view rest = std::string_view(line).substr(6);
        const std::string_view retry = "(retry) ";
        unit_start[std::string(rest.rfind(retry, 0) == 0
                                   ? rest.substr(retry.size())
                                   : rest)] = now;
      } else if (line.rfind("done ", 0) == 0) {
        const std::string name = line.substr(5, line.find(": ") - 5);
        tracer.add("driver.unit", unit_start[name], now,
                   request_base + unit_index[name]);
      }
      tracer.charge(now);
    };
  }
  for (std::size_t i = 0; i < units.size(); ++i) unit_index[units[i].name] = i;

  std::optional<Replay> replay;
  if (config.trace) replay.emplace(cache_dir, config.root, tracer, verdict);

  const bool rss_reset = reset_self_peak_rss();
  std::vector<double> pass_times;
  std::vector<double> iteration_times;
  std::vector<double> unit_ms;
  const Clock::time_point run_start = Clock::now();
  std::size_t pass = 0;
  do {
    const Clock::time_point iteration_start = Clock::now();
    std::vector<bool> miss(units.size(), false);
    if (edit) {
      std::vector<std::size_t> pool = light;
      for (std::size_t k = 0; k < kEditsPerStep; ++k) {
        const std::size_t pick = rng.below(pool.size());
        const std::size_t i = pool[pick];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
        ++units[i].prepended;
        batch[i].source = edited_source(units[i]);
        miss[i] = true;
      }
    }
    request_base = pass * 1000;
    const std::size_t entries_before =
        config.trace ? count_entries(cache_dir) : 0;
    const std::size_t first_span = tracer.spans().size();
    const std::int64_t overhead_before = tracer.overhead_ns();

    const support::MetricsRegion supervisor;
    tracer.in_window = true;
    const Clock::time_point start = Clock::now();
    std::optional<driver::BatchResult> result;
    std::string report;
    {
      Scope p(trace, "pass", request_base);
      {
        Scope s(trace, "driver.run_batch", request_base);
        result.emplace(driver::run_batch(batch, options));
      }
      Scope s(trace, "driver.report", request_base);
      report = driver::format_batch_report(*result);
    }
    pass_times.push_back(seconds_between(start, Clock::now()));
    tracer.in_window = false;
    const support::MetricsSnapshot supervisor_ops = supervisor.delta();

    check_pass(units, miss, *result, report, golden,
               "pass " + std::to_string(pass + 1), verdict);
    double degraded = 0;
    for (const driver::UnitReport& r : result->units) {
      if (r.payload && (!r.payload->result.converged() ||
                        r.payload->result.degraded())) {
        ++degraded;
      }
    }
    sheet.sample("degraded_ratio", degraded / static_cast<double>(units.size()),
                 "ratio");

    if (config.trace) {
      // Counters come only from this run's metrics deltas, never from the
      // served result's recorded cost.
      support::MetricsSnapshot ops = supervisor_ops;
      double findings = 0, exit_graphs = 0, retries = 0;
      for (const driver::UnitReport& r : result->units) {
        retries += r.outcome.attempts - 1;
        if (!r.payload) continue;
        ops += r.payload->metrics;
        findings += static_cast<double>(r.payload->findings.size());
        exit_graphs += static_cast<double>(r.payload->exit_graphs());
      }
      sample_counters(sheet, ops);
      sheet.sample("checker.findings", findings, "count");
      sheet.sample("analysis.exit_graphs", exit_graphs, "count");
      sheet.sample("driver.retries", retries, "count");
      sheet.sample("driver.failed_units",
                   static_cast<double>(result->failed_count()), "count");
      sheet.sample(
          "cache.stores",
          static_cast<double>(count_entries(cache_dir) - entries_before),
          "count");

      double units_total = 0;
      for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
        if (tracer.spans()[i].name != "driver.unit") continue;
        const double ms = Tracer::duration_ms(tracer.spans()[i]);
        units_total += ms;
        unit_ms.push_back(ms);
      }
      const double batch_ms = tracer.total_ms("driver.run_batch", first_span);
      sheet.sample("driver.batch_ms", batch_ms, "ms");
      sheet.sample("driver.wait_ms", batch_ms - units_total, "ms");
      sheet.sample("driver.report_ms",
                   tracer.total_ms("driver.report", first_span), "ms");
      sheet.sample("trace.overhead_ms",
                   static_cast<double>(tracer.overhead_ns() - overhead_before) /
                       1e6,
                   "ms");

      const std::size_t replay_first = tracer.spans().size();
      double payload_bytes = 0, peak_mb = 0;
      const support::MetricsRegion replayed_ops;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        payload_bytes += static_cast<double>(
            replay->unit(batch[i], !miss[i], request_base + i, peak_mb));
      }
      // A worker snapshots its counters before its durable writes, so the
      // batch's I/O never reaches a payload; the replay makes the same writes.
      const support::MetricsSnapshot io = replayed_ops.delta();
      sheet.sample("support.io_writes",
                   static_cast<double>(io[Counter::kIoWrites]), "count");
      sheet.sample("support.io_fsyncs",
                   static_cast<double>(io[Counter::kIoFsyncs]), "count");
      const auto replayed = [&](const char* span) {
        return tracer.total_ms(span, replay_first);
      };
      sheet.sample("analysis.prepare_ms", replayed("analysis.prepare"), "ms");
      sheet.sample("analysis.fixpoint_ms", replayed("analysis.fixpoint"), "ms");
      sheet.sample("analysis.peak_rsg_mb", peak_mb, "MB");
      sheet.sample("checker.ms", replayed("checker.run"), "ms");
      sheet.sample("cache.key_ms", replayed("cache.key"), "ms");
      sheet.sample("cache.lookup_ms", replayed("cache.lookup"), "ms");
      sheet.sample("cache.store_ms", replayed("cache.store"), "ms");
      sheet.sample("driver.serialize_ms", replayed("driver.serialize"), "ms");
      sheet.sample("driver.deserialize_ms", replayed("driver.deserialize"),
                   "ms");
      sheet.sample("support.atomic_write_ms", replayed("support.atomic_write"),
                   "ms");
      sheet.sample("driver.unattributed_ms",
                   units_total - replayed("replay.unit"), "ms");
      sheet.sample("driver.payload_kb",
                   payload_bytes / 1024.0 / static_cast<double>(batch.size()),
                   "KB");
    }
    iteration_times.push_back(seconds_between(iteration_start, Clock::now()));
    ++pass;
  } while (another_pass(run_start, iteration_times, config.seconds));

  set_pass_times(sheet, config.workload, fastest(pass_times), pass_times,
                 config.trace);
  if (config.trace) {
    for (const std::string_view code : kTable1Codes) {
      sheet.set("analysis.peak_rsg_mb." + std::string(code), 0.0, "MB");
    }
    sheet.set("driver.unit_ms_p50", median(unit_ms), "ms");
    sheet.set("driver.unit_ms_tail", tail(unit_ms).value, "ms");
    std::printf("%s: unit tail p%.1f of %zu unit spans\n",
                config.workload.c_str(), tail(unit_ms).percentile,
                unit_ms.size());
    sheet.set("trace.spans", static_cast<double>(tracer.spans().size()),
              "count");
    if (!config.trace_out.empty()) write_trace(tracer, config.trace_out);
    return;
  }
  if (!rss_reset) std::printf("%s: peak RSS could not be reset\n",
                              config.workload.c_str());
  sheet.set("peak_rss_mb",
            std::max(self_peak_rss_mb(), children_peak_rss_mb()), "MB");
}

}  // namespace psa::perfbench
