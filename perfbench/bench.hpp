// Shared pieces of the psa benchmark (see README.md): seeded draws, the
// in-memory span recorder, the metric sheet every workload fills, and the
// few statistics the report needs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/metrics.hpp"

namespace psa::perfbench {

/// The paper's Table-1 codes, in corpus order.
inline constexpr std::string_view kTable1Codes[] = {
    "sparse_matvec", "sparse_matmat", "sparse_lu", "barnes_hut"};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64. The benchmark's only source of randomness, written out so a
/// seed draws the same inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

[[nodiscard]] inline double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

/// Whole passes only: another pass runs while it would end nearer to the
/// run's length than stopping now, so a run makes at least one pass.
[[nodiscard]] inline bool another_pass(Clock::time_point run_start,
                                       const std::vector<double>& pass_times,
                                       double seconds) {
  return seconds_between(run_start, Clock::now()) + median(pass_times) / 2 <
         seconds;
}

/// The highest percentile of `values` with at least ten samples above it.
/// With ten samples or fewer no percentile qualifies, and it is the median.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};

[[nodiscard]] inline Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  t.value = median(values);
  const std::size_t n = values.size();
  if (n <= 10) return t;
  std::sort(values.begin(), values.end());
  t.value = values[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

/// One recorded span. `parent` indexes the enclosing span (-1 at the root);
/// `request` is shared by the spans of one unit in one pass.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder. Nothing is written until the run ends. The time
/// spent in its own bookkeeping while `in_window` is set is accumulated, so
/// the traced run can state its overhead inside the timed window.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int open(std::string_view name, std::uint64_t request) {
    const Clock::time_point now = Clock::now();
    Span span;
    span.name = std::string(name);
    span.start_ns = ns(now);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    charge(now);
    return stack_.back();
  }

  void close(int id) {
    const Clock::time_point now = Clock::now();
    spans_[static_cast<std::size_t>(id)].end_ns = ns(now);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    charge(now);
  }

  /// A span timed elsewhere (unit spans from the batch log), under the
  /// innermost open span. The caller charges its own bookkeeping.
  void add(std::string_view name, Clock::time_point start,
           Clock::time_point end, std::uint64_t request) {
    Span span;
    span.name = std::string(name);
    span.start_ns = ns(start);
    span.end_ns = ns(end);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    spans_.push_back(std::move(span));
  }

  /// Count `since`..now as tracing overhead when inside the timed window.
  void charge(Clock::time_point since) {
    if (in_window) overhead_ns_ += ns(Clock::now()) - ns(since);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::int64_t overhead_ns() const { return overhead_ns_; }

  /// Sum of durations of spans named `name` recorded from index `from` on.
  [[nodiscard]] double total_ms(std::string_view name,
                                std::size_t from = 0) const {
    double total = 0;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name == name) total += duration_ms(spans_[i]);
    }
    return total;
  }

  [[nodiscard]] static double duration_ms(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  /// Self time per span name: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = duration_ms(spans_[i]);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= duration_ms(s);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i];
    }
    return out;
  }

  bool in_window = false;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::int64_t overhead_ns_ = 0;
};

/// Opens a span for its lifetime when tracing; does nothing otherwise.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, std::uint64_t request)
      : tracer_(tracer), id_(tracer ? tracer->open(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-pass samples of every metric a run reports. A count reports its mean
/// over passes (the work a pass does on average, which keeps the counters of
/// the few corpus_edit steps that reach a layer visible); everything else
/// reports the median.
class Sheet {
 public:
  void sample(const std::string& name, double value, std::string_view unit) {
    auto& m = metrics_[name];
    m.unit = std::string(unit);
    m.samples.push_back(value);
  }
  void set(const std::string& name, double value, std::string_view unit) {
    auto& m = metrics_[name];
    m.unit = std::string(unit);
    m.samples.assign(1, value);
  }

  struct Metric {
    std::string unit;
    std::vector<double> samples;

    [[nodiscard]] double value() const {
      if (unit != "count" || samples.empty()) return median(samples);
      double sum = 0;
      for (const double s : samples) sum += s;
      return sum / static_cast<double>(samples.size());
    }
  };
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Prints a run's pass times, then fills its pass-time metrics. `wall_s` is
/// `best`, the fastest pass: the program's own cost, since a slower pass
/// only waited longer for a shared host (see README.md, Sizing). The median
/// and the tail are printed beside it. A traced run reports `best` as
/// `trace.wall_s` instead, to compare with the plain run's `wall_s`.
inline void set_pass_times(Sheet& sheet, const std::string& workload,
                           double best, const std::vector<double>& pass_times,
                           bool traced) {
  const Tail t = tail(pass_times);
  std::printf("%s: %zu passes (s):", workload.c_str(), pass_times.size());
  for (const double s : pass_times) std::printf(" %.3f", s);
  std::printf("\n%s: wall_tail_s is p%.1f of %zu passes\n", workload.c_str(),
              t.percentile, t.samples);
  if (traced) {
    sheet.set("trace.wall_s", best, "s");
    return;
  }
  sheet.set("wall_s", best, "s");
  sheet.set("wall_median_s", median(pass_times), "s");
  sheet.set("wall_tail_s", t.value, "s");
}

/// What one run of a workload found, beyond its metrics.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> mismatches;

  void fail(std::string what) {
    if (mismatches.size() < 50) mismatches.push_back(std::move(what));
  }
};

/// Arguments common to every mode of the benchmark binary.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Private per-run directory (cache, snapshots, replay scratch).
  std::string root;
  /// Where the traced run writes its spans when it ends.
  std::string trace_out;
};

/// Peak resident set of this process (VmHWM) in MB, and a reset of it so the
/// next read covers only what follows. False when the kernel refuses.
[[nodiscard]] double self_peak_rss_mb();
bool reset_self_peak_rss();
/// Largest peak RSS among reaped child processes, in MB.
[[nodiscard]] double children_peak_rss_mb();

/// Write every span of `tracer` as JSON lines to `path`.
void write_trace(const Tracer& tracer, const std::string& path);

/// Sample the program's own operation counters (analysis, rsg, ipa, cache)
/// from one pass's counter total.
void sample_counters(Sheet& sheet, const support::MetricsSnapshot& ops);

// Workloads. Each fills `sheet` and `verdict`; see README.md.
void run_table1(const RunConfig& config, Sheet& sheet, Verdict& verdict);
void run_corpus(const RunConfig& config, Sheet& sheet, Verdict& verdict);
/// Cold batches into `config.root`/cache (the corpus set-up).
void setup_corpus(const RunConfig& config, Sheet& sheet, Verdict& verdict);
/// Print the batch report of one cold batch in canonical order.
int record_corpus_report(const RunConfig& config);

}  // namespace psa::perfbench
