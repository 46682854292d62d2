#ifndef OPINEDB_PERFBENCH_HARNESS_H_
#define OPINEDB_PERFBENCH_HARNESS_H_

// Engine-independent helpers of the OpineDB benchmark: seeded input
// generation, nearest-rank statistics with a sample-size guard, the
// open-loop sender, span self time, /metrics deltas and the result
// report. Everything here is unit-tested in tests/harness_test.cc.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to);
double SecondsSince(Clock::time_point start);

// ------------------------------------------------------------ statistics.

/// Thrown when a timed operation type has too few samples for the
/// percentile asked of it. The benchmark exits non-zero on it rather
/// than report a tail percentile with fewer than ten samples beyond it.
class SampleGuardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Samples below which a p99 is refused: 1000 leaves ten beyond it.
inline constexpr size_t kMinSamplesForP99 = 1000;

/// Windows behind every reported request rate (see WindowedRate).
inline constexpr size_t kRateWindows = 15;

/// Nearest-rank percentile: the smallest value such that at least
/// q * n samples are <= it (rank ceil(q * n), 1-based). q in (0, 1].
/// NaN for an empty sample.
double NearestRank(std::vector<double> values, double q);

/// NearestRank with the guard: throws SampleGuardError when q > 0.5 and
/// fewer than kMinSamplesForP99 samples, or when the sample is empty.
double GuardedPercentile(const std::string& name,
                         const std::vector<double>& values, double q);

/// A percentile robust to bursts of outside noise: `values` (in
/// completion order) are cut into consecutive blocks of at least
/// kMinSamplesForP99 samples, the percentile is taken per block, and the
/// median across blocks is reported. Each block's p99 has ten samples
/// beyond it. Throws SampleGuardError below one block.
double BlockPercentile(const std::string& name,
                       const std::vector<double>& values, double q);

/// Completions per second, robust to bursts of outside noise: the
/// sorted completion times (ms since the loop started) are cut into
/// `windows` runs of consecutive completions, each run's rate is its
/// count over the time since the previous run ended, and the median rate
/// is reported. The overall rate when there are fewer completions than
/// windows.
double WindowedRate(const std::vector<double>& completion_ms,
                    size_t windows);

double Sum(const std::vector<double>& values);

/// Median of a small set of repeats (set-up times); NaN when empty.
double Median(std::vector<double> values);

// ------------------------------------------------------ seeded inputs.

/// splitmix64: the benchmark's own generator, so inputs depend only on
/// the seed and not on the program's random-number code.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n must be > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Draws ranks 0..n-1 with probability proportional to 1 / (rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);
  size_t Sample(SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Seed-permuted copy of `items` (Fisher-Yates).
std::vector<std::string> Shuffled(std::vector<std::string> items,
                                  SplitMix64* rng);

/// serve_read: `size` distinct queries over the predicate pool. Query
/// shape is a function of catalogue rank (1-3 predicates cycling every
/// three ranks, an objective filter on every third rank), and every
/// predicate fills about the same number of slots, so every seed has the
/// same shape and predicate mix; the seed picks which predicates sit at
/// which rank, the connectives, the filter literal and the limit (5-20).
std::vector<std::string> MakeServeReadCatalogue(
    const std::vector<std::string>& pool, const std::string& table,
    size_t size, uint64_t seed);

/// Per-connection request streams: `connections` sequences of
/// `length` catalogue indices drawn zipfian (exponent 0 = uniform) over
/// the catalogue ranks.
std::vector<std::vector<uint32_t>> MakeStreams(size_t catalogue_size,
                                               size_t connections,
                                               size_t length,
                                               double zipf_exponent,
                                               uint64_t seed);

/// One review of an ingest batch.
struct ReviewInput {
  int32_t entity = 0;
  int32_t reviewer = 0;
  int32_t date = 0;
  std::string body;
};

/// The POST /reviews body for `reviews`.
std::string ReviewBatchJson(const std::vector<ReviewInput>& reviews);

/// The POST /query body for `sql`.
std::string QueryJson(const std::string& sql);

/// Fraction of `keys` (in request order) equal to an earlier key.
double RepeatShare(const std::vector<std::string>& keys);

// ------------------------------------------------------------ open loop.

/// One scheduled request of an open-loop sender.
struct OpenLoopSample {
  size_t index = 0;
  /// Times relative to the schedule start.
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;
  /// Latency as a user sees it: completion minus the time the request
  /// was due, so a stall also charges the requests queued behind it.
  double latency_ms() const { return done_ms - due_ms; }
  /// How late the generator itself sent the request.
  double late_ms() const { return sent_ms - due_ms; }
};

/// Sends requests first, first + stride, ... with request i due at
/// start + i * interval_ms, each only after the previous one returned
/// (one connection). Stops before a request due at or after
/// `end_ms` or once `stop` returns true.
std::vector<OpenLoopSample> RunOpenLoop(
    Clock::time_point start, double interval_ms, size_t first, size_t stride,
    double end_ms, const std::function<bool(size_t)>& send,
    const std::function<bool()>& stop);

// ---------------------------------------------------------------- spans.

struct Span {
  uint32_t id = 0;
  uint32_t parent_id = 0;  // 0 for a root.
  std::string name;
  double start_ms = 0.0;
  double duration_ms = 0.0;
};

/// Self time of each span (same order): its duration minus the part of
/// its interval that the union of its direct children covers.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Reads the engine's span array (the `trace` member of a parsed /query
/// response, rendered by obs::TraceBuffer::ToJson). Returns false when
/// the response carries none.
bool ParseEngineSpans(const opinedb::server::JsonValue& response,
                      std::vector<Span>* spans);

// ------------------------------------------------------- /metrics scrape.

struct MetricsSnapshot {
  std::map<std::string, double> counters;
  /// name -> (bounds, counts); counts has bounds.size() + 1 entries.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      histograms;
  /// name -> sum of every observation (exact, unlike the buckets).
  std::map<std::string, double> histogram_sums;
};

bool ParseMetrics(const std::string& json, MetricsSnapshot* out);

/// Exact mean of a histogram's observations (sum / count); NaN when it
/// is absent or empty.
double HistogramMean(const MetricsSnapshot& snapshot, const std::string& name);

/// after - before, for counters, histogram bucket counts and sums.
MetricsSnapshot MetricsDelta(const MetricsSnapshot& before,
                             const MetricsSnapshot& after);

double Counter(const MetricsSnapshot& snapshot, const std::string& name);

/// Percentile of a bucketed histogram, linearly interpolated inside the
/// bucket holding the rank (the overflow bucket reports its lower
/// bound). Returns NaN when the histogram is absent or empty; `count`
/// receives the number of observations.
double HistogramPercentile(const MetricsSnapshot& snapshot,
                           const std::string& name, double q, double* count);

// --------------------------------------------------------------- report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind the value (0 when it is not a sample
  /// statistic, e.g. a ratio of counters).
  size_t samples = 0;
};

/// Collects metrics in declaration order and renders the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Human-readable table, one metric per line with unit and n.
  std::string Table() const;
  /// The final result line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}. Non-finite values render as
  /// 0 so the line stays valid JSON; they are flagged in Table().
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // OPINEDB_PERFBENCH_HARNESS_H_
