#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"

namespace perfbench {

using opinedb::server::JsonValue;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ statistics.

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double GuardedPercentile(const std::string& name,
                         const std::vector<double>& values, double q) {
  if (values.empty()) {
    throw SampleGuardError("sample-size guard: " + name +
                           " has no samples");
  }
  if (q > 0.5 && values.size() < kMinSamplesForP99) {
    throw SampleGuardError(
        "sample-size guard: " + name + " has " +
        std::to_string(values.size()) + " samples, fewer than " +
        std::to_string(kMinSamplesForP99) + " needed for a tail percentile");
  }
  return NearestRank(values, q);
}

double BlockPercentile(const std::string& name,
                       const std::vector<double>& values, double q) {
  if (values.size() < kMinSamplesForP99) {
    GuardedPercentile(name, values, 0.99);  // Throws with the count.
  }
  const size_t blocks = values.size() / kMinSamplesForP99;
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = values.begin() + b * kMinSamplesForP99;
    const auto last = b + 1 == blocks ? values.end()
                                      : first + kMinSamplesForP99;
    per_block.push_back(NearestRank(std::vector<double>(first, last), q));
  }
  return Median(per_block);
}

double WindowedRate(const std::vector<double>& completion_ms,
                    size_t windows) {
  const size_t n = completion_ms.size();
  if (n == 0) return 0.0;
  if (n < windows) return static_cast<double>(n) / (completion_ms.back() / 1e3);
  std::vector<double> rates;
  double previous_ms = 0.0;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * n / windows;
    const size_t hi = (w + 1) * n / windows;
    const double end_ms = completion_ms[hi - 1];
    rates.push_back(static_cast<double>(hi - lo) /
                    ((end_ms - previous_ms) / 1e3));
    previous_ms = end_ms;
  }
  return Median(rates);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double Median(std::vector<double> values) { return NearestRank(values, 0.5); }

// ------------------------------------------------------ seeded inputs.

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix64::Below(uint64_t n) { return Next() % n; }

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(SplitMix64* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

std::vector<std::string> Shuffled(std::vector<std::string> items,
                                  SplitMix64* rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng->Below(i)]);
  }
  return items;
}

namespace {

std::string Quoted(const std::string& predicate) {
  return "\"" + predicate + "\"";
}

}  // namespace

std::vector<std::string> MakeServeReadCatalogue(
    const std::vector<std::string>& pool, const std::string& table,
    size_t size, uint64_t seed) {
  SplitMix64 rng(seed ^ 0x5e5e'0001ULL);
  // Predicates fill the catalogue slots in a seed-shuffled cyclic order,
  // so every predicate appears about equally often whatever the seed.
  std::vector<std::string> order = Shuffled(pool, &rng);
  size_t next = 0;
  std::set<std::string> seen;
  std::vector<std::string> catalogue;
  while (catalogue.size() < size) {
    const size_t rank = catalogue.size();
    const size_t num_predicates = 1 + (rank / 3) % 3;
    const bool filtered = rank % 3 == 1;
    std::vector<std::string> chosen;
    while (chosen.size() < num_predicates) {
      if (next == order.size()) {
        order = Shuffled(std::move(order), &rng);
        next = 0;
      }
      const std::string& p = order[next++];
      if (std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
        chosen.push_back(p);
      }
    }
    std::string where;
    for (size_t i = 0; i < chosen.size(); ++i) {
      if (i > 0) where += rng.Below(2) == 0 ? " and " : " or ";
      where += Quoted(chosen[i]);
    }
    if (filtered) {
      std::string filter;
      switch (rng.Below(3)) {
        case 0:
          filter = "price_pn < " + std::to_string(120 + rng.Below(331));
          break;
        case 1:
          filter = rng.Below(2) == 0 ? "city = 'london'"
                                     : "city = 'amsterdam'";
          break;
        default:
          filter = "rating > " + std::to_string(2 + rng.Below(2));
          break;
      }
      where = filter + " and (" + where + ")";
    }
    const size_t limit = 5 + rng.Below(16);
    std::string sql = "select * from " + table + " where " + where +
                      " limit " + std::to_string(limit);
    if (seen.insert(sql).second) catalogue.push_back(std::move(sql));
  }
  return catalogue;
}

std::vector<std::vector<uint32_t>> MakeStreams(size_t catalogue_size,
                                               size_t connections,
                                               size_t length,
                                               double zipf_exponent,
                                               uint64_t seed) {
  SplitMix64 rng(seed ^ 0x57e4'0003ULL);
  const ZipfSampler pick(catalogue_size, zipf_exponent);
  std::vector<std::vector<uint32_t>> streams(connections);
  for (auto& stream : streams) {
    stream.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      stream.push_back(static_cast<uint32_t>(pick.Sample(&rng)));
    }
  }
  return streams;
}

std::string ReviewBatchJson(const std::vector<ReviewInput>& reviews) {
  std::string out = "{\"reviews\": [";
  for (size_t i = 0; i < reviews.size(); ++i) {
    const ReviewInput& review = reviews[i];
    if (i > 0) out += ", ";
    out += "{\"entity\": " + std::to_string(review.entity) +
           ", \"reviewer\": " + std::to_string(review.reviewer) +
           ", \"date\": " + std::to_string(review.date) + ", \"body\": ";
    opinedb::JsonEscapeAppend(review.body, &out);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string QueryJson(const std::string& sql) {
  std::string out = "{\"sql\": ";
  opinedb::JsonEscapeAppend(sql, &out);
  out += "}";
  return out;
}

double RepeatShare(const std::vector<std::string>& keys) {
  if (keys.empty()) return 0.0;
  std::unordered_set<std::string> seen;
  size_t repeats = 0;
  for (const auto& key : keys) {
    if (!seen.insert(key).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(keys.size());
}

// ------------------------------------------------------------ open loop.

std::vector<OpenLoopSample> RunOpenLoop(
    Clock::time_point start, double interval_ms, size_t first, size_t stride,
    double end_ms, const std::function<bool(size_t)>& send,
    const std::function<bool()>& stop) {
  std::vector<OpenLoopSample> samples;
  for (size_t i = first;; i += stride) {
    const double due_ms = static_cast<double>(i) * interval_ms;
    if (due_ms >= end_ms || stop()) break;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     due_ms));
    std::this_thread::sleep_until(due);
    OpenLoopSample sample;
    sample.index = i;
    sample.due_ms = due_ms;
    sample.sent_ms = MillisBetween(start, Clock::now());
    sample.ok = send(i);
    sample.done_ms = MillisBetween(start, Clock::now());
    samples.push_back(sample);
  }
  return samples;
}

// ---------------------------------------------------------------- spans.

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint32_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    if (span.parent_id != 0) {
      children[span.parent_id].emplace_back(
          span.start_ms, span.start_ms + span.duration_ms);
    }
  }
  std::vector<double> self;
  self.reserve(spans.size());
  for (const Span& span : spans) {
    const double lo = span.start_ms;
    const double hi = span.start_ms + span.duration_ms;
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_lo = 0.0, run_hi = 0.0;
      bool open = false;
      for (auto [a, b] : intervals) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a) continue;
        if (open && a <= run_hi) {
          run_hi = std::max(run_hi, b);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    self.push_back(span.duration_ms - covered);
  }
  return self;
}

bool ParseEngineSpans(const JsonValue& response, std::vector<Span>* spans) {
  const JsonValue* trace = response.Find("trace");
  if (trace == nullptr || !trace->is_array()) return false;
  spans->clear();
  for (const JsonValue& item : trace->items()) {
    Span span;
    span.id = static_cast<uint32_t>(item.GetNumber("id").value_or(0));
    span.parent_id =
        static_cast<uint32_t>(item.GetNumber("parent_id").value_or(0));
    span.name = item.GetString("name").value_or("");
    span.start_ms = item.GetNumber("start_ms").value_or(0.0);
    span.duration_ms = item.GetNumber("duration_ms").value_or(0.0);
    spans->push_back(std::move(span));
  }
  return true;
}

// ------------------------------------------------------- /metrics scrape.

bool ParseMetrics(const std::string& json, MetricsSnapshot* out) {
  auto doc = JsonValue::Parse(json);
  if (!doc.ok() || !doc->is_object()) return false;
  *out = MetricsSnapshot();
  if (const JsonValue* counters = doc->Find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      out->counters[name] = value.AsNumber();
    }
  }
  if (const JsonValue* histograms = doc->Find("histograms")) {
    for (const auto& [name, value] : histograms->members()) {
      std::vector<double> bounds, counts;
      if (const JsonValue* b = value.Find("bounds")) {
        for (const auto& item : b->items()) bounds.push_back(item.AsNumber());
      }
      if (const JsonValue* c = value.Find("counts")) {
        for (const auto& item : c->items()) counts.push_back(item.AsNumber());
      }
      out->histograms[name] = {std::move(bounds), std::move(counts)};
      out->histogram_sums[name] = value.GetNumber("sum").value_or(0.0);
    }
  }
  return true;
}

MetricsSnapshot MetricsDelta(const MetricsSnapshot& before,
                             const MetricsSnapshot& after) {
  MetricsSnapshot delta = after;
  for (auto& [name, value] : delta.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) value -= it->second;
  }
  for (auto& [name, sum] : delta.histogram_sums) {
    auto it = before.histogram_sums.find(name);
    if (it != before.histogram_sums.end()) sum -= it->second;
  }
  for (auto& [name, histogram] : delta.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    auto& counts = histogram.second;
    const auto& old_counts = it->second.second;
    for (size_t i = 0; i < counts.size() && i < old_counts.size(); ++i) {
      counts[i] -= old_counts[i];
    }
  }
  return delta;
}

double Counter(const MetricsSnapshot& snapshot, const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0.0 : it->second;
}

double HistogramMean(const MetricsSnapshot& snapshot,
                     const std::string& name) {
  auto it = snapshot.histograms.find(name);
  auto sum = snapshot.histogram_sums.find(name);
  if (it == snapshot.histograms.end() ||
      sum == snapshot.histogram_sums.end()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double count = Sum(it->second.second);
  return count > 0.0 ? sum->second / count
                     : std::numeric_limits<double>::quiet_NaN();
}

double HistogramPercentile(const MetricsSnapshot& snapshot,
                           const std::string& name, double q, double* count) {
  *count = 0.0;
  auto it = snapshot.histograms.find(name);
  if (it == snapshot.histograms.end()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const auto& [bounds, counts] = it->second;
  const double total = Sum(counts);
  *count = total;
  if (total <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double rank = std::max(1.0, std::ceil(q * total));
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0.0) continue;
    if (cumulative + counts[i] >= rank) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lower;
      const double fraction = (rank - cumulative) / counts[i];
      return lower + fraction * (bounds[i] - lower);
    }
    cumulative += counts[i];
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// --------------------------------------------------------------- report.

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

std::string Report::Table() const {
  std::string out;
  char line[256];
  for (const Metric& metric : metrics_) {
    std::snprintf(line, sizeof(line), "  %-36s %16.6g %-10s n=%zu%s\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  metric.samples,
                  std::isfinite(metric.value) ? "" : "  (not applicable)");
    out += line;
  }
  return out;
}

std::string Report::ResultLine(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    opinedb::JsonEscapeAppend(metrics_[i].name, &out);
    out += ": {\"value\": " + FormatNumber(metrics_[i].value) +
           ", \"unit\": ";
    opinedb::JsonEscapeAppend(metrics_[i].unit, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
