// serve_read: closed-loop read traffic through the HTTP front door to the
// 120-entity hotel seed database. The working set fits in cache and
// scoring 120 entities is trivial, so per-request cost is the front door
// plus interpretation.

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "bench.h"
#include "server/server.h"

namespace perfbench {
namespace {

namespace core = opinedb::core;

/// A served database: the engine and its front door.
struct ReadTarget {
  std::unique_ptr<core::OpineDb> db;
  std::unique_ptr<opinedb::server::QueryServer> server;
  std::vector<std::string> catalogue;

  void Reset() {
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
  }
  ~ReadTarget() { Reset(); }
};

constexpr size_t kConnections = 4;
constexpr size_t kCatalogueSize = 600;
/// Zipf exponent of the request stream over catalogue ranks.
constexpr double kStreamZipf = 0.5;
/// Requests sent during set-up, before the first timed request.
constexpr size_t kWarmupRequests = 400;

/// Builds the engine into `target`, and its catalogue on the first call;
/// returns the seconds spent in the program's set-up calls.
double BuildTarget(const HotelInputs& inputs, uint64_t seed,
                   ReadTarget* target) {
  double timed = 0.0;
  target->db = BuildHotel(inputs, &timed);
  // Serve on the serial path. With the default pool every 0.5 ms query
  // fans its 120-entity scoring out to all four threads and waits for
  // the slowest, so a few ms of stolen time on any one virtual CPU
  // stalled every in-flight query: identical runs came out bimodal
  // (1.5k vs 4k qps).
  const auto start = Clock::now();
  target->db->SetNumThreads(1);
  timed += SecondsSince(start);
  if (target->catalogue.empty()) {
    target->catalogue = MakeServeReadCatalogue(
        inputs.pool_texts, target->db->schema().objective_table,
        kCatalogueSize, seed);
  }
  return timed;
}

struct LoopResult {
  /// Successful requests in completion order: latency and completion
  /// time since the loop started.
  std::vector<double> latency_ms;
  std::vector<double> done_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Catalogue indices sent, round-robin merged across connections.
  std::vector<uint32_t> sent;
  /// First served body per catalogue entry, per connection (untraced).
  std::vector<std::vector<std::string>> served;
  TraceAggregate trace;
};

/// Closed loop: each connection sends its next request as soon as the
/// previous one returns, for `seconds`. A traced loop then goes on until
/// it holds kTracedRequests successful requests (at most 3 x `seconds`
/// in all), so its tail percentiles keep their sample size when tracing
/// or a slow host cuts the rate.
LoopResult RunClosedLoop(uint16_t port, const std::vector<std::string>& bodies,
                         const std::vector<std::vector<uint32_t>>& streams,
                         double seconds, bool traced,
                         const std::vector<double>& widths) {
  constexpr size_t kTracedRequests = 2 * kMinSamplesForP99;
  const size_t connections = streams.size();
  LoopResult result;
  result.served.assign(connections, {});
  std::vector<std::vector<std::pair<double, double>>> completions(
      connections);
  std::vector<std::vector<uint32_t>> sent(connections);
  std::vector<TraceAggregate> traces(connections);
  std::vector<uint64_t> failed(connections, 0);
  std::atomic<uint64_t> trace_failures{0};
  const std::string target = traced ? "/query?trace=1" : "/query";
  const auto start = Clock::now();
  auto after = [start](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto end = after(seconds);
  const auto hard_end = after(3 * seconds);
  std::atomic<size_t> completed{0};
  auto running = [&] {
    const auto now = Clock::now();
    return now < end || (traced && now < hard_end &&
                         completed.load() < kTracedRequests);
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Connection connection(port);
      const auto& stream = streams[c];
      auto& served = result.served[c];
      if (!traced) served.assign(bodies.size(), std::string());
      std::string response;
      for (size_t k = 0; running(); ++k) {
        const uint32_t q = stream[k % stream.size()];
        const auto begin = Clock::now();
        const int status = connection.Request("POST", target, bodies[q],
                                              &response);
        const auto done = Clock::now();
        const double rtt = MillisBetween(begin, done);
        sent[c].push_back(q);
        if (status != 200) {
          ++failed[c];
          continue;
        }
        completions[c].emplace_back(MillisBetween(start, done), rtt);
        completed.fetch_add(1, std::memory_order_relaxed);
        if (traced) {
          const uint64_t id = (static_cast<uint64_t>(c) << 40) | k;
          if (!traces[c].Add(id, q, rtt, response, widths[q])) {
            trace_failures.fetch_add(1);
          }
        } else if (served[q].empty()) {
          served[q] = response;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<std::pair<double, double>> merged;
  for (size_t c = 0; c < connections; ++c) {
    merged.insert(merged.end(), completions[c].begin(), completions[c].end());
    result.attempted += sent[c].size();
    result.failed += failed[c];
    result.trace.Merge(std::move(traces[c]));
  }
  result.failed += trace_failures.load();
  std::sort(merged.begin(), merged.end());
  for (const auto& [done, rtt] : merged) {
    result.done_ms.push_back(done);
    result.latency_ms.push_back(rtt);
  }
  for (size_t k = 0;; ++k) {
    bool any = false;
    for (size_t c = 0; c < connections; ++c) {
      if (k < sent[c].size()) {
        result.sent.push_back(sent[c][k]);
        any = true;
      }
    }
    if (!any) break;
  }
  return result;
}

}  // namespace

Outcome RunServeRead(const RunOptions& options) {
  const HotelInputs inputs = MakeHotelInputs();
  Outcome outcome;
  double read_gbps = std::numeric_limits<double>::quiet_NaN();
  if (options.trace) {
    // Outside every timed phase and before set-up, so the array is
    // freed before the database is built.
    read_gbps = MeasureReadGbps();
  }

  // Set-up, several times: the median is setup_s. The last target
  // serves the timed phases.
  ReadTarget target;
  std::vector<double> setup_s;
  const int repeats = options.trace ? 1 : 3;
  std::vector<std::string> bodies;
  std::vector<std::vector<uint32_t>> streams;
  for (int rep = 0; rep < repeats; ++rep) {
    target.Reset();
    double timed = BuildTarget(inputs, options.seed, &target);
    if (streams.empty()) {
      for (const auto& sql : target.catalogue) {
        bodies.push_back(QueryJson(sql));
      }
      streams = MakeStreams(target.catalogue.size(), kConnections, 1 << 18,
                            kStreamZipf, options.seed);
    }
    const auto start = Clock::now();
    opinedb::server::QueryServerOptions server_options;
    target.server = std::make_unique<opinedb::server::QueryServer>(
        target.db.get(), server_options);
    if (!target.server->Start().ok()) {
      throw std::runtime_error("query server failed to start");
    }
    Connection warmup(target.server->port());
    std::string response;
    for (size_t i = 0; i < kWarmupRequests; ++i) {
      const uint32_t q = streams[0][streams[0].size() - 1 - i];
      if (warmup.Request("POST", "/query", bodies[q], &response) != 200) {
        throw std::runtime_error("warm-up query failed");
      }
    }
    timed += SecondsSince(start);
    setup_s.push_back(timed);
  }
  const uint16_t port = target.server->port();
  std::vector<double> widths(target.catalogue.size(), 0.0);

  // Untraced timed phase: the end-to-end numbers.
  LoopResult plain = RunClosedLoop(port, bodies, streams, options.seconds,
                                   /*traced=*/false, widths);
  size_t checked = 0;
  const uint64_t mismatches = CheckServedBodies(
      *target.db, target.catalogue, plain.served, &checked, &widths);
  outcome.attempted = plain.attempted + checked;
  outcome.failed = plain.failed + mismatches;
  outcome.mismatches = mismatches;
  outcome.notes.push_back(
      "output check: " + std::to_string(checked) +
      " served bodies compared with embedded ResultToJson(Execute(sql)), " +
      std::to_string(mismatches) + " mismatches");

  const double p50 = GuardedPercentile("query", plain.latency_ms, 0.5);
  const size_t n = plain.latency_ms.size();
  if (!options.trace) {
    Report& report = outcome.report;
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("query_qps",
               WindowedRate(plain.done_ms, kRateWindows),
               "req/s", n);
    report.Add("query_p50_ms", BlockPercentile("query", plain.latency_ms, 0.5),
               "ms", n);
    report.Add("query_p99_ms",
               BlockPercentile("query", plain.latency_ms, 0.99), "ms", n);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    report.Add("error_rate", ErrorRate(outcome), "ratio", outcome.attempted);
    AddTrafficProperties(target.catalogue, plain.sent, &report,
                         &outcome.notes);
    return outcome;
  }

  // Traced phase: same seed, same streams, engine at trace level full.
  Report& report = outcome.report;
  report.Add("query_p50_ms", BlockPercentile("query", plain.latency_ms, 0.5),
             "ms", n);
  target.db->SetTraceLevel(opinedb::obs::TraceLevel::kFull);
  MetricsSnapshot before, after;
  ParseMetrics(FetchMetrics(port), &before);
  LoopResult traced = RunClosedLoop(port, bodies, streams, options.seconds,
                                    /*traced=*/true, widths);
  ParseMetrics(FetchMetrics(port), &after);
  target.db->SetTraceLevel(opinedb::obs::TraceLevel::kOff);
  outcome.attempted += traced.attempted;
  outcome.failed += traced.failed;

  traced.trace.Finish(MetricsDelta(before, after), read_gbps, &report,
                      &outcome.notes);
  AddQueryProbes(*target.db, target.catalogue, &report);
  AddTrafficProperties(target.catalogue, plain.sent, &report, &outcome.notes);
  const double reviews =
      static_cast<double>(target.db->corpus().num_reviews());
  report.Add("workload.corpus_reviews_before", reviews, "count");
  report.Add("workload.corpus_reviews_after", reviews, "count");
  report.Add("host.read_gbps", read_gbps, "GB/s");
  report.Add("loadgen.late_p99_ms", 0.0, "ms");
  const double traced_p50 =
      GuardedPercentile("traced query", traced.latency_ms, 0.5);
  report.Add("obs.trace_overhead_pct", (traced_p50 / p50 - 1.0) * 100.0, "%",
             traced.latency_ms.size());
  report.Add("error_rate", ErrorRate(outcome), "ratio", outcome.attempted);
  outcome.span_lines = traced.trace.TakeSpanLines();
  return outcome;
}

}  // namespace perfbench
