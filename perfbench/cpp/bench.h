#ifndef OPINEDB_PERFBENCH_BENCH_H_
#define OPINEDB_PERFBENCH_BENCH_H_

// Shared pieces of the two workloads: run options, the host block,
// the hotel seed build, the HTTP connection wrapper, output checks and
// the traced-run aggregation.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/generator.h"
#include "datagen/queries.h"
#include "extract/opinion_tagger.h"
#include "harness.h"
#include "server/http_client.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch space for WAL segments and snapshots.
  std::string work_dir;
  /// Where the traced run writes its spans and every run its report.
  std::string results_dir;
  std::string git_sha;
  std::string source_hash;
};

/// What one workload run produced: the metrics of the requested mode
/// plus the counts behind the result line.
struct Outcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check mismatches (also counted in `failed`).
  uint64_t mismatches = 0;
  /// Free-form lines (workload properties, check results, span table)
  /// printed above the metric table.
  std::vector<std::string> notes;
  /// Traced runs: one JSON line per request, written when the run ends.
  std::vector<std::string> span_lines;
};

/// Failed (including mismatched) operations over attempted ones.
double ErrorRate(const Outcome& outcome);

Outcome RunServeRead(const RunOptions& options);
Outcome RunIngestMix(const RunOptions& options);

// ------------------------------------------------------------- host.

struct HostInfo {
  unsigned nproc = 1;
  std::string cpu_model;
  uint64_t llc_bytes = 0;
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;
};

HostInfo DetectHost();
std::string HostBlockJson(const HostInfo& host, const RunOptions& options);

/// STREAM-style read bandwidth in GB/s: nproc threads sum disjoint
/// slices of an array of 4x the LLC (at least 256 MiB); best of a few
/// passes. Allocates the array for the call only.
double MeasureReadGbps();

double PeakRssMb();

// ------------------------------------------------------- hotel seed.

/// Inputs of the hotel seed database: generated before any timed
/// set-up, so input generation stays out of setup_s.
struct HotelInputs {
  opinedb::datagen::SyntheticDomain domain;
  std::vector<opinedb::extract::LabeledSentence> labeled;
  std::vector<opinedb::datagen::QueryPredicate> pool;
  std::vector<std::string> pool_texts;
};

HotelInputs MakeHotelInputs();

/// Builds the hotel seed engine at default options (caches off).
/// `timed_s` accumulates the time spent in the program's set-up calls
/// (tagger training, Build, SetObjectiveTable, TrainMembership); the
/// membership training tuples are made outside that clock.
std::unique_ptr<opinedb::core::OpineDb> BuildHotel(const HotelInputs& inputs,
                                                   double* timed_s);

// ------------------------------------------------------------- http.

/// One keep-alive connection that reconnects when the server announces
/// a close (its per-connection request cap) or a request fails.
class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}
  /// POSTs/GETs `body`; returns the HTTP status (0 on transport
  /// failure) and fills `response_body`.
  int Request(const std::string& method, const std::string& target,
              const std::string& body, std::string* response_body);

 private:
  uint16_t port_;
  opinedb::server::HttpClient client_;
};

std::string FetchMetrics(uint16_t port);

// ----------------------------------------------------------- traced.

/// Accumulates the traced requests of one run: the client span, the
/// engine span tree returned beneath it, and per-request facts.
class TraceAggregate {
 public:
  /// Adds one traced /query: its round trip and its response body.
  /// `bytes_per_entity` is the columnar scan width of the query's bound
  /// attributes (0 when unknown). Returns false when the body carries
  /// no parseable trace.
  bool Add(uint64_t request_id, uint32_t query, double rtt_ms,
           const std::string& body, double bytes_per_entity);

  void Merge(TraceAggregate&& other);
  /// Adds the per-layer query metrics to `report` (`read_gbps` feeds
  /// score.bw_fraction).
  void Finish(const MetricsSnapshot& delta, double read_gbps,
              Report* report, std::vector<std::string>* notes) const;
  /// The span trees of the first kMaxSpanLines requests, one JSON line
  /// each (the aggregates cover every request).
  std::vector<std::string> TakeSpanLines() { return std::move(lines_); }
  static constexpr size_t kMaxSpanLines = 10000;

 private:
  std::vector<double> rtt_ms_;
  std::vector<double> outside_ms_;
  std::map<std::string, std::vector<double>> duration_ms_;
  std::map<std::string, std::vector<double>> self_ms_;
  double entities_ = 0.0;
  double results_ = 0.0;
  double scan_bytes_ = 0.0;
  std::vector<std::string> lines_;
};

/// Columnar scan width (bytes per entity) summed over every atom the
/// result's interpretations bind; 0 when the engine has no columnar
/// store.
double ScanBytesPerEntity(const opinedb::core::OpineDb& db,
                          const opinedb::core::QueryResult& result);

// ------------------------------------------------------------ probes.

/// Off-request-path timings on sampled inputs: parse
/// (JsonValue::Parse + ParseSubjectiveSql), plan (AnalyzeQuery +
/// SelectPlan) and render (ResultToJson of an embedded result).
void AddQueryProbes(const opinedb::core::OpineDb& db,
                    const std::vector<std::string>& catalogue,
                    Report* report);

/// Workload properties of a query stream: repeat share (canonical SQL
/// seen before), filtered share and distinct predicates.
void AddTrafficProperties(const std::vector<std::string>& catalogue,
                          const std::vector<uint32_t>& sent, Report* report,
                          std::vector<std::string>* notes);

/// Embedded-vs-served check: every served body recorded per connection
/// and catalogue entry must equal ResultToJson(db.Execute(sql)) byte for byte.
/// Returns the number of mismatches; `checked` receives the number of
/// bodies compared and `widths` each entry's ScanBytesPerEntity.
uint64_t CheckServedBodies(
    const opinedb::core::OpineDb& db,
    const std::vector<std::string>& catalogue,
    const std::vector<std::vector<std::string>>& served_by_connection,
    size_t* checked, std::vector<double>* widths);

}  // namespace perfbench

#endif  // OPINEDB_PERFBENCH_BENCH_H_
