// ingest_mix: writes beside reads on the hotel seed primary, with its WAL
// on local disk and an in-process follower pulling over loopback.
//
// One connection sends a fixed number of 8-review POST /reviews batches
// back to back (a fixed count, because the per-batch cost rises with the
// corpus) and POST /admin/checkpoint every kCheckpointEvery batches, so
// the fold and the follower's checkpoint run several cycles. Two
// connections send /query open loop at kQueryRate, timed from when each
// request was due, so query latency shows the wait behind the exclusive
// ingest and checkpoint sections. A watcher thread times replication
// lag: from a batch's acknowledgement until ReplicationClient::offset()
// reaches the primary's acknowledged WAL bytes for it.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/columnar.h"
#include "core/result_json.h"
#include "repl/client.h"
#include "repl/source.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

namespace core = opinedb::core;
namespace fs = std::filesystem;

constexpr size_t kBatchSize = 8;
/// Batches per second of --seconds: a fixed count per run length (about
/// what the writer sends back to back in that time on a 4-CPU host), so
/// every commit ingests the same reviews.
constexpr double kBatchesPerSecond = 75.0;
constexpr size_t kCheckpointEvery = 100;
constexpr double kQueryRate = 200.0;
constexpr size_t kProbeQueries = 24;

/// Primary, its front door and replication source, and the follower.
struct Pair {
  std::unique_ptr<core::OpineDb> primary;
  std::unique_ptr<core::OpineDb> follower;
  std::unique_ptr<opinedb::repl::ReplicationSource> source;
  std::unique_ptr<opinedb::server::QueryServer> server;
  std::unique_ptr<opinedb::repl::ReplicationClient> client;

  void Reset() {
    if (client != nullptr) client->Stop();
    client.reset();
    if (server != nullptr) server->Stop();
    server.reset();
    source.reset();
    follower.reset();
    primary.reset();
  }
  ~Pair() { Reset(); }
};

struct Inputs {
  HotelInputs hotel;
  std::vector<std::vector<ReviewInput>> batches;
  std::vector<std::string> batch_bodies;
  std::vector<std::string> catalogue;
  std::vector<std::string> query_bodies;
  std::vector<uint32_t> stream;
  /// Fixed (seed-independent) follower-vs-primary probe set.
  std::vector<std::string> probes;
};

Inputs MakeInputs(uint64_t seed, size_t num_batches) {
  Inputs inputs;
  inputs.hotel = MakeHotelInputs();
  const size_t entities = inputs.hotel.domain.entities.size();
  const size_t needed = num_batches * kBatchSize;
  opinedb::datagen::GeneratorOptions generator;
  generator.num_entities = entities;
  generator.min_reviews_per_entity = needed / entities + 1;
  generator.max_reviews_per_entity = needed / entities + 11;
  generator.seed = seed ^ 0x1265'0004ULL;
  const auto fresh = opinedb::datagen::GenerateDomain(
      opinedb::datagen::HotelDomain(), generator);
  std::vector<size_t> order(fresh.corpus.num_reviews());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix64 rng(seed ^ 0x1265'0005ULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  for (size_t b = 0; b < num_batches; ++b) {
    std::vector<ReviewInput> batch;
    for (size_t i = 0; i < kBatchSize; ++i) {
      const auto& review = fresh.corpus.reviews()[order[b * kBatchSize + i]];
      batch.push_back(ReviewInput{review.entity, 100000 + review.reviewer,
                                  review.date, review.body});
    }
    inputs.batch_bodies.push_back(ReviewBatchJson(batch));
    inputs.batches.push_back(std::move(batch));
  }
  const std::string table = inputs.hotel.domain.schema.objective_table;
  inputs.catalogue =
      MakeServeReadCatalogue(inputs.hotel.pool_texts, table, 200, seed);
  for (const auto& sql : inputs.catalogue) {
    inputs.query_bodies.push_back(QueryJson(sql));
  }
  inputs.stream = MakeStreams(inputs.catalogue.size(), 1, 1 << 16, 0.9,
                              seed)[0];
  inputs.probes = MakeServeReadCatalogue(inputs.hotel.pool_texts, table,
                                         kProbeQueries, 0);
  return inputs;
}

/// Builds the pair; returns the seconds spent in the program's set-up
/// calls (both builds, EnableWal, server Start, follower Initialize and
/// catch-up, warm-up).
double SetUp(const Inputs& inputs, const std::string& dir, Pair* pair) {
  const fs::path root(dir);
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root / "primary");
  fs::create_directories(root / "follower");

  double timed = 0.0;
  pair->primary = BuildHotel(inputs.hotel, &timed);
  pair->follower = BuildHotel(inputs.hotel, &timed);
  const auto start = Clock::now();
  if (!pair->primary->EnableWal((root / "primary").string()).ok()) {
    throw std::runtime_error("EnableWal failed on the primary");
  }
  pair->source =
      std::make_unique<opinedb::repl::ReplicationSource>(pair->primary.get());
  opinedb::server::QueryServerOptions server_options;
  // Writer, two query connections, the follower's pull connection and
  // a /metrics scrape each hold a worker.
  server_options.httpd.num_workers = 6;
  server_options.replication_source = pair->source.get();
  pair->server = std::make_unique<opinedb::server::QueryServer>(
      pair->primary.get(), server_options);
  if (!pair->server->Start().ok()) {
    throw std::runtime_error("primary server failed to start");
  }
  opinedb::repl::ReplicationClientOptions client_options;
  client_options.primary_port = pair->server->port();
  pair->client = std::make_unique<opinedb::repl::ReplicationClient>(
      pair->follower.get(), (root / "follower").string(), client_options);
  if (!pair->client->Initialize().ok()) {
    throw std::runtime_error("follower Initialize failed");
  }
  for (;;) {
    auto caught_up = pair->client->SyncOnce();
    if (!caught_up.ok()) throw std::runtime_error("follower catch-up failed");
    if (*caught_up) break;
  }
  if (!pair->client->Start().ok()) {
    throw std::runtime_error("follower pull loop failed to start");
  }
  Connection warmup(pair->server->port());
  std::string response;
  for (size_t i = 0; i < 200; ++i) {
    const uint32_t q = inputs.stream[inputs.stream.size() - 1 - i];
    if (warmup.Request("POST", "/query", inputs.query_bodies[q], &response) !=
        200) {
      throw std::runtime_error("warm-up query failed");
    }
  }
  return timed + SecondsSince(start);
}

/// Times replication lag: each acknowledged batch is pushed with the
/// primary's acknowledged stream offset; the watcher resolves it once
/// the follower's offset reaches that point.
class LagWatcher {
 public:
  explicit LagWatcher(const opinedb::repl::ReplicationClient* client)
      : client_(client), thread_([this] { Run(); }) {}
  ~LagWatcher() { Finish(); }
  LagWatcher(const LagWatcher&) = delete;
  LagWatcher& operator=(const LagWatcher&) = delete;

  void Push(Clock::time_point acked, uint64_t offset) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back({acked, offset});
  }

  /// Waits until every pushed batch has reached the follower; false on
  /// timeout.
  bool WaitDrained(double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return drained_.wait_for(
        lock, std::chrono::duration<double>(timeout_s),
        [this] { return pending_.empty(); });
  }

  /// Stops the thread; returns the lag samples (ms).
  std::vector<double> Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    if (thread_.joinable()) thread_.join();
    return lags_;
  }

 private:
  struct Pending {
    Clock::time_point acked;
    uint64_t offset;
  };

  void Run() {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return;
        if (!pending_.empty()) {
          const uint64_t reached = client_->offset();
          const auto now = Clock::now();
          while (!pending_.empty() && pending_.front().offset <= reached) {
            lags_.push_back(MillisBetween(pending_.front().acked, now));
            pending_.pop_front();
          }
          if (pending_.empty()) drained_.notify_all();
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  const opinedb::repl::ReplicationClient* client_;
  std::mutex mu_;
  std::condition_variable drained_;
  std::deque<Pending> pending_;
  std::vector<double> lags_;
  bool stop_ = false;
  std::thread thread_;  // Last: starts after the members it uses.
};

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<double> ingest_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> lag_ms;
  /// Successful queries in completion order: latency from the due time,
  /// completion time, and how late the generator sent them.
  std::vector<double> query_ms;
  std::vector<double> query_done_ms;
  std::vector<double> late_ms;
  std::vector<uint32_t> sent;
  /// Acknowledged WAL record payload sizes (bytes).
  std::vector<double> payload_bytes;
  double wal_bytes = 0.0;
  double review_bytes = 0.0;
  double writer_s = 0.0;
  uint64_t reviews = 0;
  double reviews_before = 0.0;
  double reviews_after = 0.0;
  std::vector<std::string> notes;
  TraceAggregate trace;
};

int HealthEpoch(uint16_t port, double* epoch) {
  Connection connection(port);
  std::string body;
  const int status = connection.Request("GET", "/healthz", "", &body);
  auto doc = opinedb::server::JsonValue::Parse(body);
  if (status != 200 || !doc.ok()) return status == 200 ? 0 : status;
  *epoch = doc->GetNumber("cache_epoch").value_or(-1.0);
  return status;
}

/// Runs the timed phase on a set-up pair. The query senders run until the
/// writer is done and at least `seconds` have passed, so their sample
/// count does not shrink when ingest gets faster. `widths` (traced runs)
/// gives each catalogue query's columnar scan width for score.gbps.
PhaseResult RunPhase(const Inputs& inputs, Pair* pair, double seconds,
                     bool traced, const std::vector<double>& widths) {
  PhaseResult result;
  const uint16_t port = pair->server->port();
  core::OpineDb& primary = *pair->primary;
  result.reviews_before = static_cast<double>(primary.corpus().num_reviews());
  double epoch = -1.0;
  if (HealthEpoch(port, &epoch) != 200) {
    throw std::runtime_error("/healthz failed before the timed phase");
  }

  LagWatcher watcher(pair->client.get());
  std::atomic<bool> writer_done{false};
  std::atomic<bool> abort_senders{false};
  const auto start = Clock::now();

  // Query senders: open loop, request i due at start + i / kQueryRate.
  std::vector<std::vector<OpenLoopSample>> samples(2);
  std::vector<TraceAggregate> traces(2);
  std::atomic<uint64_t> trace_failures{0};
  std::vector<std::thread> senders;
  for (size_t c = 0; c < 2; ++c) {
    senders.emplace_back([&, c] {
      Connection connection(port);
      std::string response;
      auto send = [&](size_t i) {
        const uint32_t q = inputs.stream[i % inputs.stream.size()];
        const auto begin = Clock::now();
        const int status = connection.Request(
            "POST", traced ? "/query?trace=1" : "/query",
            inputs.query_bodies[q], &response);
        if (status != 200) return false;
        if (traced && !traces[c].Add(i, q, MillisBetween(begin, Clock::now()),
                                     response, widths[q])) {
          trace_failures.fetch_add(1);
        }
        return true;
      };
      samples[c] = RunOpenLoop(start, 1e3 / kQueryRate, c, 2,
                               std::numeric_limits<double>::infinity(), send,
                               [&] {
                                 return abort_senders.load() ||
                                        (writer_done.load() &&
                                         SecondsSince(start) >= seconds);
                               });
    });
  }
  // Stops and joins the senders when a failed check throws.
  struct JoinSenders {
    std::atomic<bool>* abort;
    std::vector<std::thread>* threads;
    ~JoinSenders() {
      abort->store(true);
      for (auto& thread : *threads) {
        if (thread.joinable()) thread.join();
      }
    }
  } join_senders{&abort_senders, &senders};

  // Writer: the fixed batch sequence, checkpoints between.
  Connection writer(port);
  std::string response;
  uint64_t previous_ack = primary.wal_acknowledged_bytes();
  double barrier_s = 0.0;
  for (size_t b = 0; b < inputs.batch_bodies.size(); ++b) {
    const auto begin = Clock::now();
    const int status =
        writer.Request("POST", "/reviews", inputs.batch_bodies[b], &response);
    const auto acked = Clock::now();
    ++result.attempted;
    if (status != 200) {
      ++result.failed;
      continue;
    }
    result.ingest_ms.push_back(MillisBetween(begin, acked));
    auto doc = opinedb::server::JsonValue::Parse(response);
    const double acked_epoch =
        doc.ok() ? doc->GetNumber("cache_epoch").value_or(-1.0) : -1.0;
    if (acked_epoch != epoch + 1.0) ++result.mismatches;
    epoch = acked_epoch;
    const uint64_t ack = primary.wal_acknowledged_bytes();
    watcher.Push(acked, ack - opinedb::storage::kWalHeaderSize);
    result.payload_bytes.push_back(static_cast<double>(
        ack - previous_ack - opinedb::storage::kWalRecordHeaderSize));
    result.wal_bytes += static_cast<double>(ack - previous_ack);
    previous_ack = ack;
    result.reviews += kBatchSize;
    for (const auto& review : inputs.batches[b]) {
      result.review_bytes += static_cast<double>(review.body.size());
    }

    if ((b + 1) % kCheckpointEvery == 0 &&
        b + 1 < inputs.batch_bodies.size()) {
      // Resolve the lag of every batch in this segment before it
      // rotates; the wait is excluded from the writer's wall time.
      const auto barrier = Clock::now();
      if (!watcher.WaitDrained(30.0)) {
        throw std::runtime_error("follower did not catch up");
      }
      barrier_s += SecondsSince(barrier);
      const auto fold = Clock::now();
      ++result.attempted;
      if (writer.Request("POST", "/admin/checkpoint", "{}", &response) !=
          200) {
        ++result.failed;
        continue;
      }
      result.checkpoint_ms.push_back(MillisBetween(fold, Clock::now()));
      const auto rotate = Clock::now();
      while (pair->follower->snapshot_generation() !=
                 primary.snapshot_generation() ||
             pair->client->offset() != 0) {
        if (SecondsSince(rotate) > 30.0) {
          throw std::runtime_error("follower did not follow the checkpoint");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      barrier_s += SecondsSince(rotate);
      previous_ack = primary.wal_acknowledged_bytes();
    }
  }
  result.writer_s = SecondsSince(start) - barrier_s;
  writer_done.store(true);
  for (auto& sender : senders) sender.join();
  if (!watcher.WaitDrained(30.0)) {
    throw std::runtime_error("follower did not catch up at the end");
  }
  result.lag_ms = watcher.Finish();

  std::vector<OpenLoopSample> all = samples[0];
  all.insert(all.end(), samples[1].begin(), samples[1].end());
  std::sort(all.begin(), all.end(),
            [](const OpenLoopSample& a, const OpenLoopSample& b) {
              return a.done_ms < b.done_ms;
            });
  for (const OpenLoopSample& sample : all) {
    ++result.attempted;
    result.sent.push_back(inputs.stream[sample.index % inputs.stream.size()]);
    if (!sample.ok) {
      ++result.failed;
      continue;
    }
    result.query_ms.push_back(sample.latency_ms());
    result.query_done_ms.push_back(sample.done_ms);
    result.late_ms.push_back(sample.late_ms());
  }
  for (auto& trace : traces) result.trace.Merge(std::move(trace));
  result.failed += trace_failures.load();

  // The follower must have applied exactly the primary's stream, and
  // answer the probe set byte-identically.
  pair->client->Stop();
  if (pair->client->offset() + opinedb::storage::kWalHeaderSize !=
      primary.wal_acknowledged_bytes()) {
    ++result.mismatches;
    result.notes.push_back("follower offset differs from the primary's");
  }
  size_t probe_mismatches = 0;
  for (const auto& sql : inputs.probes) {
    auto on_primary = primary.Execute(sql);
    auto on_follower = pair->follower->Execute(sql);
    ++result.attempted;
    if (!on_primary.ok() || !on_follower.ok() ||
        core::ResultToJson(*on_primary) != core::ResultToJson(*on_follower)) {
      ++probe_mismatches;
    }
  }
  result.mismatches += probe_mismatches;
  result.failed += result.mismatches;
  result.reviews_after = static_cast<double>(primary.corpus().num_reviews());
  result.notes.push_back(
      "output check: " + std::to_string(result.ingest_ms.size()) +
      " acknowledged batches each raised cache_epoch by 1, follower probe "
      "set of " + std::to_string(inputs.probes.size()) + " queries: " +
      std::to_string(probe_mismatches) + " mismatches; " +
      std::to_string(result.mismatches) + " mismatches in all");
  return result;
}

/// In-process probes of the ingest layers, off the request path.
void AddIngestProbes(const Inputs& inputs, const PhaseResult& phase,
                     const core::OpineDb& primary, const std::string& dir,
                     const MetricsSnapshot& delta, Report* report) {
  // Extraction of one batch with the same trained tagger.
  opinedb::extract::ExtractionPipeline pipeline(
      opinedb::extract::OpinionTagger::Train(inputs.hotel.labeled));
  std::vector<double> extract_ms, columnar_ms, wal_ms;
  const size_t sampled = std::min<size_t>(inputs.batches.size(), 200);
  for (size_t b = 0; b < sampled; ++b) {
    const auto start = Clock::now();
    for (const auto& input : inputs.batches[b]) {
      opinedb::text::Review review;
      review.entity = input.entity;
      review.reviewer = input.reviewer;
      review.date = input.date;
      review.body = input.body;
      pipeline.ExtractFromReview(review);
    }
    extract_ms.push_back(MillisBetween(start, Clock::now()));
  }
  // Columnar delta update of one batch's touched entities, on a mirror
  // of the primary's final tables.
  core::ColumnarSummaryStore store(primary.tables(),
                                   primary.corpus().num_entities(), nullptr);
  for (size_t b = 0; b < sampled; ++b) {
    std::vector<opinedb::text::EntityId> touched;
    for (const auto& review : inputs.batches[b]) {
      touched.push_back(review.entity);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    const auto start = Clock::now();
    store.UpdateEntities(primary.tables(), touched);
    columnar_ms.push_back(MillisBetween(start, Clock::now()));
  }
  // WAL append + fsync of the acknowledged payload sizes, on a scratch
  // segment beside the real one.
  {
    const std::string path = (fs::path(dir) / "wal_probe.log").string();
    std::error_code ec;
    fs::remove(path, ec);
    auto writer = opinedb::storage::WalWriter::Open(path, 0);
    if (!writer.ok()) throw std::runtime_error("WAL probe open failed");
    for (size_t i = 0; i < std::max(phase.payload_bytes.size(),
                                    kMinSamplesForP99);
         ++i) {
      const std::string payload(
          static_cast<size_t>(
              phase.payload_bytes[i % phase.payload_bytes.size()]),
          'x');
      const auto start = Clock::now();
      if (!writer->Append(payload).ok()) {
        throw std::runtime_error("WAL probe append failed");
      }
      wal_ms.push_back(MillisBetween(start, Clock::now()));
    }
    writer->Close();
    fs::remove(path, ec);
  }
  double apply_n = 0.0;
  const double apply_p50 =
      HistogramPercentile(delta, "engine.ingest.apply_ms", 0.5, &apply_n);
  const double apply_p99 =
      HistogramPercentile(delta, "engine.ingest.apply_ms", 0.99, &apply_n);
  if (apply_n < static_cast<double>(kMinSamplesForP99)) {
    throw SampleGuardError("sample-size guard: engine.ingest.apply_ms has " +
                           std::to_string(static_cast<long>(apply_n)) +
                           " samples");
  }
  const double extract_p50 = NearestRank(extract_ms, 0.5);
  const double columnar_p50 = NearestRank(columnar_ms, 0.5);
  const double wal_p50 = GuardedPercentile("wal.append", wal_ms, 0.5);
  // The bucket-interpolated p50 can land anywhere inside a 5-10 or
  // 10-50 ms bucket, so the derived figures use the histogram's exact
  // mean (primary and follower applies alike).
  const double apply_mean = HistogramMean(delta, "engine.ingest.apply_ms");
  report->Add("ingest.apply_p50_ms", apply_p50, "ms",
              static_cast<size_t>(apply_n));
  report->Add("ingest.apply_mean_ms", apply_mean, "ms",
              static_cast<size_t>(apply_n));
  report->Add("ingest.apply_p99_ms", apply_p99, "ms",
              static_cast<size_t>(apply_n));
  report->Add("ingest.outside_engine_p50_ms",
              GuardedPercentile("ingest", phase.ingest_ms, 0.5) - apply_mean,
              "ms", phase.ingest_ms.size());
  report->Add("extract.batch_ms", extract_p50, "ms", extract_ms.size());
  report->Add("columnar.delta_update_ms", columnar_p50, "ms",
              columnar_ms.size());
  report->Add("ingest.residual_ms",
              apply_mean - wal_p50 - extract_p50 - columnar_p50, "ms",
              static_cast<size_t>(apply_n));
  report->Add("wal.append_p50_ms", wal_p50, "ms", wal_ms.size());
  report->Add("wal.append_p99_ms",
              GuardedPercentile("wal.append", wal_ms, 0.99), "ms",
              wal_ms.size());
  report->Add("wal.bytes_per_review_byte",
              phase.wal_bytes / phase.review_bytes, "ratio",
              phase.ingest_ms.size());
  report->Add("checkpoint.p50_ms", NearestRank(phase.checkpoint_ms, 0.5), "ms",
              phase.checkpoint_ms.size());
  report->Add("snapshot.bytes_written",
              Counter(delta, "storage.snapshot.bytes_written"), "bytes");
  const double fetches = Counter(delta, "repl.source.fetches");
  report->Add("repl.fetches", fetches, "count");
  report->Add("repl.records_per_fetch",
              fetches > 0 ? Counter(delta, "repl.source.records_shipped") /
                                fetches
                          : 0.0,
              "ratio");
  report->Add("repl.bytes_per_review",
              Counter(delta, "repl.source.bytes_shipped") /
                  static_cast<double>(std::max<uint64_t>(1, phase.reviews)),
              "bytes");
  report->Add("repl.sync_failures", Counter(delta, "repl.client.sync_failures"),
              "count");
  report->Add("repl.divergence", Counter(delta, "repl.divergence"), "count");
}

}  // namespace

Outcome RunIngestMix(const RunOptions& options) {
  const size_t num_batches = static_cast<size_t>(
      std::max(1.0, std::round(kBatchesPerSecond * options.seconds)));
  const Inputs inputs = MakeInputs(options.seed, num_batches);
  const std::string dir = (fs::path(options.work_dir) / "ingest_mix").string();
  struct RemoveDir {
    std::string dir;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } remove_dir{dir};
  Outcome outcome;
  double read_gbps = std::numeric_limits<double>::quiet_NaN();
  if (options.trace) {
    read_gbps = MeasureReadGbps();
  }

  Pair pair;  // Declared after remove_dir: stopped before the files go.
  std::vector<double> setup_s;
  for (int rep = 0; rep < (options.trace ? 1 : 3); ++rep) {
    pair.Reset();
    setup_s.push_back(SetUp(inputs, dir, &pair));
  }
  PhaseResult plain = RunPhase(inputs, &pair, options.seconds,
                                /*traced=*/false, {});
  outcome.attempted = plain.attempted;
  outcome.failed = plain.failed;
  outcome.mismatches = plain.mismatches;
  outcome.notes = plain.notes;
  outcome.notes.push_back(
      "writer: " + std::to_string(plain.ingest_ms.size()) + " batches of " +
      std::to_string(kBatchSize) + " reviews, " +
      std::to_string(plain.checkpoint_ms.size()) + " checkpoints, corpus " +
      std::to_string(static_cast<long>(plain.reviews_before)) + " -> " +
      std::to_string(static_cast<long>(plain.reviews_after)) + " reviews");

  Report& report = outcome.report;
  const size_t n = plain.query_ms.size();
  const double query_p50 = GuardedPercentile("query", plain.query_ms, 0.5);
  auto add_ingest_headline = [&] {
    report.Add("ingest_reviews_per_s",
               static_cast<double>(plain.reviews) / plain.writer_s,
               "reviews/s", plain.ingest_ms.size());
    report.Add("ingest_p50_ms",
               BlockPercentile("ingest", plain.ingest_ms, 0.5), "ms",
               plain.ingest_ms.size());
    report.Add("ingest_p99_ms",
               BlockPercentile("ingest", plain.ingest_ms, 0.99), "ms",
               plain.ingest_ms.size());
    report.Add("repl_lag_p50_ms",
               BlockPercentile("repl_lag", plain.lag_ms, 0.5), "ms",
               plain.lag_ms.size());
    report.Add("repl_lag_p99_ms",
               BlockPercentile("repl_lag", plain.lag_ms, 0.99), "ms",
               plain.lag_ms.size());
  };
  if (!options.trace) {
    report.Add("setup_s", Median(setup_s), "s", setup_s.size());
    report.Add("query_qps",
               WindowedRate(plain.query_done_ms, kRateWindows),
               "req/s", n);
    report.Add("query_p50_ms", BlockPercentile("query", plain.query_ms, 0.5),
               "ms", n);
    report.Add("query_p99_ms", BlockPercentile("query", plain.query_ms, 0.99),
               "ms", n);
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    add_ingest_headline();
    report.Add("error_rate", ErrorRate(outcome), "ratio", outcome.attempted);
    AddTrafficProperties(inputs.catalogue, plain.sent, &report,
                         &outcome.notes);
    return outcome;
  }

  // Traced run: a fresh pair, the same inputs, both engines at full.
  pair.Reset();
  SetUp(inputs, dir, &pair);
  std::vector<double> widths;
  for (const auto& sql : inputs.catalogue) {
    auto result = pair.primary->Execute(sql);
    widths.push_back(result.ok() ? ScanBytesPerEntity(*pair.primary, *result)
                                 : 0.0);
  }
  pair.primary->SetTraceLevel(opinedb::obs::TraceLevel::kFull);
  pair.follower->SetTraceLevel(opinedb::obs::TraceLevel::kFull);
  MetricsSnapshot before, after;
  ParseMetrics(FetchMetrics(pair.server->port()), &before);
  PhaseResult traced = RunPhase(inputs, &pair, options.seconds,
                                  /*traced=*/true, widths);
  ParseMetrics(FetchMetrics(pair.server->port()), &after);
  outcome.attempted += traced.attempted;
  outcome.failed += traced.failed;
  outcome.mismatches += traced.mismatches;
  const MetricsSnapshot delta = MetricsDelta(before, after);

  report.Add("query_p50_ms", BlockPercentile("query", plain.query_ms, 0.5),
             "ms", n);
  traced.trace.Finish(delta, read_gbps, &report, &outcome.notes);
  AddQueryProbes(*pair.primary, inputs.catalogue, &report);
  AddTrafficProperties(inputs.catalogue, plain.sent, &report, &outcome.notes);
  report.Add("workload.corpus_reviews_before", plain.reviews_before, "count");
  report.Add("workload.corpus_reviews_after", plain.reviews_after, "count");
  AddIngestProbes(inputs, traced, *pair.primary, dir, delta, &report);
  report.Add("host.read_gbps", read_gbps, "GB/s");
  report.Add("loadgen.late_p99_ms",
             GuardedPercentile("loadgen.late", plain.late_ms, 0.99), "ms",
             plain.late_ms.size());
  report.Add("obs.trace_overhead_pct",
             (GuardedPercentile("traced query", traced.query_ms, 0.5) /
                  query_p50 -
              1.0) * 100.0,
             "%", traced.query_ms.size());
  report.Add("error_rate", ErrorRate(outcome), "ratio", outcome.attempted);
  add_ingest_headline();
  outcome.span_lines = traced.trace.TakeSpanLines();
  return outcome;
}

}  // namespace perfbench
