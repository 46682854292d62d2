#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/string_util.h"
#include "core/columnar.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/result_json.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "server/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

using opinedb::server::JsonValue;
namespace core = opinedb::core;
namespace datagen = opinedb::datagen;

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, sizeof(regs));
  return std::string(opinedb::Trim(brand));
#else
  return "unknown";
#endif
}

}  // namespace

double ErrorRate(const Outcome& outcome) {
  return static_cast<double>(outcome.failed) /
         static_cast<double>(std::max<uint64_t>(1, outcome.attempted));
}

// ------------------------------------------------------------- host.

HostInfo DetectHost() {
  HostInfo host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.cpu_model = CpuModel();
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  host.llc_bytes = llc > 0 ? static_cast<uint64_t>(llc) : 0;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.cxx_flags = PERFBENCH_CXX_FLAGS;
  host.compiler = __VERSION__;
  return host;
}

std::string HostBlockJson(const HostInfo& host, const RunOptions& options) {
  std::string out = "{\"nproc\": " + std::to_string(host.nproc);
  out += ", \"cpu_model\": ";
  opinedb::JsonEscapeAppend(host.cpu_model, &out);
  out += ", \"llc_bytes\": " + std::to_string(host.llc_bytes);
  out += ", \"build_type\": ";
  opinedb::JsonEscapeAppend(host.build_type, &out);
  out += ", \"cxx_flags\": ";
  opinedb::JsonEscapeAppend(host.cxx_flags, &out);
  out += ", \"compiler\": ";
  opinedb::JsonEscapeAppend(host.compiler, &out);
  out += ", \"git_sha\": ";
  opinedb::JsonEscapeAppend(options.git_sha, &out);
  out += ", \"source_sha256\": ";
  opinedb::JsonEscapeAppend(options.source_hash, &out);
  out += "}";
  return out;
}

double MeasureReadGbps() {
  const HostInfo host = DetectHost();
  const unsigned threads = host.nproc;
  const uint64_t bytes =
      std::max<uint64_t>(4 * host.llc_bytes, uint64_t{256} << 20);
  const size_t n = static_cast<size_t>(bytes / sizeof(uint64_t));
  std::unique_ptr<uint64_t[]> data(new uint64_t[n]);
  const size_t slice = (n + threads - 1) / threads;
  auto run = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      const size_t lo = std::min(n, t * slice);
      const size_t hi = std::min(n, lo + slice);
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& thread : pool) thread.join();
  };
  // First touch by the reading threads places pages the way a parallel
  // scan sees them.
  run([&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) data[i] = i;
  });
  std::atomic<uint64_t> sink{0};
  double best_s = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 4; ++pass) {
    const auto start = Clock::now();
    run([&](size_t lo, size_t hi) {
      uint64_t a = 0, b = 0, c = 0, d = 0;
      size_t i = lo;
      for (; i + 4 <= hi; i += 4) {
        a += data[i];
        b += data[i + 1];
        c += data[i + 2];
        d += data[i + 3];
      }
      for (; i < hi; ++i) a += data[i];
      sink.fetch_add(a + b + c + d, std::memory_order_relaxed);
    });
    best_s = std::min(best_s, SecondsSince(start));
  }
  return static_cast<double>(n * sizeof(uint64_t)) / best_s / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------- hotel seed.

// The hotel seed database of the repository's experiment benches: 120
// entities with 25-60 reviews each, a 190-predicate pool, seed 42.
HotelInputs MakeHotelInputs() {
  HotelInputs inputs;
  datagen::GeneratorOptions generator;
  generator.num_entities = 120;
  generator.min_reviews_per_entity = 25;
  generator.max_reviews_per_entity = 60;
  generator.seed = 42;
  const datagen::DomainSpec spec = datagen::HotelDomain();
  inputs.domain = datagen::GenerateDomain(spec, generator);
  inputs.labeled = datagen::GenerateLabeledSentences(spec, 600, 42);
  inputs.pool = datagen::BuildPredicatePool(spec, 190, 43);
  for (const auto& predicate : inputs.pool) {
    inputs.pool_texts.push_back(predicate.text);
  }
  return inputs;
}

std::unique_ptr<core::OpineDb> BuildHotel(const HotelInputs& inputs,
                                          double* timed_s) {
  auto start = Clock::now();
  opinedb::extract::ExtractionPipeline pipeline(
      opinedb::extract::OpinionTagger::Train(inputs.labeled));
  auto db = core::OpineDb::Build(inputs.domain.corpus, inputs.domain.schema,
                                 pipeline, core::EngineOptions());
  (void)db->SetObjectiveTable(inputs.domain.objective_table);
  *timed_s += SecondsSince(start);
  const auto tuples = opinedb::eval::MakeMembershipTuples(
      *db, inputs.domain, inputs.pool, 1000, /*use_markers=*/true, 44);
  start = Clock::now();
  (void)db->TrainMembership(tuples, 45);
  *timed_s += SecondsSince(start);
  return db;
}

// ------------------------------------------------------------- http.

int Connection::Request(const std::string& method, const std::string& target,
                        const std::string& body, std::string* response_body) {
  if (!client_.connected() && !client_.Connect("127.0.0.1", port_).ok()) {
    return 0;
  }
  auto response = client_.Request(method, target, body);
  if (!response.ok()) {
    client_.Close();
    return 0;
  }
  if (opinedb::ToLower(std::string(response->Header("connection"))) ==
      "close") {
    client_.Close();
  }
  *response_body = std::move(response->body);
  return response->status;
}

std::string FetchMetrics(uint16_t port) {
  Connection connection(port);
  std::string body;
  if (connection.Request("GET", "/metrics", "", &body) != 200) return "";
  return body;
}

// ----------------------------------------------------------- traced.

bool TraceAggregate::Add(uint64_t request_id, uint32_t query, double rtt_ms,
                         const std::string& body, double bytes_per_entity) {
  auto doc = JsonValue::Parse(body);
  std::vector<Span> spans;
  if (!doc.ok() || !ParseEngineSpans(*doc, &spans) || spans.empty()) {
    return false;
  }
  const double watermark = doc->GetNumber("watermark").value_or(0.0);
  const JsonValue* results = doc->Find("results");
  const double num_results =
      results != nullptr ? static_cast<double>(results->items().size()) : 0;

  // The client span is the root; the engine's roots hang beneath it.
  // Engine spans carry offsets from their own buffer epoch, so they are
  // re-based to sit centred inside the round trip; self time does not
  // depend on the placement as long as children lie inside parents.
  uint32_t client_id = 1;
  double engine_ms = 0.0;
  double root_start = std::numeric_limits<double>::infinity();
  for (const Span& span : spans) {
    client_id = std::max(client_id, span.id + 1);
    if (span.parent_id == 0) {
      engine_ms += span.duration_ms;
      root_start = std::min(root_start, span.start_ms);
    }
  }
  const double shift =
      std::max(0.0, (rtt_ms - engine_ms) / 2.0) - root_start;
  for (Span& span : spans) {
    span.start_ms += shift;
    if (span.parent_id == 0) span.parent_id = client_id;
  }
  Span client;
  client.id = client_id;
  client.name = "client.query";
  client.duration_ms = rtt_ms;
  spans.push_back(client);
  const std::vector<double> self = SelfTimes(spans);

  rtt_ms_.push_back(rtt_ms);
  outside_ms_.push_back(self.back());
  entities_ += watermark;
  results_ += num_results;
  double score_ms = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    duration_ms_[spans[i].name].push_back(spans[i].duration_ms);
    self_ms_[spans[i].name].push_back(self[i]);
    if (spans[i].name == "score") score_ms += spans[i].duration_ms;
  }
  if (score_ms > 0.0) scan_bytes_ += watermark * bytes_per_entity;
  if (lines_.size() >= kMaxSpanLines) return true;
  std::string line = "{\"request\": " + std::to_string(request_id) +
                     ", \"query\": " + std::to_string(query) +
                     ", \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (i > 0) line += ", ";
    line += "{\"id\": " + std::to_string(span.id) +
            ", \"parent\": " + std::to_string(span.parent_id) +
            ", \"name\": ";
    opinedb::JsonEscapeAppend(span.name, &line);
    line += ", \"start_ms\": " + FormatNumber(span.start_ms) +
            ", \"duration_ms\": " + FormatNumber(span.duration_ms) +
            ", \"self_ms\": " + FormatNumber(self[i]) + "}";
  }
  line += "]}";
  lines_.push_back(std::move(line));
  return true;
}

void TraceAggregate::Merge(TraceAggregate&& other) {
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&rtt_ms_, other.rtt_ms_);
  append(&outside_ms_, other.outside_ms_);
  for (const auto& [name, values] : other.duration_ms_) {
    append(&duration_ms_[name], values);
  }
  for (const auto& [name, values] : other.self_ms_) {
    append(&self_ms_[name], values);
  }
  entities_ += other.entities_;
  results_ += other.results_;
  scan_bytes_ += other.scan_bytes_;
  for (auto& line : other.lines_) {
    if (lines_.size() < kMaxSpanLines) lines_.push_back(std::move(line));
  }
  other = TraceAggregate();
}

void TraceAggregate::Finish(const MetricsSnapshot& delta, double read_gbps,
                            Report* report,
                            std::vector<std::string>* notes) const {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto durations = [&](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> kEmpty;
    auto it = duration_ms_.find(name);
    return it == duration_ms_.end() ? kEmpty : it->second;
  };
  auto p50 = [&](const std::string& name) {
    return NearestRank(durations(name), 0.5);
  };
  const double engine_total = Sum(durations("execute_query"));
  auto share = [&](const std::string& name) {
    return engine_total > 0.0 ? Sum(durations(name)) / engine_total : nan;
  };
  const size_t n = rtt_ms_.size();

  report->Add("server.outside_engine_p50_ms",
              GuardedPercentile("server.outside_engine", outside_ms_, 0.5),
              "ms", n);
  report->Add("server.outside_engine_p99_ms",
              GuardedPercentile("server.outside_engine", outside_ms_, 0.99),
              "ms", n);
  report->Add("server.shed", Counter(delta, "server.shed"), "count");
  report->Add("plan.dense_scan", Counter(delta, "engine.plan.dense_scan"),
              "count");
  report->Add("plan.filtered_scan",
              Counter(delta, "engine.plan.filtered_scan"), "count");
  report->Add("plan.ta_topk", Counter(delta, "engine.plan.ta_topk"),
              "count");

  report->Add("interpret.p50_ms", p50("interpret"), "ms",
              durations("interpret").size());
  report->Add("interpret.share", share("interpret"), "ratio", n);
  const double calls = Counter(delta, "interpreter.calls");
  for (const char* stage : {"word2vec", "cooccurrence", "text_fallback"}) {
    const std::string counter = std::string("interpreter.stage_") + stage;
    report->Add(counter, calls > 0 ? Counter(delta, counter) / calls : nan,
                "ratio", static_cast<size_t>(calls));
  }
  report->Add("index.postings_per_query",
              n > 0 ? Counter(delta, "index.postings_scanned") /
                          static_cast<double>(n)
                    : nan,
              "count", n);

  const double score_s = Sum(durations("score")) / 1e3;
  const double gbps = score_s > 0.0 ? scan_bytes_ / score_s / 1e9 : nan;
  report->Add("score.p50_ms", p50("score"), "ms", durations("score").size());
  report->Add("score.share", share("score"), "ratio", n);
  report->Add("score.entities_per_s",
              score_s > 0.0 ? entities_ / score_s : nan, "1/s", n);
  report->Add("score.gbps", gbps, "GB/s", n);
  report->Add("score.bw_fraction", gbps / read_gbps, "ratio", n);
  report->Add("filter.p50_ms", p50("objective_filter"), "ms",
              durations("objective_filter").size());
  report->Add("rank.p50_ms", p50("combine_rank"), "ms",
              durations("combine_rank").size());
  report->Add("rank.share", share("combine_rank"), "ratio", n);
  report->Add("pool.parallel_for_p50_ms", p50("pool.parallel_for"), "ms",
              durations("pool.parallel_for").size());
  report->Add("exec.entities_per_result",
              results_ > 0.0 ? entities_ / results_ : nan, "ratio", n);
  {
    auto it = self_ms_.find("execute_query");
    const double unattributed =
        it == self_ms_.end() || engine_total <= 0.0
            ? nan
            : Sum(it->second) / engine_total;
    report->Add("engine.unattributed_share", unattributed, "ratio", n);
  }

  struct CacheLayer {
    const char* name;
    const char* hit;
    const char* miss;
  };
  for (const CacheLayer& layer :
       {CacheLayer{"result", "engine.cache.hit", "engine.cache.miss"},
        CacheLayer{"interp", "engine.cache.interp_hit",
                   "engine.cache.interp_miss"},
        CacheLayer{"degree", "degree_cache.hits", "degree_cache.misses"}}) {
    const double hits = Counter(delta, layer.hit);
    const double attempts = hits + Counter(delta, layer.miss);
    const std::string prefix = std::string("cache.") + layer.name;
    report->Add(prefix + ".hit_rate", attempts > 0 ? hits / attempts : 0.0,
                "ratio", static_cast<size_t>(attempts));
    report->Add(prefix + ".attempts", attempts, "count");
  }

  // Per-span table: count, p50 duration, p50 self time and the share of
  // all client time each span spends in itself.
  const double client_total = Sum(rtt_ms_);
  char row[200];
  notes->push_back("span self times over " + std::to_string(n) +
                   " traced requests:");
  std::snprintf(row, sizeof(row), "  %-32s %8s %12s %12s %10s", "span",
                "count", "p50_ms", "self_p50_ms", "self_share");
  notes->push_back(row);
  for (const auto& [name, values] : duration_ms_) {
    const auto& self = self_ms_.at(name);
    std::snprintf(row, sizeof(row), "  %-32s %8zu %12.4f %12.4f %10.4f",
                  name.c_str(), values.size(), NearestRank(values, 0.5),
                  NearestRank(self, 0.5),
                  client_total > 0.0 ? Sum(self) / client_total : 0.0);
    notes->push_back(row);
  }
}

double ScanBytesPerEntity(const core::OpineDb& db,
                          const core::QueryResult& result) {
  const core::ColumnarSummaryStore* store = db.columnar_store();
  if (store == nullptr) return 0.0;
  double bytes = 0.0;
  for (const auto& interpretation : result.interpretations) {
    for (const auto& atom : interpretation.atoms) {
      if (atom.attribute < 0 ||
          static_cast<size_t>(atom.attribute) >= store->num_attributes()) {
        continue;
      }
      bytes += static_cast<double>(
          store->attribute(static_cast<size_t>(atom.attribute))
              .scan_bytes_per_entity());
    }
  }
  return bytes;
}

// ------------------------------------------------------------ probes.

void AddQueryProbes(const core::OpineDb& db,
                    const std::vector<std::string>& catalogue,
                    Report* report) {
  constexpr size_t kSamples = 2000;
  std::vector<double> parse_us, plan_us, render_us;
  std::vector<core::SubjectiveQuery> parsed;
  for (const auto& sql : catalogue) {
    auto query = core::ParseSubjectiveSql(sql);
    if (query.ok()) parsed.push_back(std::move(*query));
  }
  for (size_t i = 0; i < kSamples; ++i) {
    const std::string& sql = catalogue[i % catalogue.size()];
    const std::string body = QueryJson(sql);
    const auto start = Clock::now();
    auto doc = JsonValue::Parse(body);
    auto query = core::ParseSubjectiveSql(doc->GetString("sql").value_or(""));
    parse_us.push_back(MillisBetween(start, Clock::now()) * 1e3);
    if (!query.ok()) throw std::runtime_error("probe: unparseable " + sql);
  }
  core::PlannerContext context;
  context.num_entities = db.corpus().num_entities();
  context.variant = db.options().variant;
  for (size_t i = 0; i < kSamples && !parsed.empty(); ++i) {
    const auto& query = parsed[i % parsed.size()];
    const auto start = Clock::now();
    const core::LogicalPlan logical = core::AnalyzeQuery(query);
    core::SelectPlan(query, logical, context);
    plan_us.push_back(MillisBetween(start, Clock::now()) * 1e3);
  }
  for (size_t i = 0; i < std::min<size_t>(catalogue.size(), 200); ++i) {
    auto result = db.Execute(catalogue[i]);
    if (!result.ok()) continue;
    const auto start = Clock::now();
    core::ResultToJson(*result);
    render_us.push_back(MillisBetween(start, Clock::now()) * 1e3);
  }
  report->Add("request.parse_us", NearestRank(parse_us, 0.5), "us",
              parse_us.size());
  report->Add("plan.p50_us", NearestRank(plan_us, 0.5), "us",
              plan_us.size());
  report->Add("render.p50_us", NearestRank(render_us, 0.5), "us",
              render_us.size());
}

void AddTrafficProperties(const std::vector<std::string>& catalogue,
                          const std::vector<uint32_t>& sent, Report* report,
                          std::vector<std::string>* notes) {
  std::vector<std::string> canonical(catalogue.size());
  std::vector<bool> filtered(catalogue.size(), false);
  std::vector<std::vector<std::string>> predicates(catalogue.size());
  for (size_t q = 0; q < catalogue.size(); ++q) {
    auto query = core::ParseSubjectiveSql(catalogue[q]);
    if (!query.ok()) continue;
    canonical[q] = core::CanonicalQueryKey(*query);
    for (const auto& condition : query->conditions) {
      if (condition.kind == core::Condition::Kind::kObjective) {
        filtered[q] = true;
      } else {
        predicates[q].push_back(condition.subjective);
      }
    }
  }
  std::vector<std::string> keys;
  keys.reserve(sent.size());
  size_t num_filtered = 0;
  std::set<std::string> distinct;
  std::set<uint32_t> distinct_queries;
  for (const uint32_t q : sent) {
    keys.push_back(canonical[q]);
    if (filtered[q]) ++num_filtered;
    distinct_queries.insert(q);
    for (const auto& p : predicates[q]) distinct.insert(p);
  }
  const double n = static_cast<double>(sent.size());
  report->Add("workload.repeat_share", RepeatShare(keys), "ratio",
              sent.size());
  report->Add("workload.filtered_share",
              n > 0 ? static_cast<double>(num_filtered) / n : 0.0, "ratio",
              sent.size());
  report->Add("workload.distinct_predicates",
              static_cast<double>(distinct.size()), "count", sent.size());
  notes->push_back("traffic: " + std::to_string(sent.size()) +
                   " requests over " + std::to_string(distinct_queries.size()) +
                   " distinct queries of a " +
                   std::to_string(catalogue.size()) + "-query catalogue");
}

uint64_t CheckServedBodies(
    const core::OpineDb& db, const std::vector<std::string>& catalogue,
    const std::vector<std::vector<std::string>>& served_by_connection,
    size_t* checked, std::vector<double>* widths) {
  uint64_t mismatches = 0;
  *checked = 0;
  widths->assign(catalogue.size(), 0.0);
  for (size_t q = 0; q < catalogue.size(); ++q) {
    auto result = db.Execute(catalogue[q]);
    if (!result.ok()) {
      ++mismatches;
      continue;
    }
    (*widths)[q] = ScanBytesPerEntity(db, *result);
    const std::string embedded = core::ResultToJson(*result);
    for (const auto& served : served_by_connection) {
      if (q >= served.size() || served[q].empty()) continue;
      ++*checked;
      if (served[q] != embedded) ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench
