// Scale benchmark (docs/SCALING.md): builds a synthesized large fixture
// (datagen::BuildScaledFixture — full-size summaries and objective rows,
// models trained on a small vocab sub-corpus) and measures subjective
// scoring throughput, single threaded and at hardware concurrency.
// Writes BENCH_scale.json with dense-scoring entities/sec and achieved
// scan GB/s. Entity count: OPINEDB_SCALE_ENTITIES (default 100000);
// repeats: OPINEDB_REPEATS (default 3).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/columnar.h"
#include "core/engine.h"
#include "datagen/scale.h"

namespace opinedb {
namespace {

struct SweepPoint {
  size_t threads = 1;
  double dense_scoring_ms = 0.0;
  double dense_total_ms = 0.0;
  uint64_t dense_entities = 0;
  double dense_scan_bytes = 0.0;
  double filtered_total_ms = 0.0;

  double EntitiesPerSec() const {
    return dense_scoring_ms > 0.0
               ? static_cast<double>(dense_entities) /
                     (dense_scoring_ms / 1000.0)
               : 0.0;
  }
  double ScanGBps() const {
    return dense_scoring_ms > 0.0
               ? dense_scan_bytes / (dense_scoring_ms / 1000.0) / 1e9
               : 0.0;
  }
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

int Run() {
  const size_t num_entities = EnvSize("OPINEDB_SCALE_ENTITIES", 100000);
  const int repeats = bench::Repeats(3);

  datagen::ScaleSpec spec;
  spec.num_entities = num_entities;
  printf("Building scaled fixture (%zu entities)...\n", num_entities);
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;

  // One dense (subjective-only) query per sampled predicate, plus the
  // same predicates behind an objective filter to exercise the columnar
  // predicate sweep.
  std::vector<std::string> dense_sql;
  std::vector<std::string> filtered_sql;
  const size_t stride =
      std::max<size_t>(1, fixture.subjective_predicates.size() / 8);
  for (size_t i = 0; i < fixture.subjective_predicates.size() &&
                     dense_sql.size() < 8;
       i += stride) {
    const std::string& predicate = fixture.subjective_predicates[i];
    dense_sql.push_back("select * from " + fixture.table_name + " where \"" +
                        predicate + "\" limit 10");
    filtered_sql.push_back("select * from " + fixture.table_name +
                           " where price_pn < 120 and \"" + predicate +
                           "\" limit 10");
  }

  // Per-query scanned bytes (columnar layout), from the interpretation's
  // bound attributes. Captured while the store is resident.
  const core::ColumnarSummaryStore* store = db.columnar_store();
  const size_t store_bytes = store->bytes();
  std::vector<double> query_bytes_per_entity(dense_sql.size(), 0.0);
  for (size_t i = 0; i < dense_sql.size(); ++i) {
    const auto interpretation = db.interpreter().InterpretWord2VecOnly(
        fixture.subjective_predicates[i * stride]);
    for (const auto& atom : interpretation.atoms) {
      if (atom.attribute < 0 ||
          static_cast<size_t>(atom.attribute) >= store->num_attributes()) {
        continue;
      }
      query_bytes_per_entity[i] += static_cast<double>(
          store->attribute(static_cast<size_t>(atom.attribute))
              .scan_bytes_per_entity());
    }
  }

  std::vector<size_t> threads = {1};
  const size_t hw = bench::ResolvedThreads(0);
  if (hw > 1) threads.push_back(hw);

  std::vector<SweepPoint> sweep;
  for (size_t t : threads) {
    db.SetNumThreads(t);
    SweepPoint point;
    point.threads = t;
    // Warm-up pass: faults the fixture in and fills the
    // interpretation path once per query.
    for (const auto& sql : dense_sql) {
      auto result = db.Execute(sql);
      if (!result.ok()) {
        fprintf(stderr, "query failed: %s\n",
                result.status().ToString().c_str());
        return 1;
      }
    }
    for (int r = 0; r < repeats; ++r) {
      for (size_t i = 0; i < dense_sql.size(); ++i) {
        auto result = db.Execute(dense_sql[i]);
        if (!result.ok()) return 1;
        point.dense_scoring_ms += result->stats.scoring_ms;
        point.dense_total_ms += result->stats.total_ms;
        point.dense_entities += result->stats.entities_scored;
        point.dense_scan_bytes +=
            static_cast<double>(result->stats.entities_scored) *
            query_bytes_per_entity[i];
      }
      for (const auto& sql : filtered_sql) {
        auto result = db.Execute(sql);
        if (!result.ok()) return 1;
        point.filtered_total_ms += result->stats.total_ms;
      }
    }
    printf("  threads=%zu dense %10.0f entities/s  (%.3f GB/s, "
           "scoring %.1f ms)\n",
           t, point.EntitiesPerSec(), point.ScanGBps(),
           point.dense_scoring_ms);
    sweep.push_back(point);
  }
  const SweepPoint& one_thread = sweep.front();  // threads[0] == 1.

  FILE* out = fopen("BENCH_scale.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_scale.json\n");
    return 1;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"scale\",\n");
  fprintf(out, "  \"dataset\": \"hotel_scale_synth\",\n");
  bench::WriteHostFields(out, threads.back());
  fprintf(out, "  \"num_entities\": %zu,\n", num_entities);
  fprintf(out, "  \"repeats\": %d,\n", repeats);
  fprintf(out, "  \"dense_queries\": %zu,\n", dense_sql.size());
  fprintf(out, "  \"columnar_store_bytes\": %zu,\n", store_bytes);
  fprintf(out, "  \"thread_sweep\": %s,\n", bench::JsonArray(threads).c_str());
  fprintf(out, "  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& point = sweep[i];
    fprintf(out,
            "    {\"threads\": %zu, "
            "\"dense_scoring_ms\": %.3f, \"dense_total_ms\": %.3f, "
            "\"dense_entities_per_sec\": %.1f, \"scan_gbps\": %.4f, "
            "\"filtered_total_ms\": %.3f}%s\n",
            point.threads,
            point.dense_scoring_ms, point.dense_total_ms,
            point.EntitiesPerSec(), point.ScanGBps(),
            point.filtered_total_ms, i + 1 < sweep.size() ? "," : "");
  }
  fprintf(out, "  ],\n");
  fprintf(out, "  \"dense_entities_per_sec_columnar_1t\": %.1f,\n",
          one_thread.EntitiesPerSec());
  fprintf(out, "  \"scan_gbps_columnar_1t\": %.4f\n", one_thread.ScanGBps());
  fprintf(out, "}\n");
  fclose(out);
  printf("Wrote BENCH_scale.json (single-core %.0f entities/s)\n",
         one_thread.EntitiesPerSec());
  return 0;
}

}  // namespace
}  // namespace opinedb

int main() { return opinedb::Run(); }
