// Voyageur: a miniature experiential travel search session (the paper's
// Section 7 application, powered by OpineDB). Demonstrates the
// forward-looking features on top of the core engine:
//   * user profiles re-ranking results by what this traveler cares about,
//   * expectation mining ("an expensive hotel with dirty rooms is worth
//     pointing out"),
//   * degree-of-truth caching for a hot query path, and
//   * persisting the subjective database to disk and reloading it.
#include <cstdio>
#include <sstream>

#include "core/degree_cache.h"
#include "core/personalize.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "embedding/io.h"
#include "eval/experiment.h"

using namespace opinedb;

int main() {
  eval::BuildOptions options;
  options.generator.num_entities = 60;
  options.generator.seed = 31;
  options.seed = 31;
  printf("Voyageur: building the travel subjective database...\n\n");
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(), options);
  auto& db = *artifacts.db;

  // A base experiential query.
  const char* sql =
      "select * from hotels where \"clean room\" and \"comfortable bed\" "
      "limit 5";
  printf("Query: %s\n", sql);
  auto result = db.Execute(sql);
  if (!result.ok()) {
    printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const auto& r : result->results) {
    printf("  %-12s %.3f\n", r.entity_name.c_str(), r.score);
  }

  // The same traveler cares mostly about nightlife: personalize.
  printf("\nSame results re-ranked for a nightlife-focused traveler:\n");
  auto profile = core::UserProfile::FromWeights(
      db, {{"bar_nightlife", 1.0}, {"quietness", 0.1}});
  for (const auto& r :
       core::PersonalizeResults(db, profile, result->results, 0.5)) {
    printf("  %-12s %.3f (affinity %.3f)\n", r.entity_name.c_str(),
           r.score, core::ProfileAffinity(db, profile, r.entity));
  }

  // Expectation mining: surprises worth surfacing to the user.
  printf("\nUnexpected findings (price vs experience):\n");
  auto findings = core::FindUnexpected(
      db, artifacts.domain.objective_table, "price_pn", 3);
  if (findings.ok()) {
    for (const auto& finding : *findings) {
      printf("  %s\n", finding.description.c_str());
    }
  }

  // Degree caching for a hot query path: once both lists are resident,
  // the query reads them instead of re-scoring every entity.
  printf("\nCached conjunctive top-3 over resident degree lists:\n");
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  const char* hot_sql =
      "select * from hotels where \"friendly staff\" and "
      "\"delicious breakfast\" limit 3";
  (void)db.Execute(hot_sql);  // Materializes both lists.
  auto hot = db.Execute(hot_sql);
  db.AttachDegreeCache(nullptr);
  if (hot.ok()) {
    for (const auto& r : hot->results) {
      printf("  %-12s %.3f\n", r.entity_name.c_str(), r.score);
    }
    printf("  (%zu of %zu degree lists served from the cache)\n",
           hot->stats.cache_hits, cache.size());
  }

  // Persist and reload the queryable state.
  std::stringstream schema_file, summaries_file, embeddings_file;
  if (core::SaveSchema(db.schema(), &schema_file).ok() &&
      core::SaveSummaries(db.tables(), &summaries_file).ok() &&
      embedding::SaveEmbeddings(db.embeddings(), &embeddings_file).ok()) {
    auto schema = core::LoadSchema(&schema_file);
    auto summaries =
        schema.ok() ? core::LoadSummaries(*schema, &summaries_file)
                    : Result<core::SubjectiveTables>(schema.status());
    auto embeddings = embedding::LoadEmbeddings(&embeddings_file);
    printf("\nPersisted + reloaded: schema %s, summaries %s, embeddings "
           "%s (%zu words).\n",
           schema.ok() ? "ok" : "FAILED",
           summaries.ok() ? "ok" : "FAILED",
           embeddings.ok() ? "ok" : "FAILED",
           embeddings.ok() ? embeddings->size() : 0);
  }
  return 0;
}
