// Tests for the extension features: the degree-of-truth cache,
// user-profile personalization, unexpectedness mining, and
// serialization round-trips.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/degree_cache.h"
#include "core/personalize.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "embedding/io.h"
#include "eval/experiment.h"

namespace opinedb {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 30;
    options.generator.min_reviews_per_entity = 10;
    options.generator.max_reviews_per_entity = 20;
    options.generator.seed = 21;
    options.seed = 21;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 60;
    options.membership_training_tuples = 500;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  core::OpineDb& db() const { return *artifacts_->db; }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* ExtensionsTest::artifacts_ = nullptr;

// --------------------------------------------------------- DegreeCache.

TEST_F(ExtensionsTest, DegreeCacheMatchesDirectEvaluation) {
  core::DegreeCache cache(&db());
  const auto& degrees = cache.Degrees("clean room");
  ASSERT_EQ(degrees.size(), db().corpus().num_entities());
  for (size_t e = 0; e < degrees.size(); ++e) {
    EXPECT_NEAR(degrees[e],
                db().PredicateDegreeOfTruth(
                    "clean room", static_cast<text::EntityId>(e)),
                1e-12);
  }
}

TEST_F(ExtensionsTest, DegreeCacheCachesByText) {
  core::DegreeCache cache(&db());
  EXPECT_FALSE(cache.Contains("friendly staff"));
  cache.Degrees("friendly staff");
  EXPECT_TRUE(cache.Contains("friendly staff"));
  EXPECT_EQ(cache.size(), 1u);
  cache.Degrees("friendly staff");
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ExtensionsTest, PrecomputeMarkersMaterializesEveryMarker) {
  core::DegreeCache cache(&db());
  const size_t materialized = cache.PrecomputeMarkers();
  size_t expected = 0;
  for (const auto& attribute : db().schema().attributes) {
    expected += attribute.summary_type.markers.size();
  }
  // Duplicated marker phrases across attributes cache once.
  EXPECT_LE(materialized, expected);
  EXPECT_GT(materialized, 0u);
  EXPECT_EQ(cache.size(), materialized);
}

namespace {

struct WarmRun {
  core::QueryResult uncached;
  core::QueryResult warm;
  /// The cache's own hit/miss traffic during each cached run.
  core::DegreeCache::CacheStats fill_traffic;
  core::DegreeCache::CacheStats warm_traffic;
};

core::DegreeCache::CacheStats Traffic(
    const core::DegreeCache::CacheStats& before,
    const core::DegreeCache::CacheStats& after) {
  return {after.hits - before.hits, after.misses - before.misses};
}

// Runs `sql` without a degree cache, then twice with `cache` attached
// (the first run fills it, the second is served warm).
WarmRun RunUncachedThenWarm(core::OpineDb& db, core::DegreeCache* cache,
                            const std::string& sql) {
  WarmRun run;
  auto uncached = db.Execute(sql);
  EXPECT_TRUE(uncached.ok()) << uncached.status().ToString();
  db.AttachDegreeCache(cache);
  const core::DegreeCache::CacheStats start = cache->stats();
  auto fill = db.Execute(sql);
  const core::DegreeCache::CacheStats filled = cache->stats();
  auto warm = db.Execute(sql);
  run.fill_traffic = Traffic(start, filled);
  run.warm_traffic = Traffic(filled, cache->stats());
  db.AttachDegreeCache(nullptr);
  EXPECT_TRUE(fill.ok()) << fill.status().ToString();
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  if (uncached.ok()) run.uncached = *std::move(uncached);
  if (warm.ok()) run.warm = *std::move(warm);
  return run;
}

void ExpectSameRanking(const core::QueryResult& want,
                       const core::QueryResult& got) {
  ASSERT_EQ(want.results.size(), got.results.size());
  for (size_t i = 0; i < got.results.size(); ++i) {
    EXPECT_EQ(want.results[i].entity, got.results[i].entity);
    EXPECT_EQ(want.results[i].score, got.results[i].score);
  }
}

}  // namespace

// The names of the next two tests predate the removal of the Threshold
// Algorithm plan; warm-cache top-k now runs as a dense scan over the
// cached degree lists and must rank exactly like the uncached scan.
TEST_F(ExtensionsTest, ThresholdAlgorithmTopKMatchesFullScan) {
  core::DegreeCache cache(&db());
  const WarmRun run = RunUncachedThenWarm(
      db(), &cache,
      "select * from hotels where \"clean room\" and \"friendly staff\" "
      "and \"quiet street\" limit 5");
  EXPECT_EQ(run.warm_traffic.misses, 0u);
  EXPECT_EQ(run.warm.results.size(), 5u);
  ExpectSameRanking(run.uncached, run.warm);
}

TEST_F(ExtensionsTest, ThresholdAlgorithmReportsStats) {
  core::DegreeCache cache(&db());
  const WarmRun run = RunUncachedThenWarm(
      db(), &cache,
      "select * from hotels where \"clean room\" and \"comfortable bed\" "
      "limit 3");
  EXPECT_GT(run.fill_traffic.misses, 0u);
  EXPECT_GT(run.warm_traffic.hits, 0u);
  EXPECT_EQ(run.warm_traffic.misses, 0u);
  ExpectSameRanking(run.uncached, run.warm);
}

// ------------------------------------------------------- Personalizing.

TEST_F(ExtensionsTest, ProfileFromWeightsIgnoresUnknownNames) {
  auto profile = core::UserProfile::FromWeights(
      db(), {{"room_cleanliness", 1.0}, {"no_such_attr", 0.7}});
  ASSERT_EQ(profile.attribute_weights.size(),
            db().schema().num_attributes());
  const int attr = db().schema().AttributeIndex("room_cleanliness");
  EXPECT_EQ(profile.attribute_weights[attr], 1.0);
  double sum = 0.0;
  for (double w : profile.attribute_weights) sum += w;
  EXPECT_EQ(sum, 1.0);
}

TEST_F(ExtensionsTest, AffinityTracksLatentQuality) {
  const int attr = db().schema().AttributeIndex("breakfast_food");
  auto profile =
      core::UserProfile::FromWeights(db(), {{"breakfast_food", 1.0}});
  // Best vs worst breakfast by latent quality.
  int best = 0, worst = 0;
  const auto& entities = artifacts_->domain.entities;
  for (size_t e = 0; e < entities.size(); ++e) {
    if (entities[e].quality[attr] > entities[best].quality[attr]) {
      best = static_cast<int>(e);
    }
    if (entities[e].quality[attr] < entities[worst].quality[attr]) {
      worst = static_cast<int>(e);
    }
  }
  EXPECT_GT(core::ProfileAffinity(db(), profile, best),
            core::ProfileAffinity(db(), profile, worst));
}

TEST_F(ExtensionsTest, EmptyProfileHasZeroAffinity) {
  core::UserProfile profile;
  profile.attribute_weights.assign(db().schema().num_attributes(), 0.0);
  EXPECT_EQ(core::ProfileAffinity(db(), profile, 0), 0.0);
}

TEST_F(ExtensionsTest, PersonalizeReordersByBlendedScore) {
  auto result =
      db().Execute("select * from hotels where \"clean room\" limit 10");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->results.size(), 2u);
  auto profile =
      core::UserProfile::FromWeights(db(), {{"bar_nightlife", 1.0}});
  auto personalized =
      core::PersonalizeResults(db(), profile, result->results, 1.0);
  // With blend = 1.0 the ordering is purely by affinity.
  for (size_t i = 1; i < personalized.size(); ++i) {
    EXPECT_GE(
        core::ProfileAffinity(db(), profile, personalized[i - 1].entity) +
            1e-12,
        core::ProfileAffinity(db(), profile, personalized[i].entity));
  }
  // With blend = 0.0 the original ordering is preserved.
  auto untouched =
      core::PersonalizeResults(db(), profile, result->results, 0.0);
  for (size_t i = 0; i < untouched.size(); ++i) {
    EXPECT_EQ(untouched[i].entity, result->results[i].entity);
  }
}

// ------------------------------------------------------ Unexpectedness.

TEST_F(ExtensionsTest, FindUnexpectedReturnsSortedFindings) {
  auto findings = core::FindUnexpected(
      db(), artifacts_->domain.objective_table, "price_pn", 10);
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  ASSERT_FALSE(findings->empty());
  for (size_t i = 1; i < findings->size(); ++i) {
    EXPECT_GE(std::abs((*findings)[i - 1].surprise),
              std::abs((*findings)[i].surprise));
  }
  for (const auto& finding : *findings) {
    EXPECT_GE(finding.objective_percentile, 0.0);
    EXPECT_LE(finding.objective_percentile, 1.0);
    EXPECT_FALSE(finding.description.empty());
  }
}

TEST_F(ExtensionsTest, FindUnexpectedRejectsBadColumn) {
  auto findings = core::FindUnexpected(
      db(), artifacts_->domain.objective_table, "nope", 5);
  EXPECT_FALSE(findings.ok());
  auto string_col = core::FindUnexpected(
      db(), artifacts_->domain.objective_table, "city", 5);
  EXPECT_FALSE(string_col.ok());
}

// ------------------------------------------------------- Serialization.

TEST_F(ExtensionsTest, EmbeddingsRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(embedding::SaveEmbeddings(db().embeddings(), &buffer).ok());
  auto loaded = embedding::LoadEmbeddings(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), db().embeddings().size());
  EXPECT_EQ(loaded->dim(), db().embeddings().dim());
  const auto* original = db().embeddings().Get("clean");
  const auto* reloaded = loaded->Get("clean");
  ASSERT_NE(original, nullptr);
  ASSERT_NE(reloaded, nullptr);
  for (size_t d = 0; d < original->size(); ++d) {
    EXPECT_FLOAT_EQ((*original)[d], (*reloaded)[d]);
  }
  EXPECT_NEAR(loaded->Similarity("clean", "spotless"),
              db().embeddings().Similarity("clean", "spotless"), 1e-5);
}

TEST_F(ExtensionsTest, SchemaRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(core::SaveSchema(db().schema(), &buffer).ok());
  auto loaded = core::LoadSchema(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->objective_table, db().schema().objective_table);
  ASSERT_EQ(loaded->attributes.size(), db().schema().attributes.size());
  for (size_t a = 0; a < loaded->attributes.size(); ++a) {
    const auto& original = db().schema().attributes[a];
    const auto& reloaded = loaded->attributes[a];
    EXPECT_EQ(reloaded.name, original.name);
    EXPECT_EQ(reloaded.summary_type.kind, original.summary_type.kind);
    EXPECT_EQ(reloaded.summary_type.markers, original.summary_type.markers);
    EXPECT_EQ(reloaded.linguistic_domain, original.linguistic_domain);
    EXPECT_EQ(reloaded.seeds.aspect_terms, original.seeds.aspect_terms);
    EXPECT_EQ(reloaded.seeds.opinion_terms, original.seeds.opinion_terms);
  }
}

TEST_F(ExtensionsTest, SummariesRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(core::SaveSummaries(db().tables(), &buffer).ok());
  auto loaded = core::LoadSummaries(db().schema(), &buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->summaries.size(), db().tables().summaries.size());
  for (size_t a = 0; a < loaded->summaries.size(); ++a) {
    ASSERT_EQ(loaded->summaries[a].size(),
              db().tables().summaries[a].size());
    for (size_t e = 0; e < loaded->summaries[a].size(); ++e) {
      const auto& original = db().tables().summaries[a][e];
      const auto& reloaded = loaded->summaries[a][e];
      ASSERT_EQ(reloaded.num_markers(), original.num_markers());
      EXPECT_EQ(reloaded.unmatched_count(), original.unmatched_count());
      for (size_t m = 0; m < original.num_markers(); ++m) {
        EXPECT_DOUBLE_EQ(reloaded.count(m), original.count(m));
        EXPECT_DOUBLE_EQ(reloaded.cell(m).mean_sentiment,
                         original.cell(m).mean_sentiment);
        EXPECT_EQ(reloaded.cell(m).provenance, original.cell(m).provenance);
      }
    }
  }
}

TEST(SerializeErrorTest, RejectsGarbage) {
  std::stringstream garbage("not a schema at all");
  EXPECT_FALSE(core::LoadSchema(&garbage).ok());
  std::stringstream garbage2("nor embeddings");
  EXPECT_FALSE(embedding::LoadEmbeddings(&garbage2).ok());
  std::stringstream truncated("opinedb-schema 1\n6:hotels 4:name\n2\n");
  EXPECT_FALSE(core::LoadSchema(&truncated).ok());
}

TEST(SerializeErrorTest, RejectsWrongVersion) {
  std::stringstream future("opinedb-schema 99\n");
  auto result = core::LoadSchema(&future);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

}  // namespace
}  // namespace opinedb
