// Unit coverage for DegreeCache: property-style agreement between
// conjunctive top-k queries served through an attached warm cache and
// the same queries with no cache, on randomized predicate subsets
// (seeded RNG), plus hit/miss accounting and reference stability.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/degree_cache.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"

namespace opinedb {
namespace {

class DegreeCacheTest : public ::testing::Test {
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

  /// The predicate universe: every marker plus a slice of the generated
  /// query-predicate pool (free-text predicates exercise the fallback
  /// and word2vec interpretation paths).
  std::vector<std::string> PredicateUniverse() const {
    std::vector<std::string> universe;
    for (const auto& attribute : db().schema().attributes) {
      for (const auto& marker : attribute.summary_type.markers) {
        universe.push_back(marker);
      }
    }
    const auto& pool = artifacts_->pool;
    for (size_t i = 0; i < pool.size() && i < 20; ++i) {
      universe.push_back(pool[i].text);
    }
    std::sort(universe.begin(), universe.end());
    universe.erase(std::unique(universe.begin(), universe.end()),
                   universe.end());
    return universe;
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* DegreeCacheTest::artifacts_ = nullptr;

// An attached warm cache only changes where the degree lists come from:
// every conjunctive top-k stays bit-identical to the uncached scan.
TEST_F(DegreeCacheTest, TopKAgreesWithFullScanOnRandomizedPredicates) {
  core::DegreeCache cache(&db());
  const auto universe = PredicateUniverse();
  ASSERT_GE(universe.size(), 4u);
  Rng rng(20260806);
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    const size_t width = 1 + rng.Below(4);  // 1..4 predicates.
    std::string where;
    for (size_t index : rng.SampleIndices(universe.size(), width)) {
      if (!where.empty()) where += " and ";
      where += "\"" + universe[index] + "\"";
    }
    const size_t k = 1 + rng.Below(db().corpus().num_entities());
    const std::string sql = "select * from hotels where " + where +
                            " limit " + std::to_string(k);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + sql);
    auto uncached = db().Execute(sql);
    ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
    db().AttachDegreeCache(&cache);
    auto fill = db().Execute(sql);  // Makes every list resident.
    const core::DegreeCache::CacheStats before = cache.stats();
    auto warm = db().Execute(sql);
    db().AttachDegreeCache(nullptr);
    ASSERT_TRUE(fill.ok()) << fill.status().ToString();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(cache.stats().hits - before.hits, width);
    EXPECT_EQ(cache.stats().misses - before.misses, 0u);
    ASSERT_EQ(uncached->results.size(), warm->results.size());
    for (size_t i = 0; i < warm->results.size(); ++i) {
      EXPECT_EQ(uncached->results[i].entity, warm->results[i].entity)
          << "rank " << i;
      EXPECT_EQ(uncached->results[i].score, warm->results[i].score)
          << "rank " << i;
    }
    // Scores are sorted best-first with ids breaking ties.
    for (size_t i = 1; i < warm->results.size(); ++i) {
      const auto& prev = warm->results[i - 1];
      const auto& next = warm->results[i];
      EXPECT_GE(prev.score, next.score);
      if (prev.score == next.score) {
        EXPECT_LT(prev.entity, next.entity);
      }
    }
  }
}

TEST_F(DegreeCacheTest, HitMissCountersTrackTraffic) {
  core::DegreeCache cache(&db());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.Degrees("clean room");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.Degrees("clean room");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Clear drops the lists but keeps the monotone counters.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.Degrees("clean room");
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(DegreeCacheTest, StableReferencesAcrossLaterInserts) {
  core::DegreeCache cache(&db());
  const auto& first = cache.Degrees("clean room");
  const std::vector<double> snapshot = first;
  // Pile on enough inserts to force rehashes inside the shards.
  for (const auto& predicate : PredicateUniverse()) {
    cache.Degrees(predicate);
  }
  ASSERT_EQ(first.size(), snapshot.size());
  for (size_t e = 0; e < snapshot.size(); ++e) {
    EXPECT_EQ(first[e], snapshot[e]);
  }
}

}  // namespace
}  // namespace opinedb
