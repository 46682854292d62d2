// Unit coverage for the degree lists the interpretation cache holds
// (Section 3.3's pre-computed degrees of truth): property-style
// agreement between conjunctive top-k queries served from warm lists
// and the same queries with caching off, on randomized predicate
// subsets (seeded RNG), plus hit/miss accounting and list lifetime.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/interpretation_cache.h"
#include "common/rng.h"
#include "common/string_util.h"
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

  void TearDown() override { db().ConfigureCaches({}); }

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

  /// The resident degree list of `predicate` at the current epoch, or
  /// nullptr.
  std::shared_ptr<const std::vector<double>> ResidentList(
      const std::string& predicate) const {
    cache::InterpretationCache::Entry entry;
    if (!db().interpretation_cache()->Lookup(NormalizePredicate(predicate),
                                             db().cache_epoch(), &entry)) {
      return nullptr;
    }
    return entry.degrees;
  }

  static std::string Sql(const std::string& predicate) {
    return "select * from hotels where \"" + predicate + "\" limit 5";
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* DegreeCacheTest::artifacts_ = nullptr;

// Warm lists only change where the degree lists come from: every
// conjunctive top-k stays bit-identical to the uncached scan.
TEST_F(DegreeCacheTest, TopKAgreesWithFullScanOnRandomizedPredicates) {
  const auto universe = PredicateUniverse();
  ASSERT_GE(universe.size(), 4u);
  Rng rng(20260806);
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    const size_t width = 1 + rng.Below(4);  // 1..4 predicates.
    std::string where;
    std::vector<std::string> predicates;
    for (size_t index : rng.SampleIndices(universe.size(), width)) {
      if (!where.empty()) where += " and ";
      where += "\"" + universe[index] + "\"";
      predicates.push_back(universe[index]);
    }
    const size_t k = 1 + rng.Below(db().corpus().num_entities());
    const std::string sql = "select * from hotels where " + where +
                            " limit " + std::to_string(k);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + sql);
    auto uncached = db().Execute(sql);
    ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
    db().ConfigureCaches({.enable_interpretation = true});
    const cache::InterpretationCache& memo = *db().interpretation_cache();
    auto fill = db().Execute(sql);  // Makes every list resident.
    const uint64_t hits_before = memo.hits();
    const uint64_t misses_before = memo.misses();
    auto warm = db().Execute(sql);
    ASSERT_TRUE(fill.ok()) << fill.status().ToString();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(memo.hits() - hits_before, width);
    EXPECT_EQ(memo.misses() - misses_before, 0u);
    for (const auto& predicate : predicates) {
      const auto list = ResidentList(predicate);
      ASSERT_NE(list, nullptr) << predicate;
      EXPECT_EQ(list->size(), db().corpus().num_entities());
    }
    db().ConfigureCaches({});
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
  db().ConfigureCaches({.enable_interpretation = true});
  cache::InterpretationCache& memo = *db().interpretation_cache();
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), 0u);
  ASSERT_TRUE(db().Execute(Sql("clean room")).ok());
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 0u);
  ASSERT_TRUE(db().Execute(Sql("clean room")).ok());
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 1u);
  // Clear drops the entries but keeps the monotone counters.
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  ASSERT_TRUE(db().Execute(Sql("clean room")).ok());
  EXPECT_EQ(memo.misses(), 2u);
}

// A list is shared, not borrowed: whoever holds it keeps it intact
// through later inserts (shard rehashes), overwrites and a Clear().
TEST_F(DegreeCacheTest, StableReferencesAcrossLaterInserts) {
  db().ConfigureCaches({.enable_interpretation = true});
  ASSERT_TRUE(db().Execute(Sql("clean room")).ok());
  const auto first = ResidentList("clean room");
  ASSERT_NE(first, nullptr);
  const std::vector<double> snapshot = *first;
  // Pile on enough inserts to force rehashes inside the shards.
  for (const auto& predicate : PredicateUniverse()) {
    ASSERT_TRUE(db().Execute(Sql(predicate)).ok());
  }
  db().interpretation_cache()->Clear();
  ASSERT_EQ(first->size(), snapshot.size());
  for (size_t e = 0; e < snapshot.size(); ++e) {
    EXPECT_EQ((*first)[e], snapshot[e]);
  }
}

}  // namespace
}  // namespace opinedb
