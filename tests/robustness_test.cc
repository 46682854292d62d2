// Robustness regression tests (DESIGN.md §5e):
//
//  - Reaggregate must invalidate an attached degree cache. The cached
//    lists were computed against the old summary tables; before the fix
//    they survived the rebuild and kept answering queries with stale
//    degrees (this test fails on the unfixed engine).
//  - Reconfiguration (Reaggregate / SetNumThreads / SetTraceLevel) is
//    serialized against in-flight queries — before the fix,
//    SetNumThreads destroyed the worker pool a running query had
//    snapshotted (use-after-free under asan; racy under tsan).
//  - Non-finite guards: TrainMembership rejects NaN/Inf features with a
//    Status, and every degree of truth the engine emits is a finite
//    value in [0, 1].
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "core/degree_cache.h"
#include "core/engine.h"
#include "core/membership.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"

namespace opinedb {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 20;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 14;
    options.generator.seed = 61;
    options.seed = 61;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 30;
    options.membership_training_tuples = 400;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  static core::OpineDb& db() { return *artifacts_->db; }

  static std::string Sql() {
    return "select * from hotels where \"" + artifacts_->pool[0].text +
           "\" limit 5";
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* RobustnessTest::artifacts_ = nullptr;

void ExpectBitIdentical(const core::QueryResult& reference,
                        const core::QueryResult& actual) {
  ASSERT_EQ(reference.results.size(), actual.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].entity, actual.results[i].entity);
    EXPECT_EQ(reference.results[i].score, actual.results[i].score);
  }
}

// Regression: before the fix, Reaggregate left the attached cache's
// stale degree lists resident, so cached queries kept ranking against
// summaries that no longer existed.
TEST_F(RobustnessTest, ReaggregateInvalidatesAttachedDegreeCache) {
  const core::AggregationOptions original = db().options().aggregation;
  core::DegreeCache cache(&db());
  db().AttachDegreeCache(&cache);
  // Warm the cache against the current summaries.
  auto warm = db().Execute(Sql());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_GT(cache.size(), 0u);
  const uint64_t epoch_before = db().cache_epoch();

  // Rebuild the summaries under a meaningfully different aggregation
  // policy (stricter extraction matching changes marker summaries).
  core::AggregationOptions changed = original;
  changed.match_threshold = original.match_threshold * 2.0;
  changed.fractional = !original.fractional;
  db().Reaggregate(changed);

  // The stale lists must be gone, and borrowers must be able to see it.
  EXPECT_EQ(cache.size(), 0u)
      << "Reaggregate left stale degree lists resident in the cache";
  EXPECT_GT(db().cache_epoch(), epoch_before);

  // End-to-end: the cached query now agrees with a cache-free run over
  // the new summaries.
  auto with_cache = db().Execute(Sql());
  ASSERT_TRUE(with_cache.ok()) << with_cache.status().ToString();
  db().AttachDegreeCache(nullptr);
  auto without_cache = db().Execute(Sql());
  ASSERT_TRUE(without_cache.ok()) << without_cache.status().ToString();
  ExpectBitIdentical(*without_cache, *with_cache);

  // Restore the original aggregation for the other tests (the rebuild
  // is deterministic, so this reproduces the fixture state exactly).
  db().Reaggregate(original);
}

// Before the fix, SetNumThreads reset pool_ while a concurrent query
// could still be executing a ParallelFor on the old pool (use-after-
// free), and Reaggregate swapped tables mid-query. With the
// reconfiguration lock, this hammering is safe at any interleaving —
// asan/tsan runs of this test are the gate.
TEST_F(RobustnessTest, ReconfigurationSerializesAgainstInFlightQueries) {
  const core::AggregationOptions original = db().options().aggregation;
  const std::string sql = Sql();
  std::atomic<bool> done{false};
  std::atomic<int> queries_ok{0};
  std::thread querier([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto run = db().Execute(sql);
      // Results vary across reaggregations; validity must not.
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (run.ok()) queries_ok.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 6; ++i) {
    db().SetNumThreads(i % 2 == 0 ? 4 : 1);
    core::AggregationOptions changed = original;
    changed.fractional = (i % 2 == 0);
    db().Reaggregate(changed);
  }
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_GT(queries_ok.load(), 0);
  db().SetNumThreads(1);
  db().Reaggregate(original);
}

TEST_F(RobustnessTest, TrainMembershipRejectsNonFiniteFeatures) {
  auto tuple = [](double poison) {
    core::MembershipModel::LabeledTuple t;
    t.features.assign(core::kMembershipFeatureDim, 0.5);
    t.features[3] = poison;
    t.label = 1;
    return t;
  };
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    const Status status = db().TrainMembership({tuple(poison)});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "non-finite feature " << poison << " accepted: "
        << status.ToString();
  }
  // Wrong dimensionality is rejected too.
  core::MembershipModel::LabeledTuple short_tuple;
  short_tuple.features.assign(core::kMembershipFeatureDim - 1, 0.5);
  EXPECT_EQ(db().TrainMembership({short_tuple}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, ValidateFeatureVectorAcceptsFiniteVectors) {
  std::vector<double> good(core::kMembershipFeatureDim, 0.25);
  EXPECT_TRUE(core::ValidateFeatureVector(good).ok());
}

// Every degree the engine emits is finite and in [0, 1] — including the
// text-fallback path for predicates no interpreter stage can cover.
TEST_F(RobustnessTest, DegreesOfTruthStayInUnitInterval) {
  std::vector<std::string> predicates;
  for (size_t i = 0; i < 5 && i < artifacts_->pool.size(); ++i) {
    predicates.push_back(artifacts_->pool[i].text);
  }
  predicates.push_back("zorblatt quuxly vibes");
  const size_t n = db().corpus().num_entities();
  for (const auto& predicate : predicates) {
    for (size_t e = 0; e < n; ++e) {
      const double d =
          db().PredicateDegreeOfTruth(predicate,
                                      static_cast<text::EntityId>(e));
      ASSERT_TRUE(std::isfinite(d)) << predicate << " entity " << e;
      ASSERT_GE(d, 0.0) << predicate << " entity " << e;
      ASSERT_LE(d, 1.0) << predicate << " entity " << e;
    }
  }
}

// Membership inference clamps even when the underlying model misfires:
// a freshly default-constructed model must still emit unit-interval
// degrees for extreme (but finite) inputs.
TEST_F(RobustnessTest, MembershipDegreeOfTruthClamps) {
  core::MembershipModel::LabeledTuple a;
  a.features.assign(core::kMembershipFeatureDim, 0.9);
  a.label = 1;
  core::MembershipModel::LabeledTuple b;
  b.features.assign(core::kMembershipFeatureDim, 0.1);
  b.label = 0;
  auto model = core::MembershipModel::Train({a, b, a, b}, 7);
  std::vector<double> extreme(core::kMembershipFeatureDim, 1e12);
  const double d = model.DegreeOfTruth(extreme);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

// Regression (the ISSUE-6 epoch-audit fix): TrainMembership replaces
// the membership model — every cached degree list and cached query
// result was computed through the old model. Before the fix it cleared
// neither; an attached degree cache kept serving stale degrees exactly
// like the pre-fix Reaggregate bug above.
TEST_F(RobustnessTest, TrainMembershipInvalidatesAttachedDegreeCache) {
  core::DegreeCache cache(&db());
  db().AttachDegreeCache(&cache);
  auto warm = db().Execute(Sql());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_GT(cache.size(), 0u);
  const uint64_t epoch_before = db().cache_epoch();

  const auto tuples = eval::MakeMembershipTuples(
      db(), artifacts_->domain, artifacts_->pool, 200, true, 99);
  ASSERT_TRUE(db().TrainMembership(tuples, 9).ok());

  EXPECT_EQ(cache.size(), 0u)
      << "TrainMembership left degree lists computed through the old "
         "membership model resident in the cache";
  EXPECT_GT(db().cache_epoch(), epoch_before);

  // End-to-end: cached serving agrees with cache-free serving over the
  // retrained model.
  auto with_cache = db().Execute(Sql());
  ASSERT_TRUE(with_cache.ok()) << with_cache.status().ToString();
  db().AttachDegreeCache(nullptr);
  auto without_cache = db().Execute(Sql());
  ASSERT_TRUE(without_cache.ok()) << without_cache.status().ToString();
  ExpectBitIdentical(*without_cache, *with_cache);
}

// The epoch audit, pinned: every mutation of served data bumps the
// cache epoch exactly once; execution-reconfig operations bump it
// exactly zero times. The differential harness relies on this contract
// (cache_equivalence_test tracks the epoch in lockstep across both
// engines); this is the narrow unit statement of the same rule.
TEST_F(RobustnessTest, EveryMutationBumpsCacheEpochExactlyOnce) {
  const core::AggregationOptions original = db().options().aggregation;
  uint64_t epoch = db().cache_epoch();

  // Reaggregate: +1, regardless of whether the options changed.
  db().Reaggregate(original);
  EXPECT_EQ(db().cache_epoch(), ++epoch);

  // TrainMembership: +1.
  const auto tuples = eval::MakeMembershipTuples(
      db(), artifacts_->domain, artifacts_->pool, 200, true, 42);
  ASSERT_TRUE(db().TrainMembership(tuples, 6).ok());
  EXPECT_EQ(db().cache_epoch(), ++epoch);

  // Execution reconfiguration: +0 — the served data did not change, so
  // warm caches stay valid across all of these.
  db().SetNumThreads(4);
  db().SetNumThreads(1);
  db().SetTraceLevel(obs::TraceLevel::kStats);
  db().SetTraceLevel(obs::TraceLevel::kOff);
  core::DegreeCache cache(&db());
  db().AttachDegreeCache(&cache);
  db().AttachDegreeCache(nullptr);
  db().ConfigureCaches(cache::CacheConfig());
  EXPECT_EQ(db().cache_epoch(), epoch);

  // Queries: +0.
  auto run = db().Execute(Sql());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(db().cache_epoch(), epoch);

  // SaveDatabase alone: +0 (a consistent read). OpenDatabase: +1 — the
  // served tables were replaced wholesale.
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "epoch_audit_snapshot";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(db().SaveDatabase(dir.string()).ok());
  EXPECT_EQ(db().cache_epoch(), epoch);
  ASSERT_TRUE(db().OpenDatabase(dir.string()).ok());
  EXPECT_EQ(db().cache_epoch(), ++epoch);
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace opinedb
