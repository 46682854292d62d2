// Plan-equivalence property test: for randomized fixture queries, every
// eligible physical plan (dense scan, filtered scan) must
// return bit-identical RankedResult lists — same entities, same names,
// same raw doubles — at 1 and 8 threads, with tracing off and full.
// This is the planner's §5b/§5c contract: plans trade work, never
// results. Run under -DOPINEDB_SANITIZE=thread like concurrency_test.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/rng.h"
#include "core/degree_cache.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

class PlanEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    {
      eval::BuildOptions options;
      options.generator.num_entities = 30;
      options.generator.min_reviews_per_entity = 10;
      options.generator.max_reviews_per_entity = 20;
      options.generator.seed = 21;
      options.seed = 21;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      hotel_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::HotelDomain(), options));
    }
    {
      eval::BuildOptions options;
      options.generator.num_entities = 25;
      options.generator.min_reviews_per_entity = 8;
      options.generator.max_reviews_per_entity = 16;
      options.generator.seed = 22;
      options.seed = 22;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      restaurant_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::RestaurantDomain(), options));
    }
  }

  static void TearDownTestSuite() {
    delete hotel_;
    hotel_ = nullptr;
    delete restaurant_;
    restaurant_ = nullptr;
  }

  static eval::DomainArtifacts& Fixture(const std::string& name) {
    return name == "hotel" ? *hotel_ : *restaurant_;
  }

  /// Randomized query workload over the fixture's predicate pool and
  /// its objective columns. Deterministic (fixed Rng seed) so failures
  /// reproduce; shapes cover every plan's eligibility conditions plus
  /// limit boundaries (0, < entities, > entities).
  static std::vector<std::string> MakeQueries(const std::string& name) {
    const eval::DomainArtifacts& artifacts = Fixture(name);
    const std::string table =
        name == "hotel" ? "hotels" : "restaurants";
    std::vector<std::string> phrases;
    for (const auto& predicate : artifacts.pool) {
      if (phrases.size() >= 6) break;
      phrases.push_back(predicate.text);
    }
    const std::vector<std::string> objectives =
        name == "hotel"
            ? std::vector<std::string>{"price_pn < 280", "price_pn >= 150",
                                       "city = 'london'", "rating > 2.5"}
            : std::vector<std::string>{"price_range <= 2",
                                       "cuisine = 'italian'", "rating > 2.5",
                                       "price_range >= 2"};
    Rng rng(1234);
    auto phrase = [&] {
      return "\"" + phrases[rng.Below(phrases.size())] + "\"";
    };
    auto objective = [&] { return objectives[rng.Below(objectives.size())]; };
    const size_t limits[] = {0, 3, 10, 1000};
    std::vector<std::string> queries;
    for (int i = 0; i < 10; ++i) {
      std::string where;
      switch (i % 5) {
        case 0:  // Single subjective leaf.
          where = phrase();
          break;
        case 1:  // Conjunctive all-subjective.
          where = phrase() + " and " + phrase();
          break;
        case 2:  // Hard objective + subjective (filtered scan).
          where = objective() + " and " + phrase();
          break;
        case 3:  // Objective under OR: not hard, second conjunct is.
          where = "(" + objective() + " or " + phrase() + ") and " +
                  phrase();
          break;
        case 4:  // Negation plus a hard objective conjunct.
          where = "not " + phrase() + " and " + objective();
          break;
      }
      queries.push_back("select * from " + table + " where " + where +
                        " limit " + std::to_string(limits[rng.Below(4)]));
    }
    queries.push_back("select * from " + table + " limit 7");
    return queries;
  }

  static eval::DomainArtifacts* hotel_;
  static eval::DomainArtifacts* restaurant_;
};

eval::DomainArtifacts* PlanEquivalenceTest::hotel_ = nullptr;
eval::DomainArtifacts* PlanEquivalenceTest::restaurant_ = nullptr;

// Bit-identical means EXPECT_EQ on the raw doubles — no tolerance.
void ExpectBitIdentical(const core::QueryResult& reference,
                        const core::QueryResult& actual) {
  ASSERT_EQ(reference.results.size(), actual.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].entity, actual.results[i].entity);
    EXPECT_EQ(reference.results[i].entity_name,
              actual.results[i].entity_name);
    EXPECT_EQ(reference.results[i].score, actual.results[i].score);
  }
}

TEST_P(PlanEquivalenceTest, EveryEligiblePlanBitIdenticalToDense) {
  core::OpineDb& db = *Fixture(GetParam()).db;
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  std::set<core::PlanKind> plans_run;
  for (const auto& sql : MakeQueries(GetParam())) {
    // Reference: the pre-planner dense path, serial, trace off. Running
    // it with the cache attached also warms every subjective predicate,
    // so the sweep below runs over resident lists.
    db.SetNumThreads(1);
    db.SetTraceLevel(obs::TraceLevel::kOff);
    db.mutable_options()->force_plan = core::PlanForce::kDenseScan;
    auto reference = db.Execute(sql);
    ASSERT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    ASSERT_EQ(reference->plan, core::PlanKind::kDenseScan);
    for (const auto force :
         {core::PlanForce::kAuto, core::PlanForce::kDenseScan,
          core::PlanForce::kFilteredScan}) {
      for (const size_t threads : {1, 8}) {
        for (const auto level :
             {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
          SCOPED_TRACE(sql + " force=" +
                       std::to_string(static_cast<int>(force)) +
                       " threads=" + std::to_string(threads) + " trace=" +
                       std::to_string(static_cast<int>(level)));
          db.SetNumThreads(threads);
          db.SetTraceLevel(level);
          db.mutable_options()->force_plan = force;
          auto run = db.Execute(sql);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          plans_run.insert(run->plan);
          ExpectBitIdentical(*reference, *run);
        }
      }
    }
  }
  // The sweep genuinely exercised both plan shapes (a silent
  // eligibility regression would funnel everything into dense).
  EXPECT_EQ(plans_run.size(), 2u);

  db.mutable_options()->force_plan = core::PlanForce::kAuto;
  db.SetTraceLevel(obs::TraceLevel::kOff);
  db.SetNumThreads(1);
  db.AttachDegreeCache(nullptr);
}

// With a cache attached, a warm conjunctive all-subjective query still
// plans dense_scan — the lists come from the cache instead of per-query
// scoring — and answers exactly what the uncached engine answers.
TEST_P(PlanEquivalenceTest, AutoPicksDenseOnWarmConjunctiveQueries) {
  core::OpineDb& db = *Fixture(GetParam()).db;
  const std::string table =
      std::string(GetParam()) == "hotel" ? "hotels" : "restaurants";
  const auto& pool = Fixture(GetParam()).pool;
  ASSERT_GE(pool.size(), 2u);
  const std::string sql = "select * from " + table + " where \"" +
                          pool[0].text + "\" and \"" + pool[1].text +
                          "\" limit 5";
  db.SetNumThreads(1);
  auto uncached = db.Execute(sql);
  ASSERT_TRUE(uncached.ok());
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  auto cold = db.Execute(sql);  // Makes both lists resident.
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->plan, core::PlanKind::kDenseScan);
  const core::DegreeCache::CacheStats before = cache.stats();
  auto warm = db.Execute(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->plan, core::PlanKind::kDenseScan);
  EXPECT_EQ(cache.stats().hits - before.hits, 2u);
  EXPECT_EQ(cache.stats().misses - before.misses, 0u);
  EXPECT_EQ(warm->watermark, db.corpus().num_entities());
  ExpectBitIdentical(*uncached, *warm);
  db.AttachDegreeCache(nullptr);
}

// §5e extension of the equivalence contract: an armed-but-never-firing
// QueryDeadline must be invisible. Rerunning the randomized workload
// under an effectively unlimited budget must stay bit-identical to the
// unbounded dense reference for every plan × thread count × trace
// level, with partial never set.
TEST_P(PlanEquivalenceTest, HugeDeadlineBudgetIsInvisible) {
  core::OpineDb& db = *Fixture(GetParam()).db;
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  core::QueryControl control;
  control.deadline = QueryDeadline::AfterMillis(1e9);
  for (const auto& sql : MakeQueries(GetParam())) {
    db.SetNumThreads(1);
    db.SetTraceLevel(obs::TraceLevel::kOff);
    db.mutable_options()->force_plan = core::PlanForce::kDenseScan;
    auto reference = db.Execute(sql);
    ASSERT_TRUE(reference.ok()) << sql << ": "
                                << reference.status().ToString();
    for (const auto force :
         {core::PlanForce::kAuto, core::PlanForce::kDenseScan,
          core::PlanForce::kFilteredScan}) {
      for (const size_t threads : {1, 8}) {
        for (const auto level :
             {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
          SCOPED_TRACE(sql + " force=" +
                       std::to_string(static_cast<int>(force)) +
                       " threads=" + std::to_string(threads) + " trace=" +
                       std::to_string(static_cast<int>(level)));
          db.SetNumThreads(threads);
          db.SetTraceLevel(level);
          db.mutable_options()->force_plan = force;
          auto run = db.Execute(sql, control);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          EXPECT_FALSE(run->partial);
          EXPECT_FALSE(run->degraded);
          ExpectBitIdentical(*reference, *run);
        }
      }
    }
  }
  db.mutable_options()->force_plan = core::PlanForce::kAuto;
  db.SetTraceLevel(obs::TraceLevel::kOff);
  db.SetNumThreads(1);
  db.AttachDegreeCache(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Domains, PlanEquivalenceTest,
                         ::testing::Values("hotel", "restaurant"));

}  // namespace
}  // namespace opinedb
