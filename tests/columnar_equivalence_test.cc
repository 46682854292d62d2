// Columnar-vs-row differential harness (docs/SCALING.md): the columnar
// data plane is a pure layout change, so for randomized fixture queries
// the engine must return bit-identical RankedResult lists — same
// entities, same names, same raw doubles — with columnar on and off, at
// 1 and 8 threads, with tracing off and full, on the hotel and
// restaurant fixtures and on a generated scale fixture
// (OPINEDB_SCALE_TEST_ENTITIES entities; CI runs the Release sweep at
// 100k and the sanitizer sweeps at 20k). Also covers the ColumnarTable
// predicate sweep cell-by-cell against BoundColumnPredicate::Matches,
// the InstallSummaries validation rules, and the runtime cache-shard
// knobs. Built as its own binary labeled `scale`.
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "core/columnar.h"
#include "core/degree_cache.h"
#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "datagen/scale.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "storage/table.h"

namespace opinedb {
namespace {

size_t ScaleTestEntities() {
  const char* env = std::getenv("OPINEDB_SCALE_TEST_ENTITIES");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 20000;
}

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

/// Runs the full {columnar off/on} x {1, 8 threads} x {off, full trace}
/// sweep for each query: the reference is the row path, serial, trace
/// off; every other combination must match it bit-for-bit.
void RunColumnarSweep(core::OpineDb& db,
                      const std::vector<std::string>& queries) {
  for (const auto& sql : queries) {
    db.SetColumnar(false);
    db.SetNumThreads(1);
    db.SetTraceLevel(obs::TraceLevel::kOff);
    auto reference = db.Execute(sql);
    ASSERT_TRUE(reference.ok())
        << sql << ": " << reference.status().ToString();
    for (const bool columnar : {false, true}) {
      for (const size_t threads : {1, 8}) {
        for (const auto level :
             {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
          SCOPED_TRACE(sql + " columnar=" + (columnar ? "on" : "off") +
                       " threads=" + std::to_string(threads) + " trace=" +
                       std::to_string(static_cast<int>(level)));
          db.SetColumnar(columnar);
          db.SetNumThreads(threads);
          db.SetTraceLevel(level);
          auto run = db.Execute(sql);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          ExpectBitIdentical(*reference, *run);
        }
      }
    }
  }
  db.SetColumnar(true);
  db.SetNumThreads(1);
  db.SetTraceLevel(obs::TraceLevel::kOff);
}

// ------------------------------------- Hotel / restaurant fixtures.

class ColumnarEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    {
      eval::BuildOptions options;
      options.generator.num_entities = 30;
      options.generator.min_reviews_per_entity = 10;
      options.generator.max_reviews_per_entity = 20;
      options.generator.seed = 31;
      options.seed = 31;
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
      options.generator.seed = 32;
      options.seed = 32;
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

  /// Deterministic randomized workload mixing subjective leaves,
  /// objective filters (every comparison op), boolean structure and
  /// limit boundaries.
  static std::vector<std::string> MakeQueries(const std::string& name) {
    const eval::DomainArtifacts& artifacts = Fixture(name);
    const std::string table = name == "hotel" ? "hotels" : "restaurants";
    std::vector<std::string> phrases;
    for (const auto& predicate : artifacts.pool) {
      if (phrases.size() >= 6) break;
      phrases.push_back(predicate.text);
    }
    const std::vector<std::string> objectives =
        name == "hotel"
            ? std::vector<std::string>{"price_pn < 280", "price_pn >= 150",
                                       "city = 'london'", "city != 'paris'",
                                       "rating > 2.5", "rating <= 4.0"}
            : std::vector<std::string>{"price_range <= 2",
                                       "cuisine = 'italian'",
                                       "cuisine != 'thai'", "rating > 2.5",
                                       "price_range >= 2", "rating < 4.5"};
    Rng rng(4321);
    auto phrase = [&] {
      return "\"" + phrases[rng.Below(phrases.size())] + "\"";
    };
    auto objective = [&] { return objectives[rng.Below(objectives.size())]; };
    const size_t limits[] = {0, 3, 10, 1000};
    std::vector<std::string> queries;
    for (int i = 0; i < 10; ++i) {
      std::string where;
      switch (i % 5) {
        case 0:  // Single subjective leaf (dense scan).
          where = phrase();
          break;
        case 1:  // Conjunctive all-subjective.
          where = phrase() + " and " + phrase();
          break;
        case 2:  // Hard objective + subjective (filtered scan, columnar
                 // predicate sweep).
          where = objective() + " and " + phrase();
          break;
        case 3:  // Two hard objectives + subjective.
          where = objective() + " and " + objective() + " and " + phrase();
          break;
        case 4:  // Objective under OR (soft) plus negation.
          where = "(" + objective() + " or " + phrase() + ") and not " +
                  phrase();
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

eval::DomainArtifacts* ColumnarEquivalenceTest::hotel_ = nullptr;
eval::DomainArtifacts* ColumnarEquivalenceTest::restaurant_ = nullptr;

TEST_P(ColumnarEquivalenceTest, ColumnarBitIdenticalToRow) {
  core::OpineDb& db = *Fixture(GetParam()).db;
  RunColumnarSweep(db, MakeQueries(GetParam()));
}

// The degree-cache list materialization also goes through the columnar
// scorer; queries over a warm cache must stay bit-identical too.
TEST_P(ColumnarEquivalenceTest, WarmDegreeCacheBitIdentical) {
  core::OpineDb& db = *Fixture(GetParam()).db;
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  RunColumnarSweep(db, MakeQueries(GetParam()));
  db.AttachDegreeCache(nullptr);
}

TEST_P(ColumnarEquivalenceTest, SetColumnarTogglesStoreWithoutEpochBump) {
  core::OpineDb& db = *Fixture(GetParam()).db;
  db.SetColumnar(true);
  EXPECT_NE(db.columnar_store(), nullptr);
  const uint64_t epoch = db.cache_epoch();
  db.SetColumnar(false);
  EXPECT_EQ(db.columnar_store(), nullptr);
  db.SetColumnar(true);
  EXPECT_NE(db.columnar_store(), nullptr);
  // Execution config, not a data mutation: cached results stay valid.
  EXPECT_EQ(db.cache_epoch(), epoch);
}

INSTANTIATE_TEST_SUITE_P(Domains, ColumnarEquivalenceTest,
                         ::testing::Values("hotel", "restaurant"));

// ------------------------------------------- Generated scale fixture.

class ScaleFixtureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScaleSpec spec;
    spec.num_entities = ScaleTestEntities();
    fixture_ = new datagen::ScaledFixture(datagen::BuildScaledFixture(spec));
  }

  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  static datagen::ScaledFixture* fixture_;
};

datagen::ScaledFixture* ScaleFixtureTest::fixture_ = nullptr;

TEST_F(ScaleFixtureTest, ColumnarBitIdenticalToRowAtScale) {
  core::OpineDb& db = *fixture_->db;
  ASSERT_EQ(db.corpus().num_entities(), fixture_->spec.num_entities);
  Rng rng(99);
  std::vector<std::string> queries;
  for (int i = 0; i < 6; ++i) {
    const std::string& predicate = fixture_->subjective_predicates[rng.Below(
        fixture_->subjective_predicates.size())];
    std::string where = "\"" + predicate + "\"";
    if (i % 2 == 1) {
      where = "price_pn < " + std::to_string(80 + 40 * i) + " and " + where;
    }
    queries.push_back("select * from " + fixture_->table_name + " where " +
                      where + " limit 10");
  }
  RunColumnarSweep(db, queries);
}

TEST_F(ScaleFixtureTest, FixtureIsDeterministic) {
  // Same spec, small entity count: summaries and rankings reproduce
  // exactly across independent builds.
  datagen::ScaleSpec spec;
  spec.num_entities = 500;
  datagen::ScaledFixture a = datagen::BuildScaledFixture(spec);
  datagen::ScaledFixture b = datagen::BuildScaledFixture(spec);
  ASSERT_EQ(a.quality.size(), b.quality.size());
  for (size_t e = 0; e < a.quality.size(); ++e) {
    ASSERT_EQ(a.quality[e], b.quality[e]);
  }
  const std::string sql = "select * from " + a.table_name + " where \"" +
                          a.subjective_predicates[0] + "\" limit 10";
  auto ra = a.db->Execute(sql);
  auto rb = b.db->Execute(sql);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ExpectBitIdentical(*ra, *rb);
}

// -------------------------------- ColumnarTable predicate differential.

storage::Table MixedTable() {
  storage::Table table("mixed", {{"name", storage::ValueType::kString},
                                 {"score", storage::ValueType::kDouble},
                                 {"count", storage::ValueType::kInt}});
  Rng rng(7);
  const char* names[] = {"alpha", "beta", "gamma", "delta", ""};
  for (int i = 0; i < 200; ++i) {
    storage::Value name = rng.Below(10) == 0
                              ? storage::Value::Null()
                              : storage::Value(std::string(names[rng.Below(5)]));
    storage::Value score = rng.Below(10) == 0
                               ? storage::Value::Null()
                               : storage::Value(rng.Uniform(-2.0, 5.0));
    storage::Value count =
        rng.Below(10) == 0
            ? storage::Value::Null()
            : storage::Value(static_cast<int64_t>(rng.Below(50)));
    EXPECT_TRUE(
        table.Append({std::move(name), std::move(score), std::move(count)})
            .ok());
  }
  return table;
}

TEST(ColumnarTableTest, EvalMatchesRowPredicateEverywhere) {
  storage::Table table = MixedTable();
  core::ColumnarTable columns(table);
  ASSERT_EQ(columns.num_rows(), table.num_rows());

  const std::vector<storage::Value> literals = {
      storage::Value(std::string("beta")),
      storage::Value(std::string("zeta")), storage::Value(std::string("")),
      storage::Value(1.5),
      storage::Value(static_cast<int64_t>(25)),
      storage::Value(static_cast<int64_t>(-1)),
      storage::Value::Null()};
  const storage::CompareOp ops[] = {
      storage::CompareOp::kEq, storage::CompareOp::kNe,
      storage::CompareOp::kLt, storage::CompareOp::kLe,
      storage::CompareOp::kGt, storage::CompareOp::kGe};
  size_t compiled_predicates = 0;
  for (const auto& column : table.columns()) {
    for (const auto& literal : literals) {
      for (const auto op : ops) {
        storage::ColumnPredicate predicate{column.name, op, literal};
        auto bound = predicate.Bind(table);
        ASSERT_TRUE(bound.ok());
        auto compiled = columns.Compile(*bound);
        ASSERT_TRUE(compiled.has_value())
            << column.name << " " << storage::CompareOpSymbol(op) << " "
            << literal.ToString();
        ++compiled_predicates;
        std::vector<uint8_t> match(table.num_rows(), 1);
        columns.FilterInto(*compiled, &match);
        for (size_t row = 0; row < table.num_rows(); ++row) {
          const bool expected = bound->Matches(table, row);
          SCOPED_TRACE(column.name + " " +
                       storage::CompareOpSymbol(op) + " " +
                       literal.ToString() + " row " + std::to_string(row));
          EXPECT_EQ(core::ColumnarTable::Eval(*compiled, row), expected);
          EXPECT_EQ(match[row] != 0, expected);
        }
      }
    }
  }
  EXPECT_EQ(compiled_predicates, 3u * literals.size() * 6u);
}

// --------------------------------------- InstallSummaries validation.

TEST(InstallSummariesTest, RejectsWrongShapes) {
  datagen::ScaleSpec spec;
  spec.num_entities = 200;
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;
  const size_t num_attributes = db.schema().num_attributes();

  // Wrong attribute count.
  EXPECT_FALSE(db.InstallSummaries({}).ok());

  // Wrong entity count in one attribute.
  std::vector<std::vector<core::MarkerSummary>> short_summaries;
  for (size_t a = 0; a < num_attributes; ++a) {
    short_summaries.emplace_back(
        a == 0 ? 100 : 200,
        core::MarkerSummary(&db.schema().attributes[a].summary_type, 4));
  }
  EXPECT_FALSE(db.InstallSummaries(std::move(short_summaries)).ok());
}

TEST(InstallSummariesTest, InstallBumpsEpochAndServesNewData) {
  datagen::ScaleSpec spec;
  spec.num_entities = 200;
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;
  const uint64_t epoch = db.cache_epoch();
  const size_t dim = db.phrase_embedder().dim();

  std::vector<std::vector<core::MarkerSummary>> summaries;
  for (size_t a = 0; a < db.schema().num_attributes(); ++a) {
    summaries.emplace_back(
        200, core::MarkerSummary(&db.schema().attributes[a].summary_type,
                                 dim));
  }
  ASSERT_TRUE(db.InstallSummaries(std::move(summaries)).ok());
  EXPECT_GT(db.cache_epoch(), epoch);
  // Queries still execute against the (now empty) summaries, row and
  // columnar alike.
  const std::string sql = "select * from " + fixture.table_name +
                          " where \"" + fixture.subjective_predicates[0] +
                          "\" limit 5";
  RunColumnarSweep(db, {sql});
}

// Regression (silent-wipe bugfix): InstallSummaries clears the
// extraction relation, so a later Reaggregate would rebuild the just-
// installed summaries from nothing. It must refuse with
// FailedPrecondition — zero epoch movement, installed data untouched —
// instead of silently zeroing every histogram as it used to.
TEST(InstallSummariesTest, ReaggregateAfterInstallIsRefused) {
  datagen::ScaleSpec spec;
  spec.num_entities = 200;
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;

  auto installed = db.tables().summaries;  // Same shape, same types.
  ASSERT_TRUE(db.InstallSummaries(std::move(installed)).ok());
  const uint64_t epoch = db.cache_epoch();
  const double mass_before = db.summary(0, 0).total_count() +
                             db.summary(0, 0).unmatched_count();

  auto status = db.Reaggregate(db.options().aggregation);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.cache_epoch(), epoch)
      << "a refused mutation must not bump the epoch";
  EXPECT_EQ(db.summary(0, 0).total_count() +
                db.summary(0, 0).unmatched_count(),
            mass_before)
      << "the installed summaries were modified by a refused Reaggregate";
}

// ------------------------------------------- Runtime shard knobs.

TEST(CacheShardKnobsTest, EngineHonorsConfiguredShardCounts) {
  eval::BuildOptions options;
  options.generator.num_entities = 12;
  options.generator.min_reviews_per_entity = 4;
  options.generator.max_reviews_per_entity = 8;
  options.seed = 77;
  options.generator.seed = 77;
  options.predicate_pool_size = 20;
  options.membership_training_tuples = 100;
  options.engine.cache.enable_results = true;
  options.engine.cache.enable_interpretation = true;
  options.engine.cache.result_cache_shards = 4;
  options.engine.cache.interp_cache_shards = 3;
  options.engine.degree_cache_shards = 5;
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(), options);
  core::OpineDb& db = *artifacts.db;

  ASSERT_NE(db.result_cache(), nullptr);
  EXPECT_EQ(db.result_cache()->num_shards(), 4u);

  core::DegreeCache degree_cache(&db);
  EXPECT_EQ(degree_cache.num_shards(), 5u);
  core::DegreeCache explicit_cache(&db, 2);
  EXPECT_EQ(explicit_cache.num_shards(), 2u);

  // Reconfigure at runtime: shard counts follow the new config.
  cache::CacheConfig config = db.options().cache;
  config.result_cache_shards = 2;
  config.interp_cache_shards = 7;
  db.ConfigureCaches(config);
  ASSERT_NE(db.result_cache(), nullptr);
  EXPECT_EQ(db.result_cache()->num_shards(), 2u);

  // Degenerate counts clamp to one shard instead of crashing.
  cache::CacheConfig degenerate = db.options().cache;
  degenerate.result_cache_shards = 0;
  degenerate.interp_cache_shards = 0;
  db.ConfigureCaches(degenerate);
  ASSERT_NE(db.result_cache(), nullptr);
  EXPECT_EQ(db.result_cache()->num_shards(), 1u);

  cache::InterpretationCache standalone(0);
  EXPECT_EQ(standalone.num_shards(), 1u);
  cache::ResultCache standalone_results(1 << 20, 0);
  EXPECT_EQ(standalone_results.num_shards(), 1u);
}

}  // namespace
}  // namespace opinedb
