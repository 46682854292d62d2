// Columnar-vs-row differential harness (docs/SCALING.md): the engine's
// columnar scoring is a pure layout change, so for randomized fixture
// queries it must return bit-identical RankedResult lists — same
// entities, same names, same raw doubles — to a row reference executor
// written here against the engine's public scoring primitives, at 1 and
// 8 threads, with tracing off and full, with and without a warm degree
// cache, on the hotel and restaurant fixtures and on a generated scale
// fixture (OPINEDB_SCALE_TEST_ENTITIES entities; CI runs the Release
// sweep at 100k and the sanitizer sweeps at 20k). Also covers the
// use_markers = false ablation, a two-table catalog, the ColumnarTable
// predicate sweep cell-by-cell against BoundColumnPredicate::Matches
// and the InstallSummaries validation rules. Built as its own binary
// labeled `scale`.
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/columnar.h"
#include "core/degree_cache.h"
#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "datagen/scale.h"
#include "eval/experiment.h"
#include "fuzzy/logic.h"
#include "obs/metrics.h"
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

/// Row reference executor: answers `sql` from the engine's public
/// scoring primitives alone, sharing no operator, planner or scorer code
/// with Execute. Objective conditions bind against `table` and evaluate
/// with BoundColumnPredicate::Matches; each subjective condition is
/// interpreted afresh and folds AtomDegreeOfTruth over its atoms per
/// entity (or takes TextFallbackDegree). The WHERE tree combines per
/// entity, scores <= 0 drop, and the rest rank by (score desc, entity
/// asc) up to the limit.
core::QueryResult RowReference(const core::OpineDb& db,
                               const storage::Table& table,
                               const std::string& sql) {
  core::QueryResult out;
  auto query = core::ParseSubjectiveSql(sql);
  EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  if (!query.ok()) return out;
  EXPECT_EQ(query->table, table.name());
  const size_t n = db.corpus().num_entities();
  const fuzzy::Variant variant = db.options().variant;
  std::vector<std::vector<double>> degrees(query->conditions.size(),
                                           std::vector<double>(n, 0.0));
  for (size_t c = 0; c < query->conditions.size(); ++c) {
    const core::Condition& condition = query->conditions[c];
    std::vector<double>& list = degrees[c];
    if (condition.kind == core::Condition::Kind::kObjective) {
      auto bound = condition.objective.Bind(table);
      EXPECT_TRUE(bound.ok()) << sql;
      if (!bound.ok()) return out;
      for (size_t e = 0; e < n; ++e) {
        list[e] = bound->Matches(table, e) ? 1.0 : 0.0;
      }
      continue;
    }
    const std::string& predicate = condition.subjective;
    const core::PredicateInterpretation interpretation =
        db.interpreter().Interpret(predicate);
    const embedding::Vec rep = db.phrase_embedder().Represent(predicate);
    const double senti = db.analyzer().ScorePhrase(predicate);
    const auto& atoms = interpretation.atoms;
    for (size_t e = 0; e < n; ++e) {
      const auto entity = static_cast<text::EntityId>(e);
      if (interpretation.method == core::InterpretMethod::kTextFallback ||
          atoms.empty()) {
        list[e] = db.TextFallbackDegree(predicate, entity);
        continue;
      }
      for (size_t i = 0; i < atoms.size(); ++i) {
        const double d = db.AtomDegreeOfTruth(atoms[i], entity, rep, senti);
        list[e] = i == 0                     ? d
                  : interpretation.conjunctive ? fuzzy::And(variant, list[e], d)
                                               : fuzzy::Or(variant, list[e], d);
      }
    }
  }
  for (size_t e = 0; e < n; ++e) {
    const double score =
        query->where == nullptr
            ? 1.0
            : query->where->Evaluate(
                  variant, [&](size_t c) { return degrees[c][e]; });
    if (score <= 0.0) continue;
    core::RankedResult result;
    result.entity = static_cast<text::EntityId>(e);
    result.entity_name = db.corpus().entity_name(result.entity);
    result.score = score;
    out.results.push_back(std::move(result));
  }
  std::sort(out.results.begin(), out.results.end(),
            [](const core::RankedResult& a, const core::RankedResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (out.results.size() > query->limit) out.results.resize(query->limit);
  return out;
}

/// Runs the {1, 8 threads} x {off, full trace} engine sweep for each
/// query; every combination must match the row reference bit for bit.
void RunColumnarSweep(core::OpineDb& db, const storage::Table& table,
                      const std::vector<std::string>& queries) {
  for (const auto& sql : queries) {
    const core::QueryResult reference = RowReference(db, table, sql);
    for (const size_t threads : {1, 8}) {
      for (const auto level :
           {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
        SCOPED_TRACE(sql + " threads=" + std::to_string(threads) +
                     " trace=" + std::to_string(static_cast<int>(level)));
        db.SetNumThreads(threads);
        db.SetTraceLevel(level);
        auto run = db.Execute(sql);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ExpectBitIdentical(reference, *run);
      }
    }
  }
  db.SetNumThreads(1);
  db.SetTraceLevel(obs::TraceLevel::kOff);
}

/// The same sweep over an attached degree cache: the first run of each
/// predicate materializes its list, every later one is served warm.
void RunWarmCacheSweep(core::OpineDb& db, const storage::Table& table,
                       const std::vector<std::string>& queries) {
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  RunColumnarSweep(db, table, queries);
  db.AttachDegreeCache(nullptr);
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

  /// The BuildOptions::seed each fixture was built with.
  static uint64_t Seed(const std::string& name) {
    return name == "hotel" ? 31 : 32;
  }

  static const char* TableName(const std::string& name) {
    return name == "hotel" ? "hotels" : "restaurants";
  }

  /// A second objective table for the fixture's entities: one row per
  /// entity, columns the first table does not have.
  static storage::Table AnnexTable(const std::string& name) {
    storage::Table table(std::string(TableName(name)) + "_annex",
                         {{"stars", storage::ValueType::kInt},
                          {"district", storage::ValueType::kString}});
    const char* districts[] = {"north", "south", "harbour"};
    Rng rng(Seed(name) + 100);
    for (size_t e = 0; e < Fixture(name).db->corpus().num_entities(); ++e) {
      EXPECT_TRUE(table
                      .Append({storage::Value(static_cast<int64_t>(
                                   1 + rng.Below(5))),
                               storage::Value(std::string(
                                   districts[rng.Below(3)]))})
                      .ok());
    }
    return table;
  }

  /// Deterministic randomized workload mixing subjective leaves,
  /// objective filters (every comparison op), boolean structure and
  /// limit boundaries.
  static std::vector<std::string> MakeQueries(const std::string& name) {
    const eval::DomainArtifacts& artifacts = Fixture(name);
    const std::string table = TableName(name);
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
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  RunColumnarSweep(*artifacts.db, artifacts.domain.objective_table,
                   MakeQueries(GetParam()));
}

// The degree-cache list materialization also goes through the columnar
// scorer; queries over a warm cache must stay bit-identical too.
TEST_P(ColumnarEquivalenceTest, WarmDegreeCacheBitIdentical) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  RunWarmCacheSweep(*artifacts.db, artifacts.domain.objective_table,
                    MakeQueries(GetParam()));
}

// The Table 7 ablation (use_markers = false) scores every atom through
// the scorer's row arm — the no-marker featurization, never the columns
// — and must still match the reference bit for bit.
TEST_P(ColumnarEquivalenceTest, NoMarkerAblationMatchesRowReference) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  const uint64_t seed = Seed(GetParam());
  db.mutable_options()->use_markers = false;
  ASSERT_TRUE(db.TrainMembership(eval::MakeMembershipTuples(
                                     db, artifacts.domain, artifacts.pool,
                                     500, /*use_markers=*/false, seed + 2),
                                 seed + 3)
                  .ok());

  db.SetTraceLevel(obs::TraceLevel::kStats);
  auto& registry = obs::MetricsRegistry::Global();
  const auto* scans = registry.GetCounter("membership.scan_featurizations");
  const auto* sweeps =
      registry.GetCounter("membership.marker_featurizations");
  const uint64_t scans_before = scans->Value();
  const uint64_t sweeps_before = sweeps->Value();
  const std::string sql = "select * from " +
                          std::string(TableName(GetParam())) + " where \"" +
                          artifacts.pool[0].text + "\" limit 10";
  ASSERT_TRUE(db.Execute(sql).ok());
  db.SetTraceLevel(obs::TraceLevel::kOff);
  EXPECT_GT(scans->Value(), scans_before);
  EXPECT_EQ(sweeps->Value(), sweeps_before);

  RunColumnarSweep(db, artifacts.domain.objective_table,
                   MakeQueries(GetParam()));
  RunWarmCacheSweep(db, artifacts.domain.objective_table,
                    MakeQueries(GetParam()));

  // Restore the fixture's marker-mode engine exactly as BuildArtifacts
  // left it.
  db.mutable_options()->use_markers = true;
  ASSERT_TRUE(db.TrainMembership(eval::MakeMembershipTuples(
                                     db, artifacts.domain, artifacts.pool,
                                     500, /*use_markers=*/true, seed + 2),
                                 seed + 3)
                  .ok());
}

// With a second table in the catalog, each table keeps its own column
// mirror: a query on the first one, with a hard objective predicate and
// a soft one (under OR), matches the reference; so does one on the
// second table.
TEST_P(ColumnarEquivalenceTest, SecondObjectiveTableKeepsItsOwnMirror) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  const storage::Table annex = AnnexTable(GetParam());
  const Status added = db.SetObjectiveTable(annex);
  ASSERT_TRUE(added.ok() || added.code() == StatusCode::kAlreadyExists)
      << added.ToString();

  const std::string first = TableName(GetParam());
  const std::string hard = GetParam() == std::string("hotel")
                               ? "price_pn < 280"
                               : "price_range <= 2";
  std::vector<std::string> on_first;
  std::vector<std::string> on_annex;
  for (size_t i = 0; i < 3; ++i) {
    const std::string phrase = "\"" + artifacts.pool[i].text + "\"";
    on_first.push_back("select * from " + first + " where " + hard +
                       " and (rating > 2.5 or " + phrase + ") limit 1000");
    on_annex.push_back("select * from " + annex.name() +
                       " where stars >= 3 and (district = 'north' or " +
                       phrase + ") limit 1000");
  }
  RunColumnarSweep(db, artifacts.domain.objective_table, on_first);
  RunColumnarSweep(db, annex, on_annex);
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
  RunColumnarSweep(db, fixture_->objective_table, queries);
  RunWarmCacheSweep(db, fixture_->objective_table, queries);
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
        const auto compiled = columns.Compile(*bound);
        ++compiled_predicates;
        std::vector<uint8_t> match(table.num_rows(), 1);
        columns.FilterInto(compiled, &match);
        for (size_t row = 0; row < table.num_rows(); ++row) {
          const bool expected = bound->Matches(table, row);
          SCOPED_TRACE(column.name + " " +
                       storage::CompareOpSymbol(op) + " " +
                       literal.ToString() + " row " + std::to_string(row));
          EXPECT_EQ(core::ColumnarTable::Eval(compiled, row), expected);
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
  // Queries still execute against the (now empty) summaries, and still
  // match the row reference.
  const std::string sql = "select * from " + fixture.table_name +
                          " where \"" + fixture.subjective_predicates[0] +
                          "\" limit 5";
  RunColumnarSweep(db, fixture.objective_table, {sql});
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

}  // namespace
}  // namespace opinedb
