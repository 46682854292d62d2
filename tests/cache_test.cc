// Unit coverage for the caching layers (docs/CACHING.md):
//
//  - ResultCache: LRU eviction under the byte budget, hit-touch
//    recency, shard independence, epoch-mismatch misses, oversized
//    entries, Clear accounting.
//  - CanonicalQueryKey: whitespace / case / literal-formatting
//    invariance, LIMIT and literal-value sensitivity, AND-order
//    sensitivity (floating-point fold order is part of the result).
//  - InterpretationCache: epoch-keyed lookups and the deterministic
//    serialized form (bit-exact round trip, byte-identical re-save).
//  - Engine never-cache rules: EXPLAIN and forced-plan queries bypass
//    the result cache; partial (deadline) and degraded (fault) results
//    are never inserted; hits are bit-identical at every trace level;
//    SetQueryOptions invalidates what a knob change makes stale.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/result_json.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

using cache::CachedResult;
using cache::InterpretationCache;
using cache::ResultCache;

// ------------------------------------------------------- ResultCache.

/// A value whose ApproxBytes charge is predictable and adjustable via
/// the entity-name payload.
CachedResult MakeValue(size_t name_bytes) {
  CachedResult value;
  core::RankedResult r;
  r.entity = 1;
  r.entity_name.assign(name_bytes, 'x');
  r.score = 0.5;
  value.results.push_back(std::move(r));
  return value;
}

/// Keys that all land in the same shard (and, with distinct residues,
/// in different shards) — found by probing the fingerprint, which is
/// exactly the cache's shard selector.
std::vector<std::string> KeysInShard(uint64_t shard, size_t want) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < want && i < 100000; ++i) {
    std::string key = "key-" + std::to_string(i);
    if (ResultCache::Fingerprint(key) % 8 == shard) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

TEST(ResultCacheTest, LruEvictsUnderByteBudget) {
  // One shard's budget is total/8; entries charge ~1 KiB each via the
  // name payload, so the 4 KiB shard fits ~3 of them.
  ResultCache cache(8 * 4096);
  const auto keys = KeysInShard(0, 6);
  ASSERT_EQ(keys.size(), 6u);
  for (const auto& key : keys) {
    cache.Insert(key, 1, MakeValue(1024));
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), 4096u);
  EXPECT_LT(cache.size(), keys.size());
  // The newest key survived; the oldest was evicted first.
  CachedResult out;
  EXPECT_TRUE(cache.Lookup(keys.back(), 1, &out));
  EXPECT_FALSE(cache.Lookup(keys.front(), 1, &out));
}

TEST(ResultCacheTest, LookupTouchesRecency) {
  ResultCache cache(8 * 4096);
  const auto keys = KeysInShard(0, 4);
  ASSERT_EQ(keys.size(), 4u);
  // Two resident entries; A is older than B.
  cache.Insert(keys[0], 1, MakeValue(1024));
  cache.Insert(keys[1], 1, MakeValue(1024));
  // Touch A: now B is the eviction candidate.
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(keys[0], 1, &out));
  // Two more inserts force evictions; A must outlive B.
  cache.Insert(keys[2], 1, MakeValue(1024));
  cache.Insert(keys[3], 1, MakeValue(1024));
  EXPECT_TRUE(cache.Lookup(keys[0], 1, &out));
  EXPECT_FALSE(cache.Lookup(keys[1], 1, &out));
}

TEST(ResultCacheTest, ShardsEvictIndependently) {
  ResultCache cache(8 * 4096);
  const auto shard0 = KeysInShard(0, 3);
  const auto shard1 = KeysInShard(1, 1);
  ASSERT_EQ(shard0.size(), 3u);
  ASSERT_EQ(shard1.size(), 1u);
  // Fill shard 0 to its budget.
  for (const auto& key : shard0) cache.Insert(key, 1, MakeValue(1024));
  const size_t resident_before = cache.size();
  // Pressure on shard 1 must not evict anything from shard 0.
  cache.Insert(shard1[0], 1, MakeValue(1024));
  EXPECT_EQ(cache.size(), resident_before + 1);
  CachedResult out;
  for (const auto& key : shard0) {
    if (cache.Lookup(key, 1, &out)) continue;
    // Only shard-0 self-pressure may have evicted it, never shard 1.
    EXPECT_GT(shard0.size() * 1200, 4096u);
  }
}

TEST(ResultCacheTest, EpochMismatchIsAMissAndDropsTheEntry) {
  ResultCache cache(1 << 20);
  cache.Insert("k", 1, MakeValue(16));
  CachedResult out;
  EXPECT_FALSE(cache.Lookup("k", 2, &out));
  EXPECT_EQ(cache.size(), 0u) << "stale-epoch entry left resident";
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, OversizedEntriesAreNeverCached) {
  ResultCache cache(8 * 1024);  // 128-byte shard budget.
  EXPECT_EQ(cache.Insert("k", 1, MakeValue(1 << 16)), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, ClearResetsAccounting) {
  ResultCache cache(1 << 20);
  cache.Insert("a", 1, MakeValue(64));
  cache.Insert("b", 1, MakeValue(64));
  ASSERT_GT(cache.bytes(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  CachedResult out;
  EXPECT_FALSE(cache.Lookup("a", 1, &out));
}

TEST(ResultCacheTest, ReinsertReplacesInsteadOfDoubleCharging) {
  ResultCache cache(1 << 20);
  cache.Insert("k", 1, MakeValue(64));
  const size_t bytes_once = cache.bytes();
  cache.Insert("k", 1, MakeValue(64));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), bytes_once);
}

// -------------------------------------------------- CanonicalQueryKey.

std::string KeyOf(const std::string& sql) {
  auto query = core::ParseSubjectiveSql(sql);
  EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  return core::CanonicalQueryKey(*query);
}

TEST(CanonicalQueryKeyTest, WhitespaceAndCaseInvariantForPredicates) {
  EXPECT_EQ(KeyOf("select * from hotels where \"clean rooms\" limit 5"),
            KeyOf("SELECT  *  FROM hotels  WHERE \" Clean \t ROOMS \" "
                  "LIMIT 5"));
}

TEST(CanonicalQueryKeyTest, NumericLiteralFormattingMerges) {
  // `150` parses as an int literal, `150.0` as a double; the executor
  // compares them numerically, so they must share a key.
  EXPECT_EQ(
      KeyOf("select * from hotels where price_pn < 150 limit 5"),
      KeyOf("select * from hotels where price_pn < 150.0 limit 5"));
  EXPECT_NE(
      KeyOf("select * from hotels where price_pn < 150 limit 5"),
      KeyOf("select * from hotels where price_pn < 151 limit 5"));
}

TEST(CanonicalQueryKeyTest, LimitAndStructureAreKeyed) {
  EXPECT_NE(KeyOf("select * from hotels where \"clean rooms\" limit 5"),
            KeyOf("select * from hotels where \"clean rooms\" limit 6"));
  // AND order is floating-point fold order: a ⊗ b vs b ⊗ a may differ
  // in the last ulp, so reordered conjunctions must not share a key.
  EXPECT_NE(KeyOf("select * from hotels where \"clean rooms\" and "
                  "\"friendly staff\" limit 5"),
            KeyOf("select * from hotels where \"friendly staff\" and "
                  "\"clean rooms\" limit 5"));
  EXPECT_NE(KeyOf("select * from hotels where \"clean rooms\" and "
                  "\"friendly staff\" limit 5"),
            KeyOf("select * from hotels where \"clean rooms\" or "
                  "\"friendly staff\" limit 5"));
}

TEST(CanonicalQueryKeyTest, ExplainIsNotPartOfTheKey) {
  // The engine bypasses the cache for EXPLAIN; the key ignores the
  // flag so the executable query behind an EXPLAIN still correlates.
  EXPECT_EQ(
      KeyOf("select * from hotels where \"clean rooms\" limit 5"),
      KeyOf("explain select * from hotels where \"clean rooms\" limit 5"));
}

// ------------------------------------------------ InterpretationCache.

InterpretationCache::Entry MakeEntry(uint64_t epoch) {
  InterpretationCache::Entry entry;
  entry.interpretation.method = core::InterpretMethod::kWord2Vec;
  entry.interpretation.conjunctive = true;
  entry.interpretation.confidence = 0.625;
  core::AtomInterpretation atom;
  atom.attribute = 2;
  atom.marker = 1;
  atom.score = 0.1234567890123456789;  // Exercises max_digits10.
  entry.interpretation.atoms.push_back(atom);
  entry.rep = {0.25f, -1.0f / 3.0f, 7.25e-12f};
  entry.sentiment = -0.125;
  entry.epoch = epoch;
  return entry;
}

TEST(InterpretationCacheTest, EpochKeyedLookup) {
  InterpretationCache cache;
  cache.Insert("clean rooms", MakeEntry(3));
  InterpretationCache::Entry out;
  EXPECT_TRUE(cache.Lookup("clean rooms", 3, &out));
  EXPECT_FALSE(cache.Lookup("clean rooms", 4, &out));
  EXPECT_FALSE(cache.Lookup("quiet", 3, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("clean rooms", 3, &out));
}

TEST(InterpretationCacheTest, SerializedFormRoundTripsBitExactly) {
  InterpretationCache cache;
  cache.Insert("clean rooms", MakeEntry(3));
  auto second = MakeEntry(3);
  second.interpretation.method = core::InterpretMethod::kCooccurrence;
  second.rep.clear();  // Text-ish entry with no embedding.
  cache.Insert("quiet at night", second);

  std::ostringstream bytes;
  ASSERT_TRUE(cache::SaveInterpretationCache(cache, 3, &bytes).ok());
  InterpretationCache loaded;
  std::istringstream in(bytes.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 9, &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  InterpretationCache::Entry out;
  ASSERT_TRUE(loaded.Lookup("clean rooms", 9, &out));
  const auto reference = MakeEntry(3);
  EXPECT_EQ(out.interpretation.method, reference.interpretation.method);
  EXPECT_EQ(out.interpretation.conjunctive,
            reference.interpretation.conjunctive);
  EXPECT_EQ(out.interpretation.confidence,
            reference.interpretation.confidence);
  EXPECT_FALSE(out.interpretation.degraded);
  ASSERT_EQ(out.interpretation.atoms.size(), 1u);
  EXPECT_EQ(out.interpretation.atoms[0].attribute, 2);
  EXPECT_EQ(out.interpretation.atoms[0].marker, 1);
  EXPECT_EQ(out.interpretation.atoms[0].score,
            reference.interpretation.atoms[0].score);
  ASSERT_EQ(out.rep.size(), reference.rep.size());
  for (size_t i = 0; i < out.rep.size(); ++i) {
    EXPECT_EQ(out.rep[i], reference.rep[i]);
  }
  EXPECT_EQ(out.sentiment, reference.sentiment);
}

TEST(InterpretationCacheTest, ReserializingIsByteIdentical) {
  // Deterministic (sorted) output regardless of insertion order or the
  // hash-map iteration order of the instance — the persistence suite
  // pins save → open → save byte-identity on top of this.
  InterpretationCache a;
  a.Insert("zz last", MakeEntry(1));
  a.Insert("aa first", MakeEntry(1));
  a.Insert("mm mid", MakeEntry(1));
  std::ostringstream bytes_a;
  ASSERT_TRUE(cache::SaveInterpretationCache(a, 1, &bytes_a).ok());

  InterpretationCache b;
  std::istringstream in(bytes_a.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 5, &b).ok());
  std::ostringstream bytes_b;
  ASSERT_TRUE(cache::SaveInterpretationCache(b, 5, &bytes_b).ok());
  EXPECT_EQ(bytes_a.str(), bytes_b.str());
}

TEST(InterpretationCacheTest, SaveKeepsOnlyCurrentEpochEntries) {
  // The load re-tags every entry with the opening engine's epoch, so a
  // stale entry (one whose re-derivation failed at the last epoch bump)
  // that reached the payload would come back as a valid hit.
  InterpretationCache cache;
  cache.Insert("clean rooms", MakeEntry(4));
  cache.Insert("quiet at night", MakeEntry(3));
  std::ostringstream bytes;
  ASSERT_TRUE(cache::SaveInterpretationCache(cache, 4, &bytes).ok());
  InterpretationCache loaded;
  std::istringstream in(bytes.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 7, &loaded).ok());
  EXPECT_EQ(loaded.size(), 1u);
  InterpretationCache::Entry out;
  EXPECT_TRUE(loaded.Lookup("clean rooms", 7, &out));
  EXPECT_FALSE(loaded.Lookup("quiet at night", 7, &out))
      << "a stale-epoch entry round-tripped as fresh";
}

// Concurrent misses race: one query may re-insert the interpretation
// after another inserted it together with its degree list. The list
// must survive at the same epoch, and a later epoch replaces it.
TEST(InterpretationCacheTest, ListlessInsertKeepsResidentList) {
  InterpretationCache cache;
  auto with_list = MakeEntry(3);
  with_list.degrees =
      std::make_shared<const std::vector<double>>(std::vector{0.25, 0.5});
  cache.Insert("clean rooms", with_list);
  cache.Insert("clean rooms", MakeEntry(3));
  InterpretationCache::Entry out;
  ASSERT_TRUE(cache.Lookup("clean rooms", 3, &out));
  ASSERT_NE(out.degrees, nullptr);
  EXPECT_EQ(*out.degrees, *with_list.degrees);
  cache.Insert("clean rooms", MakeEntry(4));
  ASSERT_TRUE(cache.Lookup("clean rooms", 4, &out));
  EXPECT_EQ(out.degrees, nullptr);
}

// ------------------------------------------- engine never-cache rules.

class CacheEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 20;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 14;
    options.generator.seed = 67;
    options.seed = 67;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 30;
    options.membership_training_tuples = 400;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
    // The first pool predicate the cascade maps onto marker atoms, so
    // hits and fills are checked on the columnar atom-scoring path,
    // not just on BM25 text retrieval.
    for (const auto& predicate : artifacts_->pool) {
      if (!artifacts_->db->interpreter().Interpret(predicate.text)
               .atoms.empty()) {
        predicate_ = predicate.text;
        break;
      }
    }
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  void SetUp() override {
    ASSERT_FALSE(predicate_.empty())
        << "fixture pool has no predicate interpreted onto atoms";
    const auto interpretation = db().interpreter().Interpret(predicate_);
    ASSERT_NE(interpretation.method, core::InterpretMethod::kTextFallback);
    ASSERT_FALSE(interpretation.atoms.empty());
    saved_options_ = db().options();
    cache::CacheConfig on;
    on.enable_interpretation = true;
    on.enable_results = true;
    db().ConfigureCaches(on);
  }

  void TearDown() override {
    db().SetQueryOptions(saved_options_);
    db().ConfigureCaches(cache::CacheConfig());
    if (fault::CompiledIn()) fault::DisarmAll();
  }

  static core::OpineDb& db() { return *artifacts_->db; }

  static std::string Sql() {
    return "select * from hotels where \"" + predicate_ + "\" limit 5";
  }

  static eval::DomainArtifacts* artifacts_;
  /// See SetUpTestSuite.
  static std::string predicate_;
  core::EngineOptions saved_options_;
};

eval::DomainArtifacts* CacheEngineTest::artifacts_ = nullptr;
std::string CacheEngineTest::predicate_;

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

TEST_F(CacheEngineTest, HitIsBitIdenticalAcrossTraceLevels) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  EXPECT_EQ(db().result_cache()->hits(), 0u);
  ASSERT_EQ(db().result_cache()->size(), 1u);
  for (const auto level :
       {obs::TraceLevel::kOff, obs::TraceLevel::kStats,
        obs::TraceLevel::kFull}) {
    db().SetTraceLevel(level);
    const uint64_t hits_before = db().result_cache()->hits();
    auto hit = db().Execute(Sql());
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(db().result_cache()->hits(), hits_before + 1);
    EXPECT_EQ(hit->plan, fill->plan);
    ExpectBitIdentical(*fill, *hit);
    ASSERT_EQ(fill->interpretations.size(), hit->interpretations.size());
    for (size_t c = 0; c < fill->interpretations.size(); ++c) {
      EXPECT_EQ(fill->interpretations[c].method,
                hit->interpretations[c].method);
      EXPECT_EQ(fill->interpretations[c].confidence,
                hit->interpretations[c].confidence);
    }
  }
  db().SetTraceLevel(obs::TraceLevel::kOff);
}

// A hit serves the fill's bytes: the rendered document — watermark
// included — is the same whether the answer was executed or cached,
// for a dense scan and for a filtered scan that scores fewer entities.
TEST_F(CacheEngineTest, HitRendersTheSameJsonAsItsFill) {
  const std::string filtered =
      "select * from hotels where price_pn < 300 and \"" + predicate_ +
      "\" limit 5";
  for (const std::string& sql : {Sql(), filtered}) {
    SCOPED_TRACE(sql);
    auto fill = db().Execute(sql);
    ASSERT_TRUE(fill.ok()) << fill.status().ToString();
    const uint64_t hits_before = db().result_cache()->hits();
    auto hit = db().Execute(sql);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_EQ(db().result_cache()->hits(), hits_before + 1);
    EXPECT_GT(hit->watermark, 0u);
    EXPECT_EQ(core::ResultToJson(*fill), core::ResultToJson(*hit));
  }
}

TEST_F(CacheEngineTest, ExplainBypassesTheResultCache) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  const uint64_t hits_before = db().result_cache()->hits();
  auto explain = db().Execute("explain " + Sql());
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->plan_text.empty());
  EXPECT_TRUE(explain->results.empty());
  // Neither served from the cache nor inserted into it.
  EXPECT_EQ(db().result_cache()->hits(), hits_before);
  EXPECT_EQ(db().result_cache()->size(), 1u);
}

TEST_F(CacheEngineTest, ForcedPlansBypassTheResultCache) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  ASSERT_EQ(db().result_cache()->size(), 1u);
  core::EngineOptions dense = db().options();
  dense.force_plan = core::PlanForce::kDenseScan;
  db().SetQueryOptions(dense);
  // A forced shape changes no answer, so the caches stay warm.
  EXPECT_EQ(db().result_cache()->size(), 1u);
  const uint64_t hits_before = db().result_cache()->hits();
  auto forced = db().Execute(Sql());
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(db().result_cache()->hits(), hits_before);
  EXPECT_EQ(db().result_cache()->size(), 1u);
  // Forced execution is still bit-identical to the cached fill (plan
  // equivalence) — the bypass is about honoring the forced work, not
  // about different answers.
  ExpectBitIdentical(*fill, *forced);
}

TEST_F(CacheEngineTest, PartialResultsAreNeverCached) {
  core::QueryControl control;
  control.deadline = QueryDeadline::AfterMillis(0.0);
  auto partial = db().Execute(Sql(), control);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_TRUE(partial->partial);
  EXPECT_EQ(db().result_cache()->size(), 0u)
      << "a deadline-truncated result was cached";
  // And the poisoning direction: a full run now must not serve the
  // partial ranking.
  auto full = db().Execute(Sql());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(db().result_cache()->hits(), 0u);
  EXPECT_FALSE(full->partial);
}

TEST_F(CacheEngineTest, DegradedResultsAreNeverCached) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  fault::Arm("interpret.embed", 1);
  auto degraded = db().Execute(Sql());
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_TRUE(degraded->degraded);
  fault::DisarmAll();
  EXPECT_EQ(db().result_cache()->size(), 0u)
      << "a degraded result was cached";
  EXPECT_EQ(db().interpretation_cache()->size(), 0u)
      << "a degraded interpretation was cached";
}

TEST_F(CacheEngineTest, PredicateDegreeOfTruthCountsInterpretationHits) {
  // The single-predicate entry point consults the same interpretation
  // cache as the query path, so its traffic must reach the same hit and
  // miss counters (or the reported hit rate under-counts).
  db().SetTraceLevel(obs::TraceLevel::kStats);
  auto& registry = obs::MetricsRegistry::Global();
  const auto* hits = registry.GetCounter("engine.cache.interp_hit");
  const auto* misses = registry.GetCounter("engine.cache.interp_miss");
  const uint64_t hits_before = hits->Value();
  const uint64_t misses_before = misses->Value();
  const std::string& predicate = predicate_;
  const double first = db().PredicateDegreeOfTruth(predicate, 0);
  const double second = db().PredicateDegreeOfTruth(predicate, 0);
  db().SetTraceLevel(obs::TraceLevel::kOff);
  EXPECT_EQ(first, second);
  EXPECT_EQ(misses->Value() - misses_before, 1u);
  EXPECT_EQ(hits->Value() - hits_before, 1u);
}

// engine.entities_scored counts scoring work, not the ranked candidate
// set: a filtered query whose degree list misses scores every entity
// (the list serves later queries with any candidate set), and its
// repeat, served from the resident list, scores none.
TEST_F(CacheEngineTest, EntitiesScoredCountsDegreeListWork) {
  db().ConfigureCaches({.enable_interpretation = true});
  db().SetTraceLevel(obs::TraceLevel::kStats);
  const auto* scored =
      obs::MetricsRegistry::Global().GetCounter("engine.entities_scored");
  const std::string filtered =
      "select * from hotels where price_pn < 300 and \"" + predicate_ +
      "\" limit 5";
  const uint64_t num_entities = db().corpus().num_entities();
  const uint64_t before_first = scored->Value();
  auto first = db().Execute(filtered);
  const uint64_t after_first = scored->Value();
  auto repeat = db().Execute(filtered);
  const uint64_t after_repeat = scored->Value();
  db().SetTraceLevel(obs::TraceLevel::kOff);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  ASSERT_EQ(first->plan, core::PlanKind::kFilteredScan);
  ASSERT_LT(first->watermark, num_entities) << "the filter keeps everyone";
  EXPECT_EQ(after_first - before_first, num_entities);
  EXPECT_EQ(after_repeat - after_first, 0u);
}

TEST_F(CacheEngineTest, EpochBumpInvalidatesWholesale) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  ASSERT_GT(db().result_cache()->size(), 0u);
  ASSERT_GT(db().interpretation_cache()->size(), 0u);
  const uint64_t epoch_before = db().cache_epoch();
  // Reconfiguring at runtime is not a data mutation: the epoch stays,
  // a live interpretation layer keeps its warm entries, the result
  // layer is rebuilt empty, and a disabled layer is created on demand.
  const size_t interp_resident = db().interpretation_cache()->size();
  cache::CacheConfig config = db().options().cache;
  config.enable_interpretation = false;
  db().ConfigureCaches(config);
  EXPECT_EQ(db().interpretation_cache(), nullptr);
  config.enable_interpretation = true;
  db().ConfigureCaches(config);
  ASSERT_NE(db().interpretation_cache(), nullptr);
  EXPECT_EQ(db().interpretation_cache()->size(), 0u);
  ASSERT_TRUE(db().Execute(Sql()).ok());
  EXPECT_EQ(db().interpretation_cache()->size(), interp_resident);
  db().ConfigureCaches(config);
  EXPECT_EQ(db().cache_epoch(), epoch_before);
  EXPECT_EQ(db().interpretation_cache()->size(), interp_resident);
  ASSERT_NE(db().result_cache(), nullptr);
  EXPECT_EQ(db().result_cache()->size(), 0u);
  ASSERT_TRUE(db().Execute(Sql()).ok());
  ASSERT_GT(db().result_cache()->size(), 0u);
  const core::AggregationOptions original = db().options().aggregation;
  core::AggregationOptions changed = original;
  changed.fractional = !original.fractional;
  db().Reaggregate(changed);
  EXPECT_EQ(db().cache_epoch(), epoch_before + 1);
  EXPECT_EQ(db().result_cache()->size(), 0u);
  EXPECT_EQ(db().interpretation_cache()->size(), 0u);
  // The post-bump serving agrees with a cache-free engine over the new
  // summaries (then restore fixture state).
  const uint64_t hits_before = db().result_cache()->hits();
  auto after = db().Execute(Sql());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(db().result_cache()->hits(), hits_before);
  db().ConfigureCaches(cache::CacheConfig());
  auto cache_free = db().Execute(Sql());
  ASSERT_TRUE(cache_free.ok()) << cache_free.status().ToString();
  ExpectBitIdentical(*cache_free, *after);
  db().Reaggregate(original);
}

// An objective condition has no interpretation: its slot renders as
// null, never as something that reads like a real atom-less text
// fallback — on the fill and on the hit alike.
TEST_F(CacheEngineTest, ObjectiveSlotsRenderAsNull) {
  const std::string sql = "select * from hotels where price_pn < 300 and \"" +
                          predicate_ + "\" limit 5";
  auto fill = db().Execute(sql);
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  auto hit = db().Execute(sql);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  const std::string json = core::ResultToJson(*fill);
  EXPECT_NE(json.find("\"interpretations\": [\n    null,\n    {\"method\": "
                      "\"" +
                      std::string(core::InterpretMethodName(
                          fill->interpretations[1].method)) +
                      "\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("text_fallback"), std::string::npos) << json;
  EXPECT_EQ(json, core::ResultToJson(*hit));
}

/// Renders `sql` on a cache-free pass (the reference an engine with warm
/// caches must match byte for byte). Leaves the caches configured as
/// before but empty.
std::string UncachedJson(core::OpineDb& db, const std::string& sql) {
  const cache::CacheConfig config = db.options().cache;
  db.ConfigureCaches(cache::CacheConfig());
  auto result = db.Execute(sql);
  db.ConfigureCaches(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? core::ResultToJson(*result) : "";
}

// Changing the t-norm changes every conjunctive score, so a warm result
// cache must not keep serving the old variant's ranking.
TEST_F(CacheEngineTest, VariantChangeInvalidatesTheResultCache) {
  const std::string second = predicate_ == artifacts_->pool[0].text
                                 ? artifacts_->pool[1].text
                                 : artifacts_->pool[0].text;
  const std::string sql = "select * from hotels where \"" + predicate_ +
                          "\" and \"" + second + "\" limit 5";
  const std::string product_json = UncachedJson(db(), sql);
  ASSERT_TRUE(db().Execute(sql).ok());  // Warms the result cache.
  ASSERT_EQ(db().result_cache()->size(), 1u);
  const uint64_t epoch = db().cache_epoch();
  core::EngineOptions godel = db().options();
  godel.variant = fuzzy::Variant::kGodel;
  db().SetQueryOptions(godel);
  EXPECT_EQ(db().cache_epoch(), epoch + 1);
  auto served = db().Execute(sql);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::string godel_json = UncachedJson(db(), sql);
  ASSERT_NE(godel_json, product_json) << "the variants agree on this query";
  EXPECT_EQ(core::ResultToJson(*served), godel_json);
}

// The no-marker ablation scores atoms from the extraction relation
// instead of the marker summaries; warm degree lists computed with
// markers must not answer for it.
TEST_F(CacheEngineTest, UseMarkersChangeInvalidatesDegreeLists) {
  const std::string sql = Sql();
  const std::string markers_json = UncachedJson(db(), sql);
  ASSERT_TRUE(db().Execute(sql).ok());  // Warms the degree list.
  cache::InterpretationCache::Entry entry;
  ASSERT_TRUE(db().interpretation_cache()->Lookup(
      NormalizePredicate(predicate_), db().cache_epoch(), &entry));
  ASSERT_NE(entry.degrees, nullptr);
  // Served from the list, not from the result cache.
  db().ConfigureCaches({.enable_interpretation = true});
  core::EngineOptions no_markers = db().options();
  no_markers.use_markers = false;
  db().SetQueryOptions(no_markers);
  EXPECT_EQ(db().interpretation_cache()->size(), 0u);
  auto served = db().Execute(sql);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::string no_markers_json = UncachedJson(db(), sql);
  ASSERT_NE(no_markers_json, markers_json)
      << "the ablation agrees with the marker path on this query";
  EXPECT_EQ(core::ResultToJson(*served), no_markers_json);
}

}  // namespace
}  // namespace opinedb
