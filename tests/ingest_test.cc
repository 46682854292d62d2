// Incremental-ingest battery (docs/PERSISTENCE.md §WAL): the
// differential proof that OpineDb::AppendReviews is an invisible
// optimization over rebuilding, plus the WAL-backed durability loop.
//
//  1. append ≡ rebuild: appending batches and then Reaggregate-ing the
//     extended extraction relation must not change a byte of any
//     answer — the additive fold is exact, not approximate;
//  2. lazy cache maintenance: per-entity data epochs move only for
//     touched entities, interpretation-cache entries and their degree
//     lists expire with the epoch and are re-derived on their next
//     lookup (bit-identical to a cold engine's), the exclusive fold
//     itself interprets nothing, and refused mutations leave the epoch
//     alone (min_reviewer_reviews, unknown entities);
//  3. durability: EnableWal → append → reopen-from-snapshot → EnableWal
//     replays the tail bit-identically; Checkpoint folds the log into
//     the next snapshot generation and retires the segment; the
//     storage.wal_* crash sites (torn append, failed fsync, fold crash)
//     each leave a state recovery repairs without losing an
//     acknowledged batch;
//  4. concurrency: appends and checkpoints under a live query hammer at
//     8 threads keep answers bit-identical to a single-threaded
//     reference engine fed the same batches (the tsan gate for the
//     ingest path's locking), and queries run to completion while a
//     checkpoint serializes its snapshot;
//  5. the HTTP front door: POST /reviews admission control and
//     POST /admin/checkpoint surface the same contracts over JSON.
//
// Crash-site tests self-skip when OPINEDB_FAULT_INJECTION is off.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/server.h"
#include "storage/wal.h"

namespace opinedb {
namespace {

namespace fs = std::filesystem;

/// One small, fully deterministic hotel-domain engine; every call with
/// the same seed yields bit-identical models, corpora and summaries.
eval::DomainArtifacts BuildEngine() {
  eval::BuildOptions options;
  options.generator.num_entities = 12;
  options.generator.min_reviews_per_entity = 5;
  options.generator.max_reviews_per_entity = 8;
  options.generator.seed = 83;
  options.seed = 83;
  options.extractor_training_sentences = 250;
  options.predicate_pool_size = 12;
  options.membership_training_tuples = 250;
  return eval::BuildArtifacts(datagen::HotelDomain(), options);
}

/// Deterministic review batches that actually extract opinions: bodies
/// reuse the hotel domain's vocabulary.
std::vector<text::Review> MakeBatch(uint64_t seed, int size,
                                    int32_t num_entities) {
  static const std::vector<std::string> kBodies = {
      "the room was very clean and the staff was friendly",
      "terrible noisy location but the bed was comfortable",
      "excellent breakfast and a spotless bathroom",
      "rude reception and the wifi never worked",
  };
  std::mt19937_64 rng(seed);
  std::vector<text::Review> batch;
  for (int i = 0; i < size; ++i) {
    text::Review review;
    review.entity = static_cast<int32_t>(rng() % num_entities);
    review.reviewer = 700 + static_cast<int32_t>(rng() % 9);
    review.date = 20260800 + static_cast<int32_t>(seed % 30);
    review.body = kBodies[rng() % kBodies.size()];
    batch.push_back(std::move(review));
  }
  return batch;
}

void ExpectBitIdentical(const core::QueryResult& want,
                        const core::QueryResult& got,
                        const std::string& context) {
  EXPECT_EQ(want.partial, got.partial) << context;
  EXPECT_EQ(want.degraded, got.degraded) << context;
  ASSERT_EQ(want.results.size(), got.results.size()) << context;
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(want.results[i].entity, got.results[i].entity)
        << context << " rank " << i;
    EXPECT_EQ(want.results[i].score, got.results[i].score)
        << context << " rank " << i;  // Bit-exact doubles.
  }
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = fs::path(::testing::TempDir()) /
           ("ingest_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void TearDown() override {
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir() const { return dir_.string(); }

  static std::vector<std::string> PoolQueries(
      const eval::DomainArtifacts& artifacts, size_t count) {
    std::vector<std::string> queries;
    const std::string table = artifacts.db->schema().objective_table;
    for (size_t i = 0; i < count && i < artifacts.pool.size(); ++i) {
      queries.push_back("select * from " + table + " where \"" +
                        artifacts.pool[i].text + "\" limit 10");
    }
    return queries;
  }

  static core::QueryResult MustExecute(core::OpineDb& db,
                                       const std::string& sql) {
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  }

  static void ExpectEnginesAgree(core::OpineDb& a, core::OpineDb& b,
                                 const std::vector<std::string>& queries,
                                 const std::string& context) {
    for (const std::string& sql : queries) {
      ExpectBitIdentical(MustExecute(a, sql), MustExecute(b, sql),
                         context + ": " + sql);
    }
  }

  fs::path dir_;
};

// ----------------------------------------------- Append ≡ rebuild.

TEST_F(IngestTest, AppendIsBitIdenticalToRebuildOfExtendedRelation) {
  eval::DomainArtifacts incremental = BuildEngine();
  eval::DomainArtifacts rebuilt = BuildEngine();
  const auto queries = PoolQueries(incremental, 8);
  const int32_t entities =
      static_cast<int32_t>(incremental.db->corpus().num_entities());

  for (uint64_t round = 0; round < 6; ++round) {
    const auto batch = MakeBatch(round, 1 + static_cast<int>(round % 4),
                                 entities);
    ASSERT_TRUE(incremental.db->AppendReviews(batch).ok());
    ASSERT_TRUE(rebuilt.db->AppendReviews(batch).ok());
  }
  // The rebuilt engine re-derives every summary from its (extended)
  // extraction relation; the incremental engine only ever folded
  // deltas. Their answers must not differ by a bit.
  ASSERT_TRUE(
      rebuilt.db->Reaggregate(rebuilt.db->options().aggregation).ok());
  ExpectEnginesAgree(*incremental.db, *rebuilt.db, queries,
                     "append vs rebuild");
  EXPECT_EQ(incremental.db->corpus().num_reviews(),
            rebuilt.db->corpus().num_reviews());
  // The interpreter itself: idf and the per-review lists reach answers
  // only through the co-occurrence stage, so compare every pool
  // predicate's interpretation — method, atoms and scores — bit for bit.
  for (const auto& predicate : incremental.pool) {
    const auto want = rebuilt.db->interpreter().Interpret(predicate.text);
    const auto got = incremental.db->interpreter().Interpret(predicate.text);
    EXPECT_TRUE(want == got) << "interpretation differs: " << predicate.text;
  }
}

TEST_F(IngestTest, AppendAcrossCheckpointsReplaysBitIdentically) {
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 8);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  for (uint64_t round = 0; round < 7; ++round) {
    ASSERT_TRUE(live.db
                    ->AppendReviews(MakeBatch(
                        200 + round, 1 + static_cast<int>(round % 3),
                        entities))
                    .ok());
    if (round % 2 == 1) {
      ASSERT_TRUE(live.db->Checkpoint().ok());
    }
  }
  // The last batch sits in the WAL tail past the newest generation:
  // recovery folds snapshot + tail and must land on the live state.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  EXPECT_EQ(recovered.db->snapshot_generation(),
            live.db->snapshot_generation());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->wal_acknowledged_bytes(),
            live.db->wal_acknowledged_bytes());
  ExpectEnginesAgree(*live.db, *recovered.db, queries,
                     "checkpoints interleaved with appends");
}

TEST_F(IngestTest, AppendUpdatesOnlyTouchedEntityEpochs) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());
  ASSERT_GE(entities, 3);

  const std::vector<std::vector<core::MarkerSummary>> before =
      db.tables().summaries;
  const uint64_t epoch_before = db.cache_epoch();

  text::Review review;
  review.entity = 1;
  review.reviewer = 901;
  review.date = 20260807;
  review.body = "the staff was friendly and the room was clean";
  ASSERT_TRUE(db.AppendReviews({review}).ok());

  EXPECT_EQ(db.cache_epoch(), epoch_before + 1)
      << "one batch bumps the global epoch exactly once";
  // The data itself: every untouched entity's marker summaries are
  // unchanged field by field, and the touched entity's moved.
  auto same = [](const core::MarkerSummary& a, const core::MarkerSummary& b) {
    if (a.num_markers() != b.num_markers() ||
        a.unmatched_count() != b.unmatched_count()) {
      return false;
    }
    for (size_t m = 0; m < a.num_markers(); ++m) {
      if (a.cell(m).count != b.cell(m).count ||
          a.cell(m).mean_sentiment != b.cell(m).mean_sentiment ||
          a.cell(m).centroid != b.cell(m).centroid) {
        return false;
      }
    }
    return true;
  };
  bool touched_changed = false;
  for (size_t a = 0; a < before.size(); ++a) {
    for (int32_t e = 0; e < entities; ++e) {
      const bool unchanged = same(before[a][e], db.summary(a, e));
      if (e == 1) {
        touched_changed = touched_changed || !unchanged;
      } else {
        EXPECT_TRUE(unchanged)
            << "attribute " << a << " entity " << e << " was not touched";
      }
    }
  }
  EXPECT_TRUE(touched_changed) << "entity 1's summaries did not change";
}

/// The resident degree list of `predicate` in `db`'s interpretation
/// cache at the current epoch, or nullptr.
std::shared_ptr<const std::vector<double>> ResidentList(
    const core::OpineDb& db, const std::string& predicate) {
  cache::InterpretationCache::Entry entry;
  if (!db.interpretation_cache()->Lookup(NormalizePredicate(predicate),
                                         db.cache_epoch(), &entry)) {
    return nullptr;
  }
  return entry.degrees;
}

// A degree list memoized before an append is stale afterwards; the next
// reader re-derives it, and what it reads is bit-identical to the list
// a cold engine fed the same batch computes.
TEST_F(IngestTest, MemoizedListRederivesLazilyAfterAppend) {
  eval::DomainArtifacts warm = BuildEngine();
  eval::DomainArtifacts cold = BuildEngine();
  warm.db->ConfigureCaches({.enable_interpretation = true});
  const auto queries = PoolQueries(warm, 4);
  for (const std::string& sql : queries) (void)MustExecute(*warm.db, sql);
  ASSERT_NE(ResidentList(*warm.db, warm.pool[0].text), nullptr);

  const auto batch = MakeBatch(
      5, 4, static_cast<int32_t>(warm.db->corpus().num_entities()));
  ASSERT_TRUE(warm.db->AppendReviews(batch).ok());
  ASSERT_TRUE(cold.db->AppendReviews(batch).ok());
  EXPECT_EQ(ResidentList(*warm.db, warm.pool[0].text), nullptr)
      << "the ingest re-tagged a resident degree list";

  cold.db->ConfigureCaches({.enable_interpretation = true});
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(MustExecute(*cold.db, queries[i]),
                       MustExecute(*warm.db, queries[i]), queries[i]);
    const auto want = ResidentList(*cold.db, warm.pool[i].text);
    const auto got = ResidentList(*warm.db, warm.pool[i].text);
    ASSERT_NE(want, nullptr) << queries[i];
    ASSERT_NE(got, nullptr) << queries[i];
    EXPECT_EQ(*want, *got) << queries[i];
  }
}

// Cache maintenance is one epoch bump: however many degree lists are
// resident, the exclusive fold re-interprets none of them.
TEST_F(IngestTest, AppendMakesNoInterpretCallsWithWarmLists) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  db.ConfigureCaches({.enable_interpretation = true});
  const std::string table = db.schema().objective_table;
  for (const auto& attribute : db.schema().attributes) {
    for (const auto& marker : attribute.summary_type.markers) {
      (void)MustExecute(db, "select * from " + table + " where \"" +
                                marker + "\" limit 3");
      ASSERT_NE(ResidentList(db, marker), nullptr) << marker;
    }
  }
  db.SetTraceLevel(obs::TraceLevel::kStats);
  const auto* calls =
      obs::MetricsRegistry::Global().GetCounter("interpreter.calls");
  const uint64_t calls_before = calls->Value();
  ASSERT_TRUE(db.AppendReviews(MakeBatch(9, 3, static_cast<int32_t>(
                                                   db.corpus().num_entities())))
                  .ok());
  const uint64_t fold_calls = calls->Value() - calls_before;
  db.SetTraceLevel(obs::TraceLevel::kOff);
  EXPECT_EQ(fold_calls, 0u);
}

// The ingest leaves interpretation-cache entries behind at the old
// epoch: a resident key misses, and the next query re-derives it from
// the post-ingest interpreter, answering exactly what an engine that
// never cached answers.
TEST_F(IngestTest, InterpretationCacheRederivesLazilyAfterAppend) {
  eval::DomainArtifacts cached = BuildEngine();
  eval::DomainArtifacts bare = BuildEngine();
  cache::CacheConfig on;
  on.enable_interpretation = true;
  cached.db->ConfigureCaches(on);
  const cache::InterpretationCache& interp =
      *cached.db->interpretation_cache();
  const auto queries = PoolQueries(cached, 3);
  for (const std::string& sql : queries) {
    (void)MustExecute(*cached.db, sql);
  }
  const std::string key = NormalizePredicate(cached.pool[0].text);
  cache::InterpretationCache::Entry entry;
  ASSERT_TRUE(interp.Lookup(key, cached.db->cache_epoch(), &entry));
  const size_t resident = interp.size();

  const auto batch = MakeBatch(
      71, 4, static_cast<int32_t>(cached.db->corpus().num_entities()));
  ASSERT_TRUE(cached.db->AppendReviews(batch).ok());
  ASSERT_TRUE(bare.db->AppendReviews(batch).ok());
  EXPECT_FALSE(interp.Lookup(key, cached.db->cache_epoch(), &entry))
      << "the ingest re-tagged a resident interpretation";
  EXPECT_EQ(interp.size(), resident);

  for (const std::string& sql : queries) {
    const core::QueryResult want = MustExecute(*bare.db, sql);
    const core::QueryResult got = MustExecute(*cached.db, sql);
    ExpectBitIdentical(want, got, "refill: " + sql);
    EXPECT_EQ(want.interpretations, got.interpretations) << sql;
  }
  EXPECT_TRUE(interp.Lookup(key, cached.db->cache_epoch(), &entry))
      << "the query after the ingest did not refill the key";
  EXPECT_EQ(interp.size(), resident);
}

// ------------------------------------------------- Refusal contracts.

TEST_F(IngestTest, RetroactiveReviewerFilterRefusesAppend) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  core::AggregationOptions filtered = db.options().aggregation;
  filtered.min_reviewer_reviews = 2;
  ASSERT_TRUE(db.Reaggregate(filtered).ok());

  const uint64_t epoch = db.cache_epoch();
  const size_t reviews = db.corpus().num_reviews();
  auto status = db.AppendReviews(
      MakeBatch(2, 1, static_cast<int32_t>(db.corpus().num_entities())));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.cache_epoch(), epoch) << "a refused append must be a no-op";
  EXPECT_EQ(db.corpus().num_reviews(), reviews);
}

TEST_F(IngestTest, UnknownEntityRefusesWholeBatch) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());

  auto batch = MakeBatch(3, 2, entities);
  batch[1].entity = entities + 5;  // Out of range.
  const uint64_t epoch = db.cache_epoch();
  const size_t reviews = db.corpus().num_reviews();
  auto status = db.AppendReviews(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.cache_epoch(), epoch);
  EXPECT_EQ(db.corpus().num_reviews(), reviews)
      << "validation precedes application: no partial batch";
}

// ------------------------------------------------------- Durability.

TEST_F(IngestTest, WalReplayRecoversAppendsBitIdentically) {
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 6);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  EXPECT_TRUE(live.db->wal_enabled());

  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  for (uint64_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(live.db->AppendReviews(MakeBatch(10 + round, 2, entities)).ok());
  }

  // Crash-recover into a second engine: snapshot + WAL tail must equal
  // the live engine's in-memory state, bit for bit.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->corpus().num_reviews(),
            live.db->corpus().num_reviews());
  ExpectEnginesAgree(*live.db, *recovered.db, queries, "wal replay");
}

TEST_F(IngestTest, CheckpointFoldsWalAndRetiresSegment) {
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 6);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  const uint64_t base = live.db->snapshot_generation();
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());

  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(20, 3, entities)).ok());
  ASSERT_TRUE(fs::exists(dir_ / storage::WalFileName(base)));

  ASSERT_TRUE(live.db->Checkpoint().ok());
  const uint64_t folded = live.db->snapshot_generation();
  EXPECT_GT(folded, base);
  EXPECT_FALSE(fs::exists(dir_ / storage::WalFileName(base)))
      << "a folded segment must be retired";
  EXPECT_TRUE(fs::exists(dir_ / storage::WalFileName(folded)))
      << "a fresh segment must be rotated in";
  EXPECT_TRUE(live.db->wal_enabled());

  // Post-checkpoint appends land in the new segment; recovery folds
  // snapshot + tail exactly as before.
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(21, 2, entities)).ok());
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  EXPECT_EQ(recovered.db->snapshot_generation(), folded);
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  ExpectEnginesAgree(*live.db, *recovered.db, queries, "post-checkpoint");
}

TEST_F(IngestTest, SaveDatabaseIsRefusedWhileWalIsAttached) {
  eval::DomainArtifacts artifacts = BuildEngine();
  ASSERT_TRUE(artifacts.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(artifacts.db->EnableWal(dir()).ok());
  auto status = artifacts.db->SaveDatabase(dir());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << "an out-of-band snapshot would orphan the active WAL segment";
}

TEST_F(IngestTest, CheckpointWithoutWalIsRefused) {
  eval::DomainArtifacts artifacts = BuildEngine();
  auto status = artifacts.db->Checkpoint();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- Crash-site sweep.

TEST_F(IngestTest, TornAppendAppliesNothingAndRecoveryRepairs) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 4);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(30, 2, entities)).ok());

  std::vector<core::QueryResult> goldens;
  for (const auto& sql : queries) goldens.push_back(MustExecute(*live.db, sql));
  const uint64_t epoch = live.db->cache_epoch();
  const size_t reviews = live.db->corpus().num_reviews();

  fault::Arm("storage.wal_short_write", 1);
  auto torn = live.db->AppendReviews(MakeBatch(31, 2, entities));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(fault::HitCount("storage.wal_short_write"), 1u);
  // Journal-first: a batch that never became durable must not have
  // touched the in-memory state either.
  EXPECT_EQ(live.db->cache_epoch(), epoch);
  EXPECT_EQ(live.db->corpus().num_reviews(), reviews);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(goldens[i], MustExecute(*live.db, queries[i]),
                       "after torn append");
  }

  // Recovery from the torn segment: the acknowledged batch replays, the
  // torn tail is truncated, and ingest resumes.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->corpus().num_reviews(), reviews);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(goldens[i], MustExecute(*recovered.db, queries[i]),
                       "after torn-tail recovery");
  }
  ASSERT_TRUE(recovered.db->AppendReviews(MakeBatch(32, 1, entities)).ok());
}

TEST_F(IngestTest, FsyncFailureAppliesNothing) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  const uint64_t epoch = live.db->cache_epoch();
  const size_t reviews = live.db->corpus().num_reviews();

  fault::Arm("storage.wal_fsync", 1);
  ASSERT_FALSE(live.db->AppendReviews(MakeBatch(40, 2, entities)).ok());
  EXPECT_EQ(fault::HitCount("storage.wal_fsync"), 1u);
  EXPECT_EQ(live.db->cache_epoch(), epoch);
  EXPECT_EQ(live.db->corpus().num_reviews(), reviews);

  // The rolled-back segment replays to the pre-failure state.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->corpus().num_reviews(), reviews);
}

TEST_F(IngestTest, FoldCrashLeavesRecoverableCommittedSnapshot) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 4);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  const uint64_t base = live.db->snapshot_generation();
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(50, 3, entities)).ok());

  // Crash between the checkpoint's snapshot commit and WAL retirement:
  // the new generation is durable, the old segment is stale droppings.
  fault::Arm("storage.wal_fold", 1);
  auto folded = live.db->Checkpoint();
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(fault::HitCount("storage.wal_fold"), 1u);
  EXPECT_FALSE(live.db->wal_enabled()) << "the crashed fold detaches the WAL";
  EXPECT_TRUE(fs::exists(dir_ / storage::WalFileName(base)))
      << "the stale segment survives the simulated crash";

  // Recovery serves the committed fold; the stale segment is ignored
  // (its base no longer matches) and retired by the next checkpoint.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  EXPECT_GT(recovered.db->snapshot_generation(), base);
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  ExpectEnginesAgree(*live.db, *recovered.db, queries, "post-fold-crash");
  ASSERT_TRUE(recovered.db->Checkpoint().ok());
  EXPECT_FALSE(fs::exists(dir_ / storage::WalFileName(base)))
      << "the next clean checkpoint sweeps stale segments";
}

TEST_F(IngestTest, DegradedRederivationDoesNotSurviveCheckpoint) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  cache::CacheConfig on;
  on.enable_interpretation = true;
  live.db->ConfigureCaches(on);
  const std::string key = NormalizePredicate(live.pool[0].text);
  (void)MustExecute(*live.db, PoolQueries(live, 1)[0]);
  ASSERT_EQ(live.db->interpretation_cache()->size(), 1u);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());

  // The ingest leaves the one resident key at the old epoch, and its
  // re-derivation by the next query degrades, so nothing refills it: a
  // miss from now on.
  ASSERT_TRUE(live.db
                  ->AppendReviews(MakeBatch(
                      70, 2,
                      static_cast<int32_t>(live.db->corpus().num_entities())))
                  .ok());
  fault::Arm("interpret.w2v", 1);
  const core::QueryResult degraded =
      MustExecute(*live.db, PoolQueries(live, 1)[0]);
  EXPECT_EQ(fault::HitCount("interpret.w2v"), 1u);
  fault::DisarmAll();
  EXPECT_TRUE(degraded.degraded);
  cache::InterpretationCache::Entry entry;
  EXPECT_FALSE(live.db->interpretation_cache()->Lookup(
      key, live.db->cache_epoch(), &entry));

  // A checkpoint must not carry the stale entry into the snapshot, where
  // the open would re-tag it with its fresh epoch and serve it as valid.
  ASSERT_TRUE(live.db->Checkpoint().ok());
  eval::DomainArtifacts reopened = BuildEngine();
  reopened.db->ConfigureCaches(on);
  ASSERT_TRUE(reopened.db->OpenDatabase(dir()).ok());
  EXPECT_FALSE(reopened.db->interpretation_cache()->Lookup(
      key, reopened.db->cache_epoch(), &entry))
      << "a stale-epoch entry came back as a valid hit after reopen";
}

// ------------------------------------------------------ Concurrency.

TEST_F(IngestTest, QueriesCompleteWhileCheckpointRuns) {
  using Clock = std::chrono::steady_clock;
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 4);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());

  // Grow the summaries (their provenance lists grow with every review)
  // until one checkpoint takes tens of ms and many times one query, so
  // a reader has room to run whole queries inside it.
  Timer query_timer;
  (void)MustExecute(*live.db, queries[0]);
  const double query_ms = query_timer.ElapsedMillis();
  double checkpoint_ms = 0.0;
  for (uint64_t round = 0;
       round < 64 && (checkpoint_ms < 30.0 || checkpoint_ms < 20 * query_ms);
       ++round) {
    ASSERT_TRUE(
        live.db->AppendReviews(MakeBatch(300 + round, 256, entities)).ok());
    Timer timer;
    ASSERT_TRUE(live.db->Checkpoint().ok());
    checkpoint_ms = timer.ElapsedMillis();
  }
  std::vector<core::QueryResult> goldens;
  for (const auto& sql : queries) goldens.push_back(MustExecute(*live.db, sql));

  struct Sample {
    Clock::time_point start, end;
    size_t query = 0;
    core::QueryResult result;
  };
  std::vector<Sample> samples;
  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0};
  std::thread reader([&] {
    // Bounded as well as stoppable, so a writer that never gets the
    // lock cannot hang the test.
    for (size_t i = 0; i < 200000 && !stop.load(); ++i) {
      Sample sample;
      sample.query = i % queries.size();
      sample.start = Clock::now();
      sample.result = MustExecute(*live.db, queries[sample.query]);
      sample.end = Clock::now();
      samples.push_back(std::move(sample));
      completed.fetch_add(1);
    }
  });
  while (completed.load() < 2) std::this_thread::yield();
  const Clock::time_point call = Clock::now();
  const Status folded = live.db->Checkpoint();
  const Clock::time_point returned = Clock::now();
  stop.store(true);
  reader.join();
  ASSERT_TRUE(folded.ok()) << folded.ToString();

  size_t inside = 0;
  for (const Sample& sample : samples) {
    ExpectBitIdentical(goldens[sample.query], sample.result,
                       "query beside a checkpoint");
    if (sample.start > call && sample.end < returned) ++inside;
  }
  EXPECT_GE(inside, 3u)
      << "queries must run while the checkpoint serializes its snapshot ("
      << checkpoint_ms << " ms per checkpoint, " << samples.size()
      << " queries in all)";
}

TEST_F(IngestTest, AppendsUnderQueryHammerStayBitIdentical) {
  eval::DomainArtifacts hammered = BuildEngine();
  eval::DomainArtifacts reference = BuildEngine();
  const auto queries = PoolQueries(hammered, 6);
  hammered.db->SetNumThreads(8);
  ASSERT_TRUE(hammered.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(hammered.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(hammered.db->corpus().num_entities());

  // Bounded reader loops (not a stop flag): a glibc shared_mutex lets
  // tight-loop readers starve the exclusive-locking writer, so the
  // readers must terminate on their own for the appends to land.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      for (int n = 0; n < 24; ++n) {
        auto result = hammered.db->Execute(queries[i % queries.size()]);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        ++i;
      }
    });
  }
  for (uint64_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(
        hammered.db->AppendReviews(MakeBatch(60 + round, 2, entities)).ok());
    if (round == 4) {
      ASSERT_TRUE(hammered.db->Checkpoint().ok());
    }
  }
  for (auto& thread : readers) thread.join();

  // The single-threaded reference engine fed the same batches must
  // agree bit-for-bit once the dust settles.
  for (uint64_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(
        reference.db->AppendReviews(MakeBatch(60 + round, 2, entities)).ok());
  }
  hammered.db->SetNumThreads(1);
  ExpectEnginesAgree(*hammered.db, *reference.db, queries, "under hammer");
}

// -------------------------------------------------- HTTP front door.

class IngestServerTest : public IngestTest {
 protected:
  static server::HttpRequest Post(const std::string& path,
                                  const std::string& body) {
    server::HttpRequest request;
    request.method = "POST";
    request.target = path;
    request.path = path;
    request.body = body;
    return request;
  }
};

TEST_F(IngestServerTest, ReviewsRouteAppendsAndReportsEpoch) {
  eval::DomainArtifacts artifacts = BuildEngine();
  server::QueryServer srv(artifacts.db.get());
  const size_t reviews = artifacts.db->corpus().num_reviews();

  auto response = srv.Handle(Post(
      "/reviews",
      R"({"reviews": [{"entity": 0, "reviewer": 901, "date": 20260808,)"
      R"( "body": "the staff was friendly and the room was clean"},)"
      R"( {"entity": 1, "reviewer": 902, "date": 20260808,)"
      R"( "body": "excellent breakfast and a spotless bathroom"}]})"));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"appended\": 2"), std::string::npos)
      << response.body;
  EXPECT_EQ(artifacts.db->corpus().num_reviews(), reviews + 2);
}

TEST_F(IngestServerTest, ReviewsRouteValidatesRequests) {
  eval::DomainArtifacts artifacts = BuildEngine();
  server::QueryServerOptions options;
  options.max_ingest_batch = 2;
  server::QueryServer srv(artifacts.db.get(), options);
  const size_t reviews = artifacts.db->corpus().num_reviews();

  server::HttpRequest get = Post("/reviews", "{}");
  get.method = "GET";
  EXPECT_EQ(srv.Handle(get).status, 405);
  EXPECT_EQ(srv.Handle(Post("/reviews", "not json")).status, 400);
  EXPECT_EQ(srv.Handle(Post("/reviews", "{}")).status, 400);
  EXPECT_EQ(srv.Handle(Post("/reviews", R"({"reviews": 3})")).status, 400);
  EXPECT_EQ(srv.Handle(Post("/reviews", R"({"reviews": [7]})")).status, 400);
  EXPECT_EQ(
      srv.Handle(Post("/reviews", R"({"reviews": [{"entity": 0}]})")).status,
      400);
  EXPECT_EQ(srv.Handle(Post("/reviews",
                            R"({"reviews": [{"entity": 0.5, "reviewer": 1,)"
                            R"( "date": 1, "body": "x"}]})"))
                .status,
            400)
      << "fractional ids are rejected, not rounded";
  // Admission control: a batch over the cap answers 400 before the
  // engine sees it.
  EXPECT_EQ(srv.Handle(Post("/reviews",
                            R"({"reviews": [)"
                            R"({"entity": 0, "reviewer": 1, "date": 1, "body": "a"},)"
                            R"({"entity": 0, "reviewer": 1, "date": 1, "body": "b"},)"
                            R"({"entity": 0, "reviewer": 1, "date": 1, "body": "c"}]})"))
                .status,
            400);
  // An unknown entity maps the engine's InvalidArgument onto 400.
  EXPECT_EQ(srv.Handle(Post("/reviews",
                            R"({"reviews": [{"entity": 999999,)"
                            R"( "reviewer": 1, "date": 1, "body": "x"}]})"))
                .status,
            400);
  EXPECT_EQ(artifacts.db->corpus().num_reviews(), reviews)
      << "no rejected request may mutate the corpus";
}

TEST_F(IngestServerTest, CheckpointRouteFoldsTheWal) {
  eval::DomainArtifacts artifacts = BuildEngine();
  server::QueryServer srv(artifacts.db.get());

  // Without a WAL the route surfaces the engine's FailedPrecondition
  // as a client error.
  EXPECT_EQ(srv.Handle(Post("/admin/checkpoint", "")).status, 400);

  ASSERT_TRUE(artifacts.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(artifacts.db->EnableWal(dir()).ok());
  const uint64_t base = artifacts.db->snapshot_generation();
  auto response = srv.Handle(Post(
      "/reviews",
      R"({"reviews": [{"entity": 0, "reviewer": 901, "date": 20260808,)"
      R"( "body": "rude reception and the wifi never worked"}]})"));
  ASSERT_EQ(response.status, 200) << response.body;

  auto folded = srv.Handle(Post("/admin/checkpoint", ""));
  EXPECT_EQ(folded.status, 200) << folded.body;
  EXPECT_GT(artifacts.db->snapshot_generation(), base);
  EXPECT_NE(folded.body.find("\"generation\""), std::string::npos);
}

}  // namespace
}  // namespace opinedb
