// Incremental-ingest battery (docs/PERSISTENCE.md §WAL): the
// differential proof that OpineDb::AppendReviews is an invisible
// optimization over rebuilding, plus the WAL-backed durability loop.
//
//  1. append ≡ rebuild: appending batches and then Reaggregate-ing the
//     extended extraction relation must not change a byte of any
//     answer — the additive fold is exact, not approximate;
//  2. surgical cache maintenance: per-entity data epochs move only for
//     touched entities, the attached degree cache stays warm for
//     untouched predicates/entities, and refused mutations leave the
//     epoch alone (min_reviewer_reviews, unknown entities);
//  3. durability: EnableWal → append → reopen-from-snapshot → EnableWal
//     replays the tail bit-identically; Checkpoint folds the log into
//     the next snapshot generation and retires the segment; the
//     storage.wal_* crash sites (torn append, failed fsync, fold crash)
//     each leave a state recovery repairs without losing an
//     acknowledged batch;
//  4. concurrency: appends and checkpoints under a live query hammer at
//     8 threads keep answers bit-identical to a single-threaded
//     reference engine fed the same batches (the tsan gate for the
//     ingest path's locking);
//  5. the HTTP front door: POST /reviews admission control and
//     POST /admin/checkpoint surface the same contracts over JSON.
//
// Crash-site tests self-skip when OPINEDB_FAULT_INJECTION is off.
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/degree_cache.h"
#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
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

TEST_F(IngestTest, DegreeCacheStaysWarmForUntouchedPredicates) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);

  // Warm one predicate list, then ingest. The refreshed cache must
  // serve it without recomputation — only touched entity slots are
  // patched in place.
  const std::string predicate = artifacts.pool[0].text;
  (void)cache.Degrees(predicate);
  const auto warm = cache.stats();

  ASSERT_TRUE(db.AppendReviews(MakeBatch(1, 2, static_cast<int32_t>(
                                                   db.corpus().num_entities())))
                  .ok());
  (void)cache.Degrees(predicate);
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, warm.hits + 1)
      << "ingest must not evict warm degree lists";
  EXPECT_EQ(after.misses, warm.misses);

  // The patched list itself must be bit-identical to a cold recompute.
  core::DegreeCache cold(&db);
  EXPECT_EQ(cache.Degrees(predicate), cold.Degrees(predicate));
  db.AttachDegreeCache(nullptr);
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

// ------------------------------------------------------ Concurrency.

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
