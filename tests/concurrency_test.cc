// Concurrency and determinism tests for the parallel execution layer:
// multi-threaded query execution must be bit-identical to serial on both
// integration fixtures, the thread-safe DegreeCache must be coherent
// under concurrent hammering, and the ThreadPool itself must partition
// deterministically. Run these under -DOPINEDB_SANITIZE=thread — they
// are the race-detection gate (see docs/SANITIZERS.md).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/degree_cache.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

// ------------------------------------------------------------ ThreadPool.

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(0, counts.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(0, 100, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Nested loop from (possibly) a worker thread: must run inline
      // rather than waiting on the already-busy queue.
      pool.ParallelFor(0, 8, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ThreadPoolTest, ConcurrentLoopsFromManyThreads) {
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::atomic<int> total{0};
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(0, 100, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](size_t begin, size_t) {
                         if (begin == 0) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
}

// ----------------------------------------------- Determinism fixtures.

class ConcurrencyTest : public ::testing::TestWithParam<const char*> {
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

  static core::OpineDb& Fixture(const std::string& name) {
    return name == "hotel" ? *hotel_->db : *restaurant_->db;
  }

  static std::vector<std::string> Queries(const std::string& name) {
    if (name == "hotel") {
      return {
          "select * from hotels where \"clean room\" limit 10",
          "select * from hotels where \"clean room\" and \"friendly "
          "staff\" limit 8",
          "select * from hotels where \"comfortable bed\" or \"quiet "
          "street\" limit 30",
          "select * from hotels limit 5",
      };
    }
    return {
        "select * from restaurants where \"delicious food\" limit 10",
        "select * from restaurants where \"delicious food\" and \"great "
        "service\" limit 8",
        "select * from restaurants where \"cozy atmosphere\" or \"fast "
        "service\" limit 25",
    };
  }

  static eval::DomainArtifacts* hotel_;
  static eval::DomainArtifacts* restaurant_;
};

eval::DomainArtifacts* ConcurrencyTest::hotel_ = nullptr;
eval::DomainArtifacts* ConcurrencyTest::restaurant_ = nullptr;

// Bit-identical means EXPECT_EQ on the raw doubles — no tolerance.
void ExpectIdenticalResults(const core::QueryResult& serial,
                            const core::QueryResult& parallel) {
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].entity, parallel.results[i].entity);
    EXPECT_EQ(serial.results[i].entity_name, parallel.results[i].entity_name);
    EXPECT_EQ(serial.results[i].score, parallel.results[i].score);
  }
}

TEST_P(ConcurrencyTest, ParallelQueriesBitIdenticalToSerial) {
  core::OpineDb& db = Fixture(GetParam());
  for (const auto& sql : Queries(GetParam())) {
    db.SetNumThreads(1);
    auto serial = db.Execute(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->stats.threads_used, 1u);
    for (size_t threads : {2, 4, 8}) {
      db.SetNumThreads(threads);
      auto parallel = db.Execute(sql);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->stats.threads_used, threads);
      ExpectIdenticalResults(*serial, *parallel);
    }
  }
  db.SetNumThreads(1);
}

TEST_P(ConcurrencyTest, DegreeCacheContentsBitIdenticalToSerial) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(1);
  core::DegreeCache serial_cache(&db);
  ASSERT_GT(serial_cache.PrecomputeMarkers(), 0u);

  db.SetNumThreads(4);
  core::DegreeCache parallel_cache(&db);
  EXPECT_EQ(parallel_cache.PrecomputeMarkers(), serial_cache.size());
  EXPECT_EQ(parallel_cache.size(), serial_cache.size());
  for (const auto& attribute : db.schema().attributes) {
    for (const auto& marker : attribute.summary_type.markers) {
      ASSERT_TRUE(parallel_cache.Contains(marker)) << marker;
      const auto& serial = serial_cache.Degrees(marker);
      const auto& parallel = parallel_cache.Degrees(marker);
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t e = 0; e < serial.size(); ++e) {
        EXPECT_EQ(serial[e], parallel[e]) << marker << " entity " << e;
      }
    }
  }
  db.SetNumThreads(1);
}

TEST_P(ConcurrencyTest, ExecutionStatsArepopulated) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(2);
  auto result = db.Execute(Queries(GetParam()).front());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.threads_used, 2u);
  EXPECT_EQ(result->stats.entities_scored, db.corpus().num_entities());
  // Without an attached cache every subjective list is a miss.
  EXPECT_EQ(result->stats.cache_hits, 0u);
  EXPECT_EQ(result->stats.cache_misses, 1u);
  EXPECT_GE(result->stats.total_ms, 0.0);
  EXPECT_GE(result->stats.scoring_ms, 0.0);
  db.SetNumThreads(1);
}

TEST_P(ConcurrencyTest, AttachedCacheServesHitsWithIdenticalResults) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(2);
  const auto sql = Queries(GetParam()).front();
  auto uncached = db.Execute(sql);
  ASSERT_TRUE(uncached.ok());

  core::DegreeCache cache(&db);
  db.AttachDegreeCache(&cache);
  auto cold = db.Execute(sql);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.cache_misses, 1u);
  auto warm = db.Execute(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_hits, 1u);
  EXPECT_EQ(warm->stats.cache_misses, 0u);
  db.AttachDegreeCache(nullptr);
  db.SetNumThreads(1);

  ExpectIdenticalResults(*uncached, *cold);
  ExpectIdenticalResults(*uncached, *warm);
}

TEST_P(ConcurrencyTest, ReaggregateBitIdenticalAcrossThreadCounts) {
  core::OpineDb& db = Fixture(GetParam());
  const auto sql = Queries(GetParam()).front();
  core::AggregationOptions filtered;
  filtered.min_reviewer_reviews = 2;

  db.SetNumThreads(1);
  db.Reaggregate(filtered);
  auto serial = db.Execute(sql);
  ASSERT_TRUE(serial.ok());

  db.SetNumThreads(4);
  db.Reaggregate(filtered);
  auto parallel = db.Execute(sql);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalResults(*serial, *parallel);

  // Restore the default aggregation for other tests.
  db.SetNumThreads(1);
  db.Reaggregate(core::AggregationOptions());
}

TEST_P(ConcurrencyTest, FullTracingPreservesBitIdentityContract) {
  // The observability layer must observe, never perturb: with the span
  // ring buffer on (trace_level=full), parallel execution stays
  // bit-identical to serial. Worker threads see no ambient trace
  // context, so this also exercises the span-free worker path under
  // -DOPINEDB_SANITIZE=thread.
  core::OpineDb& db = Fixture(GetParam());
  db.SetTraceLevel(obs::TraceLevel::kFull);
  for (const auto& sql : Queries(GetParam())) {
    db.SetNumThreads(1);
    auto serial = db.Execute(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_NE(serial->trace, nullptr);
    for (size_t threads : {2, 4, 8}) {
      db.SetNumThreads(threads);
      auto parallel = db.Execute(sql);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdenticalResults(*serial, *parallel);
      ASSERT_NE(parallel->trace, nullptr);
      EXPECT_FALSE(parallel->trace->Snapshot().empty());
    }
  }
  db.SetTraceLevel(obs::TraceLevel::kOff);
  db.SetNumThreads(1);
}

// ------------------------------------------------------ Cache stress.

TEST_P(ConcurrencyTest, SharedDegreeCacheSurvivesEightThreadHammer) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(4);  // Workers live under the stress threads too.
  core::DegreeCache cache(&db);

  // Overlapping predicate sets: every thread touches every predicate,
  // in a rotated order, so insert races are guaranteed.
  std::vector<std::string> predicates;
  for (const auto& attribute : db.schema().attributes) {
    for (const auto& marker : attribute.summary_type.markers) {
      predicates.push_back(marker);
    }
  }
  ASSERT_GE(predicates.size(), 4u);

  // Half the threads run a conjunctive query over the first two lists
  // through the attached cache while the others insert, so readers race
  // the shard locks from inside Execute too. Every answer must equal the
  // uncached reference bit for bit.
  const std::string table =
      std::string(GetParam()) == "hotel" ? "hotels" : "restaurants";
  const std::string conj_sql = "select * from " + table + " where \"" +
                               predicates[0] + "\" and \"" +
                               predicates[1] + "\" limit 3";
  const auto reference = db.Execute(conj_sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto matches_reference = [&reference](const core::QueryResult& run) {
    if (run.results.size() != reference->results.size()) return false;
    for (size_t i = 0; i < run.results.size(); ++i) {
      if (run.results[i].entity != reference->results[i].entity ||
          run.results[i].score != reference->results[i].score) {
        return false;
      }
    }
    return true;
  };
  db.AttachDegreeCache(&cache);

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::thread> hammers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < predicates.size(); ++i) {
          const auto& predicate =
              predicates[(i + static_cast<size_t>(t)) % predicates.size()];
          const auto& degrees = cache.Degrees(predicate);
          if (degrees.size() != db.corpus().num_entities()) {
            failures.fetch_add(1);
          }
          if (!cache.Contains(predicate)) failures.fetch_add(1);
        }
        if (t % 2 == 0) {
          auto run = db.Execute(conj_sql);
          if (!run.ok() || !matches_reference(*run)) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& hammer : hammers) hammer.join();
  db.AttachDegreeCache(nullptr);
  EXPECT_EQ(failures.load(), 0);

  // Coherence after the dust settles: contents equal a serial cache.
  db.SetNumThreads(1);
  core::DegreeCache serial_cache(&db);
  for (const auto& predicate : predicates) {
    const auto& expected = serial_cache.Degrees(predicate);
    const auto& actual = cache.Degrees(predicate);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(expected[e], actual[e]) << predicate << " entity " << e;
    }
  }
  const auto stats = cache.stats();
  // Every unique predicate was computed at least once and most lookups
  // were served from the cache.
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GT(stats.hits, stats.misses);
}

INSTANTIATE_TEST_SUITE_P(Domains, ConcurrencyTest,
                         ::testing::Values("hotel", "restaurant"));

}  // namespace
}  // namespace opinedb
