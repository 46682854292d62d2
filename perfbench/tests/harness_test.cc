// Unit tests of the benchmark's own helpers.

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, PicksTheRankCeilOfQTimesN) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);  // Unsorted input.
  EXPECT_EQ(NearestRank(values, 0.5), 50);
  EXPECT_EQ(NearestRank(values, 0.99), 99);
  EXPECT_EQ(NearestRank(values, 1.0), 100);
  EXPECT_EQ(NearestRank(values, 0.001), 1);
  EXPECT_EQ(NearestRank({7, 3, 5}, 0.5), 5);
  EXPECT_EQ(NearestRank({7, 3}, 0.5), 3);
  EXPECT_TRUE(std::isnan(NearestRank({}, 0.5)));
}

TEST(NearestRankTest, GuardRefusesATailWithTooFewSamples) {
  const std::vector<double> few(999, 1.0);
  EXPECT_EQ(GuardedPercentile("op", few, 0.5), 1.0);
  EXPECT_THROW(GuardedPercentile("op", few, 0.99), SampleGuardError);
  EXPECT_THROW(GuardedPercentile("op", {}, 0.5), SampleGuardError);
  const std::vector<double> enough(1000, 2.0);
  EXPECT_EQ(GuardedPercentile("op", enough, 0.99), 2.0);
}

TEST(NearestRankTest, BlockPercentileIsTheMedianOfPerBlockPercentiles) {
  // Three blocks of 1000 (the last absorbs the remainder); the middle one
  // holds a burst of slow samples that the median across blocks skips.
  std::vector<double> values;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) values.push_back(b == 1 ? 1000 : i);
  }
  values.push_back(5000);
  // Block p99s: 990, 1000 and 991 (rank 991 of the last 1001).
  EXPECT_EQ(BlockPercentile("op", values, 0.99), 991);
  EXPECT_EQ(BlockPercentile("op", values, 0.5), 501);
  EXPECT_THROW(BlockPercentile("op", std::vector<double>(999, 1.0), 0.5),
               SampleGuardError);
}

TEST(NearestRankTest, WindowedRateIsTheMedianWindow) {
  // 40 completions 100 ms apart, then a 2 s stall before the last ten.
  std::vector<double> done;
  for (int i = 1; i <= 40; ++i) done.push_back(i * 100.0);
  for (int i = 1; i <= 10; ++i) done.push_back(6000.0 + i * 100.0);
  // Five windows of ten: four at 10/s, one at 10 per 3 s.
  EXPECT_DOUBLE_EQ(WindowedRate(done, 5), 10.0);
  EXPECT_DOUBLE_EQ(WindowedRate({500.0, 1000.0}, 5), 2.0);
}

TEST(NearestRankTest, HistogramPercentileAndMeanOfADelta) {
  MetricsSnapshot snapshot;
  // 10 observations <= 1, 10 in (1, 5], none above.
  snapshot.histograms["h"] = {{1.0, 5.0}, {10, 10, 0}};
  double count = 0;
  EXPECT_DOUBLE_EQ(HistogramPercentile(snapshot, "h", 0.5, &count), 1.0);
  EXPECT_EQ(count, 20);
  EXPECT_DOUBLE_EQ(HistogramPercentile(snapshot, "h", 0.75, &count), 3.0);
  EXPECT_TRUE(std::isnan(HistogramPercentile(snapshot, "x", 0.5, &count)));
  snapshot.histogram_sums["h"] = 50.0;
  EXPECT_DOUBLE_EQ(HistogramMean(snapshot, "h"), 2.5);
  MetricsSnapshot before = snapshot;
  before.histograms["h"].second = {10, 0, 0};
  before.histogram_sums["h"] = 10.0;
  const MetricsSnapshot delta = MetricsDelta(before, snapshot);
  EXPECT_DOUBLE_EQ(HistogramMean(delta, "h"), 4.0);
}

std::string GeneratedInputs(uint64_t seed) {
  std::vector<std::string> pool;
  for (int i = 0; i < 190; ++i) {
    pool.push_back("predicate " + std::to_string(i));
  }
  std::string out;
  for (const auto& sql : MakeServeReadCatalogue(pool, "hotels", 400, seed)) {
    out += sql + "\n";
  }
  for (const auto& stream : MakeStreams(400, 4, 5000, 0.9, seed)) {
    for (const uint32_t q : stream) out += std::to_string(q) + ",";
    out += "\n";
  }
  SplitMix64 rng(seed);
  std::vector<ReviewInput> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(ReviewInput{static_cast<int32_t>(rng.Below(120)), i,
                                20260101, "clean room " + std::to_string(
                                              rng.Below(1000))});
  }
  return out + ReviewBatchJson(batch);
}

TEST(SeededInputsTest, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(GeneratedInputs(7), GeneratedInputs(7));
  EXPECT_NE(GeneratedInputs(7), GeneratedInputs(8));
}

TEST(SeededInputsTest, ServeReadShapeMixIsSeedIndependent) {
  std::vector<std::string> pool;
  for (int i = 0; i < 190; ++i) {
    pool.push_back("predicate " + std::to_string(i));
  }
  for (const uint64_t seed : {1, 2, 3}) {
    size_t filtered = 0;
    for (const auto& sql : MakeServeReadCatalogue(pool, "hotels", 90, seed)) {
      if (sql.find(" and (") != std::string::npos) ++filtered;
    }
    EXPECT_EQ(filtered, 30u) << "seed " << seed;
  }
}

TEST(OpenLoopTest, LatencyIsTimedFromTheDueTime) {
  // Requests due every 2 ms; request 3 stalls for 40 ms. The requests
  // queued behind it are sent late, and their latency counts the wait.
  const auto start = Clock::now();
  auto send = [](size_t i) {
    if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return true;
  };
  const auto samples =
      RunOpenLoop(start, 2.0, 0, 1, 20.0, send, [] { return false; });
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_GE(samples[3].latency_ms(), 40.0);
  // Request 4 was due at 8 ms but could not go before ~46 ms.
  EXPECT_GE(samples[4].latency_ms(), 30.0);
  EXPECT_GE(samples[4].late_ms(), 30.0);
  // Service time alone (done - sent) hides the stall for request 4.
  EXPECT_LT(samples[4].done_ms - samples[4].sent_ms, 5.0);
  EXPECT_LT(samples[0].latency_ms(), 5.0);
}

TEST(OpenLoopTest, StrideSplitsTheScheduleAcrossSenders) {
  const auto start = Clock::now();
  const auto samples = RunOpenLoop(start, 1.0, 1, 2, 9.0,
                                   [](size_t) { return true; },
                                   [] { return false; });
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].index, 1u);
  EXPECT_EQ(samples[3].index, 7u);
  EXPECT_DOUBLE_EQ(samples[3].due_ms, 7.0);
}

TEST(SelfTimeTest, SelfTimeIsDurationMinusTheChildrenCoveredPart) {
  std::vector<Span> spans(5);
  spans[0] = Span{1, 0, "root", 0.0, 10.0};
  spans[1] = Span{2, 1, "a", 1.0, 2.0};   // [1, 3]
  spans[2] = Span{3, 1, "b", 2.0, 3.0};   // [2, 5], overlaps a
  spans[3] = Span{4, 1, "c", 8.0, 4.0};   // [8, 12], clipped to 10
  spans[4] = Span{5, 3, "d", 2.5, 1.0};   // grandchild, inside b
  const auto self = SelfTimes(spans);
  // Children cover [1, 5] and [8, 10]: 6 of the root's 10 ms.
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(SelfTimeTest, ParsesTheEngineSpanArray) {
  const std::string body =
      "{\"results\": [], \"trace\": [\n"
      "  {\"id\": 2, \"parent_id\": 1, \"seq\": 0, \"name\": \"score\", "
      "\"start_ms\": 0.5, \"duration_ms\": 1.5, \"attributes\": {\"k\": "
      "\"v\"}},\n"
      "  {\"id\": 1, \"parent_id\": 0, \"seq\": 1, \"name\": "
      "\"execute_query\", \"start_ms\": 0, \"duration_ms\": 2.5, "
      "\"attributes\": {}}\n]}";
  std::vector<Span> spans;
  auto doc = opinedb::server::JsonValue::Parse(body);
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(ParseEngineSpans(*doc, &spans));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "score");
  EXPECT_DOUBLE_EQ(SelfTimes(spans)[1], 1.0);
  EXPECT_FALSE(ParseEngineSpans(
      *opinedb::server::JsonValue::Parse("{\"results\": []}"), &spans));
}

TEST(ReportTest, ResultLineHasExactlyTheContractKeys) {
  Report report;
  report.Add("latency_ms", 1.25, "ms", 10);
  report.Add("missing", std::nan(""), "ms");
  EXPECT_EQ(report.ResultLine(true, 12, 0),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"missing\": {\"value\": 0, \"unit\": \"ms\"}}}");
}

TEST(ReportTest, RepeatShareCountsEarlierOccurrences) {
  EXPECT_DOUBLE_EQ(RepeatShare({"a", "b", "a", "a"}), 0.5);
  EXPECT_DOUBLE_EQ(RepeatShare({}), 0.0);
}

}  // namespace
}  // namespace perfbench
