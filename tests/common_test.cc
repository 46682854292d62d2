#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace opinedb {
namespace {

// ---------------------------------------------------------------- Status.

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::ParseError("").code(),      Status::NotSupported("").code(),
      Status::Internal("").code(),
  };
  EXPECT_EQ(codes.size(), 7u);
}

// ---------------------------------------------------------------- Result.

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.value_or(3), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(3), 3);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

// ------------------------------------------------------------------- Rng.

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 15);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, IntCoversInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(99);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.06);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(3);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, SampleIndicesAreDistinctAndInRange) {
  Rng rng(21);
  auto sample = rng.SampleIndices(50, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t idx : sample) EXPECT_LT(idx, 50u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(8);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ----------------------------------------------------------- StringUtil.

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("HeLLo World"), "hello world");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  abc  "), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto pieces = SplitWhitespace("  a \t b \n c ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "c");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(Join(pieces, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, PrefixSuffixContains) {
  EXPECT_TRUE(StartsWith("select *", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
  EXPECT_TRUE(EndsWith("rooms", "ms"));
  EXPECT_FALSE(EndsWith("ms", "rooms"));
  EXPECT_TRUE(Contains("really clean rooms", "clean"));
  EXPECT_FALSE(Contains("clean", "dirty"));
}

// ------------------------------------------------------------ Bytes.

TEST(BytesTest, IntegersAreLittleEndianAndRoundTrip) {
  std::string out;
  AppendU32(0x04030201u, &out);
  AppendU64(0x0c0b0a0908070605ull, &out);
  EXPECT_EQ(out, std::string("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a"
                             "\x0b\x0c",
                             12));
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xffffffffu},
                           uint64_t{0x8000000000000000ull},
                           ~uint64_t{0}}) {
    std::string bytes;
    AppendU32(static_cast<uint32_t>(v), &bytes);
    AppendU64(v, &bytes);
    size_t pos = 0;
    uint32_t narrow = 0;
    uint64_t wide = 0;
    ASSERT_TRUE(ReadU32(bytes, &pos, &narrow));
    ASSERT_TRUE(ReadU64(bytes, &pos, &wide));
    EXPECT_EQ(narrow, static_cast<uint32_t>(v));
    EXPECT_EQ(wide, v);
    EXPECT_EQ(pos, bytes.size());
  }
}

TEST(BytesTest, ReadsMayEndExactlyAtTheBufferEnd) {
  std::string bytes = "xx";
  AppendU32(7, &bytes);
  size_t pos = 2;
  uint32_t v = 0;
  ASSERT_TRUE(ReadU32(bytes, &pos, &v));
  EXPECT_EQ(v, 7u);
  EXPECT_EQ(pos, bytes.size());
  // Nothing left: the next read fails.
  EXPECT_FALSE(ReadU32(bytes, &pos, &v));

  std::string wide;
  AppendU64(9, &wide);
  pos = 0;
  uint64_t w = 0;
  ASSERT_TRUE(ReadU64(wide, &pos, &w));
  EXPECT_EQ(w, 9u);
  EXPECT_EQ(pos, wide.size());
}

TEST(BytesTest, ShortReadsFailWithoutAdvancing) {
  std::string bytes;
  AppendU64(0x0102030405060708ull, &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string_view prefix(bytes.data(), cut);
    size_t pos = 0;
    uint64_t wide = 42;
    // Six bytes hold a whole u32 but not a u64: the u64 read must not
    // consume the first half.
    EXPECT_FALSE(ReadU64(prefix, &pos, &wide)) << cut;
    EXPECT_EQ(pos, 0u);
    EXPECT_EQ(wide, 42u);
    if (cut < 4) {
      uint32_t narrow = 42;
      EXPECT_FALSE(ReadU32(prefix, &pos, &narrow)) << cut;
      EXPECT_EQ(pos, 0u);
      EXPECT_EQ(narrow, 42u);
    }
  }
  // A cursor already past the end is a short read, not an underflow.
  size_t pos = bytes.size() + 3;
  uint32_t narrow = 0;
  EXPECT_FALSE(ReadU32(bytes, &pos, &narrow));
  EXPECT_EQ(pos, bytes.size() + 3);
}

TEST(BytesTest, NetstringsRoundTripAndRejectOverLongLengths) {
  std::ostringstream out;
  WriteString("clean room", &out);
  WriteString("", &out);
  WriteString(std::string("a:b\n\0c", 6), &out);
  EXPECT_EQ(out.str(), std::string("10:clean room0:6:a:b\n\0c", 23));

  std::istringstream in(out.str());
  auto first = ReadString(&in, 16);
  auto empty = ReadString(&in, 16);
  auto binary = ReadString(&in, 16);
  ASSERT_TRUE(first.ok() && empty.ok() && binary.ok());
  EXPECT_EQ(*first, "clean room");
  EXPECT_EQ(*empty, "");
  EXPECT_EQ(*binary, std::string("a:b\n\0c", 6));

  // The ceiling is inclusive; one byte over is a ParseError.
  std::istringstream at_limit("4:abcd");
  EXPECT_TRUE(ReadString(&at_limit, 4).ok());
  std::istringstream over("5:abcde");
  auto rejected = ReadString(&over, 4);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);

  std::istringstream truncated("9:abc");
  EXPECT_FALSE(ReadString(&truncated, 16).ok());
  std::istringstream no_colon("3abc");
  EXPECT_FALSE(ReadString(&no_colon, 16).ok());
}

}  // namespace
}  // namespace opinedb
