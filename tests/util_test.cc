// Unit tests for the util layer: Status/Result, RNG, field arithmetic,
// hashing, 128-bit helpers, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/field.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/status.h"
#include "util/table.h"
#include "util/uint128.h"
#include "util/zeroed_buffer.h"

namespace gms {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::DecodeFailure("no level");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDecodeFailure());
  EXPECT_EQ(s.ToString(), "DecodeFailure: no level");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::InvalidArgument("x").ToString(), "InvalidArgument: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::Unimplemented("x").ToString(), "Unimplemented: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value_or(7), 41);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::DecodeFailure("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDecodeFailure());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Uint128Test, ToString) {
  EXPECT_EQ(U128ToString(0), "0");
  EXPECT_EQ(U128ToString(12345), "12345");
  u128 big = static_cast<u128>(1) << 100;
  EXPECT_EQ(U128ToString(big), "1267650600228229401496703205376");
  EXPECT_EQ(I128ToString(-static_cast<i128>(42)), "-42");
}

TEST(Uint128Test, Log2AndBitWidth) {
  EXPECT_EQ(Log2Floor128(1), 0);
  EXPECT_EQ(Log2Floor128(2), 1);
  EXPECT_EQ(Log2Floor128(3), 1);
  EXPECT_EQ(Log2Floor128(static_cast<u128>(1) << 90), 90);
  EXPECT_EQ(BitWidth128(0), 0);
  EXPECT_EQ(BitWidth128(1), 1);
  EXPECT_EQ(BitWidth128((static_cast<u128>(1) << 77) - 1), 77);
}

TEST(RandomTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, BelowIsInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RandomTest, BelowRoughlyUniform) {
  Rng rng(2);
  std::vector<int> counts(10, 0);
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.Below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10, 5 * std::sqrt(kSamples / 10.0));
  }
}

TEST(RandomTest, RangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);  // all of -2..2 hit
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, ShufflePreservesMultiset) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  Shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(FieldTest, ReduceBasics) {
  EXPECT_EQ(FpReduce(0), 0u);
  EXPECT_EQ(FpReduce(kMersenne61), 0u);
  EXPECT_EQ(FpReduce(kMersenne61 + 5), 5u);
  EXPECT_EQ(FpReduceFull(~static_cast<u128>(0)),
            FpReduceFull(~static_cast<u128>(0)));
  EXPECT_LT(FpReduceFull(~static_cast<u128>(0)), kMersenne61);
}

TEST(FieldTest, AddSubNegRoundTrip) {
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    uint64_t a = rng.Below(kMersenne61), b = rng.Below(kMersenne61);
    EXPECT_EQ(FpSub(FpAdd(a, b), b), a);
    EXPECT_EQ(FpAdd(a, FpNeg(a)), 0u);
  }
}

TEST(FieldTest, MulMatchesReference) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Below(kMersenne61), b = rng.Below(kMersenne61);
    u128 expect = static_cast<u128>(a) * b % kMersenne61;
    EXPECT_EQ(FpMul(a, b), static_cast<uint64_t>(expect));
  }
}

TEST(FieldTest, PowAndInverse) {
  EXPECT_EQ(FpPow(2, 10), 1024u);
  EXPECT_EQ(FpPow(5, 0), 1u);
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    uint64_t a = rng.Below(kMersenne61 - 1) + 1;
    EXPECT_EQ(FpMul(a, FpInv(a)), 1u);
  }
  // Fermat: a^(p-1) = 1.
  EXPECT_EQ(FpPow(123456789, kMersenne61 - 1), 1u);
}

TEST(FieldTest, FromInt64HandlesNegatives) {
  EXPECT_EQ(FpFromInt64(0), 0u);
  EXPECT_EQ(FpFromInt64(5), 5u);
  EXPECT_EQ(FpFromInt64(-5), kMersenne61 - 5);
  EXPECT_EQ(FpAdd(FpFromInt64(-5), FpFromInt64(5)), 0u);
}

TEST(FieldTest, FromInt64ExtremeValues) {
  // INT64_MIN has no positive counterpart in int64_t; the negation must
  // happen in unsigned space. 2^63 mod (2^61 - 1) = 4, so -2^63 maps to
  // p - 4.
  EXPECT_EQ(FpFromInt64(std::numeric_limits<int64_t>::min()),
            kMersenne61 - 4);
  EXPECT_EQ(FpAdd(FpFromInt64(std::numeric_limits<int64_t>::min()), 4), 0u);
  // INT64_MAX = 2^63 - 1 = 4 * (2^61 - 1) + 3.
  EXPECT_EQ(FpFromInt64(std::numeric_limits<int64_t>::max()), 3u);
  EXPECT_EQ(FpAdd(FpFromInt64(std::numeric_limits<int64_t>::min()),
                  FpFromInt64(std::numeric_limits<int64_t>::max())),
            FpFromInt64(-1));
}

TEST(FieldTest, ReduceExpMatchesHardwareModulus) {
  constexpr uint64_t m = kMersenne61 - 1;  // the exponent group order
  // Boundary values where the three-fold reduction could go wrong.
  const u128 boundary[] = {0,
                           1,
                           m - 1,
                           m,
                           m + 1,
                           kMersenne61,
                           (u128{1} << 61) - 1,
                           u128{1} << 61,
                           (u128{1} << 64) - 1,
                           u128{1} << 64,
                           (u128{1} << 122) - 1,
                           u128{1} << 122,
                           ~u128{0} - 1,
                           ~u128{0}};
  for (u128 x : boundary) {
    EXPECT_EQ(FpReduceExp(x), static_cast<uint64_t>(x % m));
  }
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    u128 x = (static_cast<u128>(rng.Next()) << 64) | rng.Next();
    ASSERT_EQ(FpReduceExp(x), static_cast<uint64_t>(x % m));
  }
}

TEST(HashTest, DeterministicAndSeedSensitive) {
  PolyHash h1(4, 11), h2(4, 11), h3(4, 12);
  EXPECT_EQ(h1.Eval(999), h2.Eval(999));
  EXPECT_NE(h1.Eval(999), h3.Eval(999));  // overwhelmingly likely
}

TEST(HashTest, OutputInField) {
  PolyHash h(3, 13);
  for (u128 k = 0; k < 1000; ++k) EXPECT_LT(h.Eval(k), kMersenne61);
}

TEST(HashTest, PairwiseCollisionRateSane) {
  PolyHash h(2, 14);
  std::set<uint64_t> outs;
  for (u128 k = 0; k < 2000; ++k) outs.insert(h.Eval(k * 0x123456789ULL));
  EXPECT_EQ(outs.size(), 2000u);  // no collisions expected at p ~ 2^61
}

TEST(HashTest, Distinguishes128BitKeys) {
  PolyHash h(2, 15);
  u128 a = (static_cast<u128>(7) << 64) | 3;
  u128 b = (static_cast<u128>(8) << 64) | 3;
  EXPECT_NE(h.Eval(a), h.Eval(b));
}

TEST(LevelHashTest, GeometricDistribution) {
  LevelHash lh(16, 40);
  std::vector<int> counts(41, 0);
  const int kKeys = 200000;
  for (int k = 0; k < kKeys; ++k) ++counts[lh.Level(static_cast<u128>(k))];
  // P[level = 0] ~ 1/2, P[level = 1] ~ 1/4, ...
  EXPECT_NEAR(counts[0], kKeys / 2.0, 6 * std::sqrt(kKeys / 2.0));
  EXPECT_NEAR(counts[1], kKeys / 4.0, 6 * std::sqrt(kKeys / 4.0));
  EXPECT_NEAR(counts[2], kKeys / 8.0, 6 * std::sqrt(kKeys / 8.0));
}

TEST(LevelHashTest, CappedAtMaxLevel) {
  LevelHash lh(17, 3);
  for (int k = 0; k < 10000; ++k) {
    EXPECT_LE(lh.Level(static_cast<u128>(k)), 3);
  }
}

TEST(TableTest, FormatsAndCsv) {
  Table t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({Table::Fmt(3.14159, 2), Table::Fmt(uint64_t{7})});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ToCsv(), "a,bb\n1,2\n3.14,7\n");
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(Table::Fmt(int64_t{-5}), "-5");
  EXPECT_EQ(Table::Fmt(2.5, 1), "2.5");
  EXPECT_EQ(Table::Fmt(42), "42");
}

// Copies of mapped (>= 1 MiB) and heap buffers equal their source word for
// word, including nonzero words on the first and last (partial) pages and
// words next to all-zero pages the mapped copy skips.
TEST(ZeroedBufferTest, CopyEqualsSource) {
  for (size_t words : {size_t{700}, (size_t{1} << 17) + 37}) {
    ZeroedBuffer src(words);
    const size_t hits[] = {0, 511, 512, words / 2, words - 1};
    for (size_t i : hits) src.data()[i] = 0x9e3779b97f4a7c15ULL ^ i;
    const ZeroedBuffer copy(src);
    ASSERT_EQ(copy.size(), words);
    EXPECT_TRUE(copy == src) << "words=" << words;
    for (size_t i : hits) EXPECT_EQ(copy.data()[i], src.data()[i]);
    EXPECT_EQ(copy.data()[600], 0u);
    const ZeroedBuffer empty_copy{ZeroedBuffer(words)};
    EXPECT_TRUE(empty_copy == ZeroedBuffer(words));
    // Assignment: into a buffer of another size (reallocates), and into a
    // same-size buffer whose stale words must all be overwritten.
    ZeroedBuffer resized(words / 2);
    resized.data()[1] = 7;
    resized = src;
    EXPECT_TRUE(resized == src) << "words=" << words;
    ZeroedBuffer stale(words);
    for (size_t i = 0; i < words; i += 97) stale.data()[i] = ~uint64_t{0};
    stale = src;
    EXPECT_TRUE(stale == src) << "words=" << words;
  }
}

}  // namespace
}  // namespace gms
