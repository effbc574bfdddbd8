// Property tests for the combinadic hyperedge <-> index codec.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "graph/edge_codec.h"
#include "util/random.h"

namespace gms {
namespace {

TEST(BinomialTest, SmallValues) {
  EXPECT_EQ(Binomial(5, 0), 1u);
  EXPECT_EQ(Binomial(5, 1), 5u);
  EXPECT_EQ(Binomial(5, 2), 10u);
  EXPECT_EQ(Binomial(5, 5), 1u);
  EXPECT_EQ(Binomial(5, 6), 0u);
  EXPECT_EQ(Binomial(0, 0), 1u);
}

TEST(BinomialTest, PascalIdentity) {
  for (uint64_t m = 1; m < 40; ++m) {
    for (unsigned j = 1; j <= 8 && j <= m; ++j) {
      EXPECT_EQ(Binomial(m, j), Binomial(m - 1, j - 1) + Binomial(m - 1, j));
    }
  }
}

TEST(BinomialTest, LargeValuesExact) {
  // C(100000, 4) = 100000*99999*99998*99997/24.
  u128 expect = static_cast<u128>(100000) * 99999 / 2 * 99998 / 3 * 99997 / 4;
  EXPECT_EQ(Binomial(100000, 4), expect);
}

TEST(EdgeCodecTest, DomainSizes) {
  EdgeCodec c2(10, 2);
  EXPECT_EQ(c2.DomainSize(), 45u);  // C(10,2)
  EdgeCodec c3(10, 3);
  EXPECT_EQ(c3.DomainSize(), 45u + 120u);  // + C(10,3)
  EdgeCodec c4(6, 4);
  EXPECT_EQ(c4.DomainSize(), 15u + 20u + 15u);
}

TEST(EdgeCodecTest, ExhaustiveRoundTripSmall) {
  EdgeCodec codec(7, 4);
  std::set<std::string> seen;
  for (u128 idx = 0; idx < codec.DomainSize(); ++idx) {
    auto e = codec.Decode(idx);
    ASSERT_TRUE(e.ok()) << U128ToString(idx);
    EXPECT_EQ(codec.Encode(*e), idx);
    seen.insert(e->ToString());
  }
  // All indices decode to distinct hyperedges: a bijection.
  EXPECT_EQ(static_cast<u128>(seen.size()), codec.DomainSize());
}

TEST(EdgeCodecTest, GraphEdgesRoundTrip) {
  EdgeCodec codec(100, 2);
  for (VertexId u = 0; u < 100; u += 7) {
    for (VertexId v = u + 1; v < 100; v += 5) {
      Hyperedge e{u, v};
      auto back = codec.Decode(codec.Encode(e));
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(*back, e);
    }
  }
}

TEST(EdgeCodecTest, RandomRoundTripLargeDomain) {
  const size_t n = 50000;
  EdgeCodec codec(n, 5);
  Rng rng(42);
  for (int t = 0; t < 500; ++t) {
    size_t r = 2 + rng.Below(4);
    std::vector<VertexId> vs;
    while (vs.size() < r) {
      VertexId v = static_cast<VertexId>(rng.Below(n));
      bool dup = false;
      for (VertexId w : vs) dup |= w == v;
      if (!dup) vs.push_back(v);
    }
    Hyperedge e(vs);
    u128 idx = codec.Encode(e);
    ASSERT_LT(idx, codec.DomainSize());
    auto back = codec.Decode(idx);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, e);
  }
}

// Pair indices unrank in closed form. Colex order lists the pairs as
// (0,1), (0,2), (1,2), (0,3), ...: walk that order and compare every index.
TEST(EdgeCodecTest, PairBlockExhaustiveUpTo512) {
  for (size_t n = 2; n <= 512; ++n) {
    EdgeCodec codec(n, 2);
    u128 idx = 0;
    for (VertexId v1 = 1; v1 < n; ++v1) {
      for (VertexId v0 = 0; v0 < v1; ++v0, ++idx) {
        auto e = codec.Decode(idx);
        ASSERT_TRUE(e.ok()) << "n=" << n << " i=" << U128ToString(idx);
        ASSERT_EQ(e->size(), 2u);
        ASSERT_EQ((*e)[0], v0) << "n=" << n << " i=" << U128ToString(idx);
        ASSERT_EQ((*e)[1], v1) << "n=" << n << " i=" << U128ToString(idx);
        ASSERT_EQ(codec.Encode(*e), idx);
      }
    }
    ASSERT_EQ(idx, codec.DomainSize());
  }
}

// Indices where the sqrt estimate of the closed form is most likely to be one
// off: either side of each C(m, 2) and the last pair of a block, for m near n
// and near sqrt(2) * 2^31 (where C(m, 2) crosses 2^62), up to n = 2^32.
TEST(EdgeCodecTest, PairBlockBoundaries) {
  auto expect_pair = [](const EdgeCodec& codec, u128 idx, VertexId v0,
                        VertexId v1) {
    auto e = codec.Decode(idx);
    ASSERT_TRUE(e.ok()) << "n=" << codec.n() << " i=" << U128ToString(idx);
    EXPECT_EQ(*e, Hyperedge({v0, v1}))
        << "n=" << codec.n() << " i=" << U128ToString(idx);
    EXPECT_EQ(codec.Encode(*e), idx);
  };
  const uint64_t kCross = 3037000500;  // C(kCross, 2) < 2^62 < C(kCross+1, 2)
  for (uint64_t n : {uint64_t{1} << 16, uint64_t{1} << 31,
                     (uint64_t{1} << 32) - 1, uint64_t{1} << 32}) {
    EdgeCodec codec(n, 2);
    expect_pair(codec, 0, 0, 1);
    expect_pair(codec, Binomial(n, 2) - 1, static_cast<VertexId>(n - 2),
                static_cast<VertexId>(n - 1));
    std::vector<uint64_t> ms;
    for (uint64_t d = 1; d <= 4; ++d) ms.push_back(n - d);
    for (uint64_t m = kCross - 3; m <= kCross + 3; ++m) ms.push_back(m);
    for (uint64_t m : ms) {
      if (m < 2 || m >= n) continue;
      const u128 c = Binomial(m, 2);
      const VertexId vm = static_cast<VertexId>(m);
      expect_pair(codec, c - 1, vm - 2, vm - 1);
      expect_pair(codec, c, 0, vm);
      expect_pair(codec, c + m - 1, vm - 1, vm);
    }
  }
}

// In a mixed-rank codec the pair block ends at offset_[3] = C(n, 2): the
// closed form must hand the next index to the triple search.
TEST(EdgeCodecTest, PairBranchStopsAtTripleBlock) {
  for (size_t n : {size_t{7}, size_t{1000}, size_t{1} << 16}) {
    for (size_t r : {size_t{3}, size_t{5}}) {
      EdgeCodec codec(n, r);
      const u128 pairs = Binomial(n, 2);
      auto last_pair = codec.Decode(pairs - 1);
      ASSERT_TRUE(last_pair.ok());
      EXPECT_EQ(*last_pair, Hyperedge({static_cast<VertexId>(n - 2),
                                       static_cast<VertexId>(n - 1)}));
      auto first_triple = codec.Decode(pairs);
      ASSERT_TRUE(first_triple.ok());
      EXPECT_EQ(*first_triple, Hyperedge({0, 1, 2}));
      EXPECT_EQ(codec.Encode(*first_triple), pairs);
    }
  }
}

TEST(EdgeCodecTest, OutOfRangeIndexRejected) {
  const u128 kMax = ~static_cast<u128>(0);
  for (uint64_t n :
       {uint64_t{2}, uint64_t{10}, uint64_t{512}, uint64_t{1} << 32}) {
    for (size_t r : {size_t{2}, size_t{3}}) {
      EdgeCodec codec(n, r);
      for (u128 idx : {codec.DomainSize(), codec.DomainSize() + 1,
                       static_cast<u128>(1) << 64, kMax}) {
        if (idx < codec.DomainSize()) continue;  // 2^64 is a triple at 2^32
        auto e = codec.Decode(idx);
        ASSERT_FALSE(e.ok()) << "n=" << n << " i=" << U128ToString(idx);
        EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
      }
    }
  }
  // Ids are 32-bit, so no codec spans more than 2^32 vertices.
  EXPECT_TRUE(EdgeCodec::DomainSizeFor(uint64_t{1} << 32, 2).ok());
  EXPECT_FALSE(EdgeCodec::DomainSizeFor((uint64_t{1} << 32) + 1, 2).ok());
}

TEST(EdgeCodecTest, SizeBlocksAreContiguous) {
  EdgeCodec codec(9, 3);
  // First C(9,2) indices are pairs, the rest triples.
  u128 pairs = Binomial(9, 2);
  for (u128 idx = 0; idx < codec.DomainSize(); ++idx) {
    auto e = codec.Decode(idx);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e->size(), idx < pairs ? 2u : 3u);
  }
}

// Parameterized sweep: round trip over (n, r) combinations.
class CodecSweep : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {
};

TEST_P(CodecSweep, EncodeDecodeBijectionOnSample) {
  auto [n, r] = GetParam();
  EdgeCodec codec(n, r);
  Rng rng(n * 31 + r);
  std::set<std::string> edges;
  std::set<std::string> indices;
  for (int t = 0; t < 300; ++t) {
    size_t size = 2 + rng.Below(r - 1);
    std::vector<VertexId> vs;
    while (vs.size() < size) {
      VertexId v = static_cast<VertexId>(rng.Below(n));
      bool dup = false;
      for (VertexId w : vs) dup |= w == v;
      if (!dup) vs.push_back(v);
    }
    Hyperedge e(vs);
    u128 idx = codec.Encode(e);
    auto back = codec.Decode(idx);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, e);
    bool new_edge = edges.insert(e.ToString()).second;
    bool new_index = indices.insert(U128ToString(idx)).second;
    EXPECT_EQ(new_edge, new_index);  // injectivity on the sample
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CodecSweep,
    ::testing::Values(std::make_tuple(16, 3), std::make_tuple(64, 4),
                      std::make_tuple(256, 3), std::make_tuple(1024, 5),
                      std::make_tuple(4096, 4)));

}  // namespace
}  // namespace gms
