// Tests for the L0 sampler: correctness of returned samples, linearity,
// behaviour on zero vectors, rough uniformity of the sampled coordinate.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "sketch/l0_sampler.h"
#include "util/random.h"

namespace gms {
namespace {

TEST(L0SamplerTest, SamplesTheOnlyCoordinate) {
  L0Shape shape(1 << 20, SketchConfig::Default(), 1);
  L0State state(&shape);
  state.Update(54321, 2);
  auto s = state.Sample();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->index, 54321u);
  EXPECT_EQ(s->value, 2);
}

TEST(L0SamplerTest, ZeroVectorReportsDecodeFailure) {
  L0Shape shape(1000, SketchConfig::Default(), 2);
  L0State state(&shape);
  EXPECT_TRUE(state.IsZero());
  auto s = state.Sample();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsDecodeFailure());

  // A net-zero stream returns a sampler to the empty measurement.
  const L0Sampler fresh(1000, SketchConfig::Default(), 2);
  L0Sampler sampler = fresh;
  sampler.Update(42, +1);
  sampler.Update(42, -1);
  EXPECT_TRUE(sampler.StateEquals(fresh));
  auto empty = sampler.Sample();
  EXPECT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsDecodeFailure());
}

TEST(L0SamplerTest, SampleIsFromSupport) {
  L0Shape shape(u128{1} << 40, SketchConfig::Default(), 3);
  L0State state(&shape);
  std::set<uint64_t> support;
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    uint64_t x = rng.Next() & ((1ULL << 40) - 1);
    if (support.insert(x).second) state.Update(x, 1);
  }
  for (int trial = 0; trial < 5; ++trial) {
    auto s = state.Sample();
    ASSERT_TRUE(s.ok());
    EXPECT_TRUE(support.count(static_cast<uint64_t>(s->index)));
    EXPECT_EQ(s->value, 1);
  }
}

TEST(L0SamplerTest, CancellationsInvisible) {
  L0Shape shape(1 << 30, SketchConfig::Default(), 5);
  L0State state(&shape);
  state.Update(100, 1);
  // A large batch inserted and fully deleted must not affect sampling.
  for (int i = 0; i < 2000; ++i) state.Update(1000 + i, 3);
  for (int i = 0; i < 2000; ++i) state.Update(1000 + i, -3);
  auto s = state.Sample();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->index, 100u);
}

TEST(L0SamplerTest, AddCombinesStates) {
  L0Shape shape(1 << 16, SketchConfig::Default(), 6);
  L0State a(&shape), b(&shape);
  a.Update(11, 1);
  b.Update(11, -1);
  b.Update(22, 1);
  a.Add(b);
  auto s = a.Sample();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->index, 22u);
}

TEST(L0SamplerTest, SamplerSucceedsAcrossSupportScales) {
  // Support from 1 to ~4096: some level always lands within capacity.
  L0Shape shape(u128{1} << 30, SketchConfig::Default(), 7);
  for (int scale = 0; scale <= 12; scale += 3) {
    L0State state(&shape);
    size_t support = size_t{1} << scale;
    for (size_t i = 0; i < support; ++i) {
      state.Update(static_cast<u128>(i * 97 + 5), 1);
    }
    auto s = state.Sample();
    ASSERT_TRUE(s.ok()) << "support=" << support << " "
                        << s.status().ToString();
    uint64_t idx = static_cast<uint64_t>(s->index);
    EXPECT_EQ((idx - 5) % 97, 0u);
    EXPECT_LT((idx - 5) / 97, support);
  }
}

TEST(L0SamplerTest, RoughUniformityAcrossSeeds) {
  // Sampling is pseudo-uniform over the support when randomness is fresh:
  // run many independent shapes over the same 8-element support and check
  // each element is picked a reasonable number of times.
  const int kSupport = 8;
  const int kTrials = 400;
  std::map<uint64_t, int> counts;
  int failures = 0;
  int successes = 0;
  for (int t = 0; t < kTrials; ++t) {
    L0Shape shape(10000, SketchConfig::Default(), 1000 + t);
    L0State state(&shape);
    for (int i = 0; i < kSupport; ++i) state.Update(100 + i, 1);
    auto s = state.Sample();
    // Sampling is a whp guarantee, not a certainty: with the default config
    // a fresh shape fails to decode ~0.4% of the time (the same rate across
    // kernel revisions). Bound the rate instead of asserting zero so the
    // test is robust to reseeding.
    if (!s.ok()) {
      ++failures;
      continue;
    }
    ++successes;
    ++counts[static_cast<uint64_t>(s->index)];
  }
  EXPECT_LE(failures, kTrials / 50) << "sampler failure rate above 2%";
  EXPECT_EQ(counts.size(), static_cast<size_t>(kSupport));
  double expect = static_cast<double>(successes) / kSupport;
  double chi2 = 0;
  for (auto [idx, c] : counts) {
    chi2 += (c - expect) * (c - expect) / expect;
  }
  // 7 degrees of freedom; 24.3 is the 0.001 quantile. Generous headroom
  // since the selection-hash scheme is only approximately uniform.
  EXPECT_LT(chi2, 40.0);
}

TEST(L0SamplerTest, MemoryMatchesShapeCells) {
  SketchConfig cfg;
  L0Shape shape(1 << 20, cfg, 8);
  L0State state(&shape);
  size_t expected_cells = shape.TotalCells();
  EXPECT_GE(state.MemoryBytes(), expected_cells * sizeof(OneSparseCell));
}

TEST(L0SamplerTest, DomainBitsDriveLevelCount) {
  SketchConfig cfg;
  L0Shape small(1 << 10, cfg, 9);
  L0Shape large(u128{1} << 90, cfg, 9);
  EXPECT_LT(small.num_levels(), large.num_levels());
  EXPECT_EQ(small.num_levels(), 11 + 1);
  EXPECT_EQ(large.num_levels(), 91 + 1);
}

// Property sweep: insert/delete mixes with varying survivor counts.
class L0Sweep : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(L0Sweep, SamplesSurvivor) {
  auto [survivors, seed] = GetParam();
  Rng rng(seed);
  L0Shape shape(u128{1} << 48, SketchConfig::Default(), seed * 7 + 3);
  L0State state(&shape);
  std::set<uint64_t> alive;
  // Insert 3x survivors, delete down to survivors.
  std::vector<uint64_t> all;
  while (static_cast<int>(all.size()) < 3 * survivors) {
    uint64_t x = rng.Next() & ((1ULL << 48) - 1);
    if (alive.insert(x).second) {
      all.push_back(x);
      state.Update(x, 1);
    }
  }
  for (size_t i = static_cast<size_t>(survivors); i < all.size(); ++i) {
    state.Update(all[i], -1);
    alive.erase(all[i]);
  }
  auto s = state.Sample();
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(alive.count(static_cast<uint64_t>(s->index)));
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, L0Sweep,
    ::testing::Combine(::testing::Values(1, 5, 40, 300),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace gms
