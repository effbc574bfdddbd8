// Cross-cutting property tests on the sketching stack: linearity (update
// order irrelevance, insert/delete cancellation, state addition =
// input union), determinism in the seed, and measurement-sharing across
// copies. These are the algebraic facts every theorem in the paper builds
// on, checked over parameterized seed sweeps.
//
// Streams come from testkit::StreamSpec, so every instance here is named
// by the same one-line spec format the oracle sweeps and the shrinker
// print: a failure in this file is reproducible from its spec string alone.
#include <gtest/gtest.h>

#include <tuple>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/traversal.h"
#include "sketch/l0_sampler.h"
#include "stream/stream.h"
#include "testkit/stream_spec.h"
#include "util/random.h"

namespace gms {
namespace {

using testkit::BuiltStream;
using testkit::Churn;
using testkit::Family;
using testkit::StreamSpec;

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, ForestSketchIsOrderInvariant) {
  uint64_t seed = GetParam();
  StreamSpec spec;
  spec.family = Family::kErdosRenyi;
  spec.n = 20;
  spec.p = 0.25;
  spec.gseed = seed;
  spec.sseed = seed + 1;
  StreamSpec reordered = spec;
  reordered.sseed = seed + 2;  // same final graph, different order
  SCOPED_TRACE(spec.ToString());
  SpanningForestSketch a(20, 2, 4242);
  SpanningForestSketch b(20, 2, 4242);
  a.Process(spec.Build().stream);
  b.Process(reordered.Build().stream);
  auto ra = a.Query();
  auto rb = b.Query();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Same final vector -> identical state.
  EXPECT_TRUE(ra.value() == rb.value());
}

TEST_P(SeedSweep, ForestSketchChurnEqualsDirect) {
  uint64_t seed = GetParam();
  StreamSpec spec;
  spec.family = Family::kExpander;  // UnionOfHamiltonianCycles(n, k, gseed)
  spec.n = 18;
  spec.k = 2;
  spec.gseed = seed;
  spec.sseed = seed;
  StreamSpec churned = spec;
  churned.churn = Churn::kWithChurn;
  churned.decoys = 60;
  SCOPED_TRACE(churned.ToString());
  SpanningForestSketch direct(18, 2, 999);
  SpanningForestSketch with_churn(18, 2, 999);
  direct.Process(spec.Build().stream);
  with_churn.Process(churned.Build().stream);
  auto rd = direct.Query();
  auto rc = with_churn.Query();
  ASSERT_TRUE(rd.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_TRUE(rd.value() == rc.value());  // cancelled decoys leave no trace
}

TEST_P(SeedSweep, L0StateAdditionEqualsUnionStream) {
  uint64_t seed = GetParam();
  L0Shape shape(1 << 20, SketchConfig::Default(), 777);
  L0State a(&shape), b(&shape), whole(&shape);
  Rng rng(seed);
  for (int i = 0; i < 300; ++i) {
    u128 idx = rng.Below(1 << 20);
    int64_t delta = rng.Bernoulli(0.5) ? 1 : -1;
    whole.Update(idx, delta);
    (i % 2 == 0 ? a : b).Update(idx, delta);
  }
  a.Add(b);
  // Identical states sample identically (decode is deterministic).
  auto sa = a.Sample();
  auto sw = whole.Sample();
  EXPECT_EQ(sa.ok(), sw.ok());
  if (sa.ok() && sw.ok()) {
    EXPECT_EQ(sa->index, sw->index);
    EXPECT_EQ(sa->value, sw->value);
  }
}

TEST_P(SeedSweep, SkeletonSubtractionEqualsNeverInserted) {
  uint64_t seed = GetParam();
  StreamSpec spec;
  spec.family = Family::kErdosRenyi;
  spec.n = 16;
  spec.p = 0.3;
  spec.gseed = seed;
  SCOPED_TRACE(spec.ToString());
  const Hypergraph g = spec.Build().final_graph;
  auto edges = g.Edges();
  if (edges.size() < 4) return;
  // Remove a few edges linearly vs never inserting them.
  std::vector<Hyperedge> removed = {edges[0], edges[2]};
  KSkeletonSketch full(16, 2, 2, 31337);
  KSkeletonSketch partial(16, 2, 2, 31337);
  for (const Hyperedge& e : edges) {
    full.Update(e, +1);
    bool skip = false;
    for (const auto& r : removed) skip |= (e == r);
    if (!skip) partial.Update(e, +1);
  }
  full.RemoveHyperedges(removed);
  auto rf = full.Query();
  auto rp = partial.Query();
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rp.ok());
  EXPECT_TRUE(rf.value() == rp.value());
}

TEST_P(SeedSweep, SketchCopiesShareTheMeasurement) {
  uint64_t seed = GetParam();
  StreamSpec spec;
  spec.family = Family::kCycle;
  spec.n = 14;
  spec.sseed = seed;
  SpanningForestSketch original(14, 2, seed * 3 + 1);
  original.Process(spec.Build().stream);
  SpanningForestSketch copy = original;  // shares shapes
  copy.RemoveHyperedges({Hyperedge{0, 1}});
  copy.Update(Hyperedge{0, 1}, +1);  // undo on the copy
  auto ro = original.Query();
  auto rc = copy.Query();
  ASSERT_TRUE(ro.ok());
  ASSERT_TRUE(rc.ok());
  EXPECT_TRUE(ro.value() == rc.value());
}

TEST_P(SeedSweep, DifferentSeedsDifferentMeasurements) {
  uint64_t seed = GetParam();
  // Two sketches with different seeds are allowed to decode different
  // (both valid) spanning graphs of a cycle; at minimum their internal
  // measurement must differ, which we observe via memory-identical inputs
  // giving different forests at least sometimes. Here we only assert both
  // decode valid spanning graphs.
  StreamSpec spec;
  spec.family = Family::kCycle;
  spec.n = 12;
  const DynamicStream stream = spec.Build().stream;
  SpanningForestSketch a(12, 2, seed * 2 + 1);
  SpanningForestSketch b(12, 2, seed * 2 + 2);
  a.Process(stream);
  b.Process(stream);
  auto ra = a.Query();
  auto rb = b.Query();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(IsConnected(ra.value()));
  EXPECT_TRUE(IsConnected(rb.value()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

TEST(SketchPropertyTest, EmptyPlusEmptyIsEmpty) {
  L0Shape shape(1000, SketchConfig::Default(), 1);
  L0State a(&shape), b(&shape);
  a.Add(b);
  EXPECT_TRUE(a.IsZero());
}

TEST(SketchPropertyTest, NegatedStateCancelsViaAddition) {
  L0Shape shape(1 << 16, SketchConfig::Default(), 2);
  L0State pos(&shape), neg(&shape);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    u128 idx = rng.Below(1 << 16);
    pos.Update(idx, 2);
    neg.Update(idx, -2);
  }
  pos.Add(neg);
  EXPECT_TRUE(pos.IsZero());
}

}  // namespace
}  // namespace gms
