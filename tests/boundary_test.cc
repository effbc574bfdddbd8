// Boundary conditions and the paper-constants path: tiny graphs through
// every sketch, empty streams, empty query sets, and one run with the
// full Theorem 4 constants (r_multiplier = 1.0) at a scale where they are
// affordable -- proving the Paper() path is not dead code.
#include <gtest/gtest.h>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "reconstruct/light_recovery.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

TEST(BoundaryTest, TwoVertexGraph) {
  SpanningForestSketch sketch(2, 2, 1);
  sketch.Update(Hyperedge{0, 1}, +1);
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value().NumEdges(), 1u);
  EXPECT_TRUE(IsConnected(span.value()));
}

TEST(BoundaryTest, EmptySketches) {
  // (n >= 2 is the documented contract: a 1-vertex graph has an empty
  // coordinate domain.)
  SpanningForestSketch two(2, 2, 2);
  auto span = two.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value().NumEdges(), 0u);
  SpanningForestSketch q(3, 2, 3);
  auto comps = q.Query();
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(NumComponents(comps.value()), 3u);  // empty stream: all isolated
}

TEST(BoundaryTest, InsertDeleteSameEdgeRepeatedly) {
  SpanningForestSketch q(4, 2, 4);
  for (int i = 0; i < 7; ++i) {
    q.Update(Hyperedge{0, 1}, +1);
    q.Update(Hyperedge{0, 1}, -1);
  }
  q.Update(Hyperedge{0, 1}, +1);
  auto comps = q.Query();
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(NumComponents(comps.value()), 3u);  // {0,1} plus two isolated
}

TEST(BoundaryTest, EmptyQuerySetMeansIsGraphDisconnected) {
  // |S| = 0 <= k: Disconnects({}) answers "is the graph itself
  // disconnected" under Lemma 3 semantics.
  Graph g(10);
  for (VertexId i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1);
  for (VertexId i = 5; i + 1 < 10; ++i) g.AddEdge(i, i + 1);
  const VcQueryParams p =
      VcQueryParams::Builder()
          .K(2)
          .RMultiplier(0.5)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  VcQuerySketch sketch(10, p, 5);
  sketch.Process(DynamicStream::InsertOnly(g, 6));
  auto snap = sketch.Query();
  ASSERT_TRUE(snap.ok());
  auto r = snap.value().Disconnects({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(BoundaryTest, PaperConstantsPathWorks) {
  // Full Theorem 4 constants at n = 24, k = 2: R = ceil(16*4*ln 24) = 204
  // subsampled forests. Expensive but affordable here; the answer must be
  // right and the structure must use the full R.
  auto planted = PlantedSeparator(24, 2, 7);
  const VcQueryParams p =
      VcQueryParams::Builder()
          .K(2)
          .RMultiplier(1.0)  // the paper's constant, no discount
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  VcQuerySketch sketch(24, p, 8);
  EXPECT_GE(sketch.R(), 200u);
  sketch.Process(DynamicStream::InsertOnly(planted.graph, 9));
  auto snap = sketch.Query();
  ASSERT_TRUE(snap.ok());
  auto hit = snap.value().Disconnects(planted.separator);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  auto miss = snap.value().Disconnects({planted.side_a[0], planted.side_b[0]});
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(*miss);
}

TEST(BoundaryTest, LightRecoveryOnSingleEdge) {
  LightRecoverySketch sketch(2, 2, 1, 10);
  sketch.Update(Hyperedge{0, 1}, +1);
  auto r = sketch.Recover();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->light.NumEdges(), 1u);
  EXPECT_FALSE(r->residual_nonempty);
}

TEST(BoundaryTest, MaxRankEdgeExactlyAtLimit) {
  SpanningForestSketch sketch(6, 4, 11);
  sketch.Update(Hyperedge{0, 1, 2, 3}, +1);  // cardinality == max_rank
  sketch.Update(Hyperedge{3, 4}, +1);
  sketch.Update(Hyperedge{4, 5}, +1);
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(IsConnected(span.value()));
}

}  // namespace
}  // namespace gms
