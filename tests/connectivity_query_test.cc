// Connectivity and capped k-edge-connectivity read off the query surface:
// a SpanningForestSketch's Query() plus graph/traversal.h, and
// apps::ApproxMinCut (one k-skeleton's min cut, capped at k). The suite
// names are the wrapper classes these cases were first written against.
#include <gtest/gtest.h>

#include "apps/approx_min_cut.h"
#include "connectivity/spanning_forest_sketch.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"

namespace gms {
namespace {

TEST(ConnectivityQueryTest, ConnectedGraph) {
  Graph g = UnionOfHamiltonianCycles(48, 2, 3);
  SpanningForestSketch q(48, 2, 1);
  q.Process(DynamicStream::InsertOnly(g, 2));
  auto forest = q.Query();
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(IsConnected(forest.value()));
}

TEST(ConnectivityQueryTest, CountsComponents) {
  Graph g(33);
  for (VertexId i = 0; i + 1 < 11; ++i) g.AddEdge(i, i + 1);
  for (VertexId i = 11; i + 1 < 22; ++i) g.AddEdge(i, i + 1);
  for (VertexId i = 22; i + 1 < 33; ++i) g.AddEdge(i, i + 1);
  SpanningForestSketch q(33, 2, 5);
  q.Process(DynamicStream::InsertOnly(g, 4));
  auto forest = q.Query();
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(NumComponents(forest.value()), 3u);
}

TEST(ConnectivityQueryTest, DeletionsDisconnect) {
  // A cycle loses two opposite edges -> two paths.
  Graph g = CycleGraph(30);
  SpanningForestSketch q(30, 2, 7);
  q.Process(DynamicStream::InsertOnly(g, 5));
  q.Update(Hyperedge{0, 1}, -1);
  q.Update(Hyperedge{15, 16}, -1);
  auto forest = q.Query();
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(NumComponents(forest.value()), 2u);
}

TEST(ConnectivityQueryTest, HypergraphConnectivity) {
  Hypergraph h = RandomUniformHypergraph(26, 40, 3, 11);
  SpanningForestSketch q(26, 3, 9);
  q.Process(DynamicStream::InsertOnly(h, 6));
  auto forest = q.Query();
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(NumComponents(forest.value()), NumComponents(h));
}

TEST(ConnectivityQueryTest, EmptyGraph) {
  SpanningForestSketch q(10, 2, 13);
  auto forest = q.Query();
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(NumComponents(forest.value()), 10u);
  EXPECT_FALSE(IsConnected(forest.value()));
}

TEST(EdgeConnectivityQueryTest, MatchesExactWhenBelowK) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = ErdosRenyi(18, 0.35, 20 + seed);
    size_t exact = EdgeConnectivity(g);
    apps::ApproxMinCut q(18, 2, /*k_cap=*/5, 30 + seed);
    q.Process(DynamicStream::InsertOnly(g, seed));
    auto capped = q.Query();
    ASSERT_TRUE(capped.ok());
    EXPECT_EQ(capped.value().value, std::min<size_t>(exact, 5))
        << "seed=" << seed;
  }
}

TEST(EdgeConnectivityQueryTest, DecisionVersion) {
  Graph g = UnionOfHamiltonianCycles(20, 2, 44);  // edge conn >= 2
  size_t exact = EdgeConnectivity(g);
  ASSERT_GE(exact, 2u);
  // k-edge-connected iff the capped value reaches the cap.
  apps::ApproxMinCut q2(20, 2, 2, 50);
  q2.Process(DynamicStream::InsertOnly(g, 1));
  auto yes = q2.Query();
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(yes.value().value >= q2.k_cap());
  apps::ApproxMinCut q9(20, 2, exact + 1, 51);
  q9.Process(DynamicStream::InsertOnly(g, 1));
  auto no = q9.Query();
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(no.value().value >= q9.k_cap());
}

TEST(EdgeConnectivityQueryTest, HypergraphEdgeConnectivity) {
  auto planted = PlantedHypergraphCut(18, 3, 2, 20, 60);
  apps::ApproxMinCut q(18, 3, 4, 61);
  q.Process(DynamicStream::InsertOnly(planted.hypergraph, 2));
  auto capped = q.Query();
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().value, 2u);  // the planted cut
}

TEST(ConnectivityQueryTest, SameComponentQueries) {
  Graph g(20);
  for (VertexId i = 0; i + 1 < 10; ++i) g.AddEdge(i, i + 1);
  for (VertexId i = 10; i + 1 < 20; ++i) g.AddEdge(i, i + 1);
  SpanningForestSketch q(20, 2, 99);
  q.Process(DynamicStream::InsertOnly(g, 3));
  auto forest = q.Query();
  ASSERT_TRUE(forest.ok());
  const std::vector<uint32_t> ids = ConnectedComponents(forest.value());
  EXPECT_TRUE(ids[0] == ids[9]);
  EXPECT_FALSE(ids[0] == ids[15]);
}

TEST(EdgeConnectivityQueryTest, MinCutSideIsGenuineWhenBelowK) {
  // Two dense blobs joined by exactly 2 edges; k = 5 > 2, so the returned
  // shore must achieve the true min cut in G.
  Graph g(16);
  for (VertexId base : {VertexId{0}, VertexId{8}}) {
    for (VertexId i = 0; i < 8; ++i) {
      for (VertexId j = i + 1; j < 8; ++j) g.AddEdge(base + i, base + j);
    }
  }
  g.AddEdge(0, 8);
  g.AddEdge(7, 15);
  apps::ApproxMinCut q(16, 2, 5, 101);
  q.Process(DynamicStream::InsertOnly(g, 4));
  auto cut = q.Query();
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut.value().value, 2u);
  // Evaluate the returned shore on the ORIGINAL graph.
  EXPECT_EQ(Hypergraph::FromGraph(g).CutSize(cut.value().shore), 2u);
}

TEST(EdgeConnectivityQueryTest, MinCutCappedAtK) {
  Graph g = CompleteGraph(12);  // min cut 11
  apps::ApproxMinCut q(12, 2, 3, 102);
  q.Process(DynamicStream::InsertOnly(g, 5));
  auto cut = q.Query();
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut.value().value, 3u);  // witness only: every cut >= 3
}

TEST(EdgeConnectivityQueryTest, DisconnectedReportsZero) {
  Hypergraph h(12);
  h.AddEdge(Hyperedge{0, 1, 2});
  h.AddEdge(Hyperedge{6, 7});
  apps::ApproxMinCut q(12, 3, 3, 70);
  q.Process(DynamicStream::InsertOnly(h, 3));
  auto capped = q.Query();
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped.value().value, 0u);
}

}  // namespace
}  // namespace gms
