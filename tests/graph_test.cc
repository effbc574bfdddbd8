// Unit tests for graph containers, union-find and traversals.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/edge.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "graph/traversal.h"
#include "graph/union_find.h"

namespace gms {
namespace {

TEST(EdgeTest, Canonicalizes) {
  Edge e(5, 2);
  EXPECT_EQ(e.u(), 2u);
  EXPECT_EQ(e.v(), 5u);
  EXPECT_EQ(e, Edge(2, 5));
}

TEST(HyperedgeTest, CanonicalizesAndDedups) {
  Hyperedge e({5, 2, 9, 2});
  EXPECT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0], 2u);
  EXPECT_EQ(e[2], 9u);
  EXPECT_EQ(e.MinVertex(), 2u);
  EXPECT_TRUE(e.Contains(9));
  EXPECT_FALSE(e.Contains(3));
  EXPECT_EQ(e.ToString(), "{2,5,9}");
}

TEST(HyperedgeTest, GraphEdgeConversion) {
  Hyperedge e({7, 3});
  ASSERT_TRUE(e.IsGraphEdge());
  EXPECT_EQ(e.AsEdge(), Edge(3, 7));
  Hyperedge t({1, 2, 3});
  EXPECT_FALSE(t.IsGraphEdge());
}

TEST(GraphTest, AddRemoveIdempotent) {
  Graph g(4);
  EXPECT_TRUE(g.AddEdge(0, 1));
  EXPECT_FALSE(g.AddEdge(1, 0));  // same edge
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.RemoveEdge(Edge(0, 1)));
  EXPECT_FALSE(g.RemoveEdge(Edge(0, 1)));
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, DegreesAndNeighbors) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.MinDegree(), 0u);
  EXPECT_TRUE(g.Neighbors(0).contains(2));
}

TEST(GraphTest, EdgesRoundTrip) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(2, 5);
  g.AddEdge(3, 4);
  auto edges = g.Edges();
  EXPECT_EQ(edges.size(), 3u);
  Graph h(6, edges);
  EXPECT_EQ(g, h);
}

TEST(GraphTest, InducedExcluding) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  Graph sub = g.InducedExcluding({2});
  EXPECT_EQ(sub.NumEdges(), 2u);
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(3, 4));
  EXPECT_FALSE(sub.HasEdge(1, 2));
}

TEST(HypergraphTest, AddRemoveWithSwapCompaction) {
  Hypergraph h(6);
  EXPECT_TRUE(h.AddEdge(Hyperedge{0, 1, 2}));
  EXPECT_TRUE(h.AddEdge(Hyperedge{2, 3}));
  EXPECT_TRUE(h.AddEdge(Hyperedge{3, 4, 5}));
  EXPECT_FALSE(h.AddEdge(Hyperedge{1, 0, 2}));
  EXPECT_EQ(h.NumEdges(), 3u);
  // Remove the first edge; the last is swapped into its slot.
  EXPECT_TRUE(h.RemoveEdge(Hyperedge{0, 1, 2}));
  EXPECT_EQ(h.NumEdges(), 2u);
  EXPECT_TRUE(h.HasEdge(Hyperedge{2, 3}));
  EXPECT_TRUE(h.HasEdge(Hyperedge{3, 4, 5}));
  // Incidence stays consistent.
  EXPECT_EQ(h.Degree(3), 2u);
  EXPECT_EQ(h.Degree(0), 0u);
  for (VertexId v = 0; v < 6; ++v) {
    for (uint32_t idx : h.IncidentIndices(v)) {
      EXPECT_TRUE(h.Edges()[idx].Contains(v));
    }
  }
}

TEST(HypergraphTest, RemoveMiddleKeepsIncidenceConsistent) {
  Hypergraph h(8);
  h.AddEdge(Hyperedge{0, 1});
  h.AddEdge(Hyperedge{1, 2, 3});
  h.AddEdge(Hyperedge{3, 4});
  h.AddEdge(Hyperedge{4, 5, 6, 7});
  EXPECT_TRUE(h.RemoveEdge(Hyperedge{1, 2, 3}));
  EXPECT_EQ(h.NumEdges(), 3u);
  size_t total_incidence = 0;
  for (VertexId v = 0; v < 8; ++v) {
    for (uint32_t idx : h.IncidentIndices(v)) {
      ASSERT_LT(idx, h.NumEdges());
      EXPECT_TRUE(h.Edges()[idx].Contains(v));
      ++total_incidence;
    }
  }
  EXPECT_EQ(total_incidence, 2u + 2u + 4u);
}

TEST(HypergraphTest, FromDistinctEdgesEqualsAddingInTurn) {
  const std::vector<Hyperedge> edges = {
      Hyperedge{3, 4}, Hyperedge{0, 1, 5}, Hyperedge{1, 2}, Hyperedge{4, 6, 7}};
  Hypergraph added(9);
  for (const Hyperedge& e : edges) ASSERT_TRUE(added.AddEdge(e));
  const Hypergraph built = Hypergraph::FromDistinctEdges(9, edges);
  EXPECT_EQ(built.Edges(), added.Edges());
  EXPECT_TRUE(built == added);
  for (VertexId v = 0; v < 9; ++v) {
    EXPECT_EQ(built.IncidentIndices(v), added.IncidentIndices(v)) << v;
  }
  // The index is live: duplicate probes and removals behave as usual.
  Hypergraph copy = built;
  EXPECT_FALSE(copy.AddEdge(Hyperedge{1, 2}));
  EXPECT_TRUE(copy.RemoveEdge(Hyperedge{0, 1, 5}));
  EXPECT_EQ(copy.NumEdges(), 3u);
}

TEST(HypergraphTest, RankAndConversion) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  Hypergraph h = Hypergraph::FromGraph(g);
  EXPECT_EQ(h.Rank(), 2u);
  EXPECT_EQ(h.ToGraph(), g);
  h.AddEdge(Hyperedge{0, 2, 3});
  EXPECT_EQ(h.Rank(), 3u);
}

TEST(HypergraphTest, InducedExcludingDropsTouchedEdges) {
  Hypergraph h(5);
  h.AddEdge(Hyperedge{0, 1, 2});
  h.AddEdge(Hyperedge{2, 3});
  h.AddEdge(Hyperedge{3, 4});
  Hypergraph sub = h.InducedExcluding({2});
  EXPECT_EQ(sub.NumEdges(), 1u);
  EXPECT_TRUE(sub.HasEdge(Hyperedge{3, 4}));
}

TEST(HypergraphTest, CutSize) {
  Hypergraph h(4);
  h.AddEdge(Hyperedge{0, 1});
  h.AddEdge(Hyperedge{1, 2, 3});
  h.AddEdge(Hyperedge{2, 3});
  std::vector<bool> s = {true, true, false, false};
  EXPECT_EQ(h.CutSize(s), 1u);  // only {1,2,3} crosses
  std::vector<bool> s2 = {true, false, false, false};
  EXPECT_EQ(h.CutSize(s2), 1u);
}

TEST(UnionFindTest, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumComponents(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.NumComponents(), 3u);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 2));
  EXPECT_EQ(uf.ComponentSize(0), 2u);
}

TEST(UnionFindTest, ComponentIdsDense) {
  UnionFind uf(6);
  uf.Union(0, 5);
  uf.Union(1, 2);
  auto ids = uf.ComponentIds();
  EXPECT_EQ(ids[0], ids[5]);
  EXPECT_EQ(ids[1], ids[2]);
  EXPECT_NE(ids[0], ids[1]);
  uint32_t max_id = *std::max_element(ids.begin(), ids.end());
  EXPECT_EQ(max_id, 3u);  // 4 components, dense 0..3
}

TEST(TraversalTest, ComponentsGraph) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  EXPECT_EQ(NumComponents(g), 3u);
  EXPECT_FALSE(IsConnected(g));
  auto ids = ConnectedComponents(g);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_NE(ids[0], ids[3]);
}

TEST(TraversalTest, ComponentsHypergraph) {
  Hypergraph h(7);
  h.AddEdge(Hyperedge{0, 1, 2});
  h.AddEdge(Hyperedge{2, 3});
  h.AddEdge(Hyperedge{4, 5});
  EXPECT_EQ(NumComponents(h), 3u);
  h.AddEdge(Hyperedge{3, 4, 6});
  EXPECT_EQ(NumComponents(h), 1u);
  EXPECT_TRUE(IsConnected(h));
}

TEST(TraversalTest, IsConnectedExcluding) {
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  EXPECT_TRUE(IsConnectedExcluding(g, {}));
  EXPECT_FALSE(IsConnectedExcluding(g, {2}));
  EXPECT_TRUE(IsConnectedExcluding(g, {0}));
  EXPECT_TRUE(IsConnectedExcluding(g, {0, 4}));
}

TEST(TraversalTest, SpanningForestProperties) {
  Graph g(8);
  for (VertexId i = 0; i < 8; ++i) {
    for (VertexId j = i + 1; j < 8; ++j) g.AddEdge(i, j);
  }
  Graph f = SpanningForest(g);
  EXPECT_EQ(f.NumEdges(), 7u);
  EXPECT_TRUE(IsConnected(f));
}

TEST(TraversalTest, SpanningSubhypergraphKeepsComponents) {
  Hypergraph h(9);
  h.AddEdge(Hyperedge{0, 1, 2});
  h.AddEdge(Hyperedge{1, 2});
  h.AddEdge(Hyperedge{2, 3});
  h.AddEdge(Hyperedge{5, 6, 7});
  h.AddEdge(Hyperedge{6, 7});
  Hypergraph span = SpanningSubhypergraph(h);
  EXPECT_LE(span.NumEdges(), h.NumEdges());
  EXPECT_EQ(ConnectedComponents(span), ConnectedComponents(h));
}

}  // namespace
}  // namespace gms
