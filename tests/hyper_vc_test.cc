// Tests for the hypergraph vertex-connectivity extension (the Section 4.1
// remark): induced-semantics removal queries, the planted-separator
// generator, and the exhaustive hypergraph kappa.
#include <gtest/gtest.h>

#include "exact/vertex_connectivity.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/random.h"
#include "vertexconn/hyper_vc_query.h"

namespace gms {
namespace {

VcQueryParams HyperTestParams(size_t k, double r_multiplier) {
  return VcQueryParams::Builder()
      .K(k)
      .RMultiplier(r_multiplier)
      .Forest(
          ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
      .Build();
}

HyperVcUnionSnapshot Snapshot(const HyperVcQuerySketch& sketch) {
  auto snap = sketch.Query();
  EXPECT_TRUE(snap.ok());
  return std::move(snap).value();
}

TEST(HypergraphExcludingTest, InducedSemantics) {
  // {0,1,2} dies when 2 is removed even though 0,1 survive.
  Hypergraph h(5);
  h.AddEdge(Hyperedge{0, 1, 2});
  h.AddEdge(Hyperedge{2, 3});
  h.AddEdge(Hyperedge{3, 4});
  EXPECT_TRUE(IsConnectedExcluding(h, {}));
  EXPECT_FALSE(IsConnectedExcluding(h, {2}));  // kills BOTH incident edges
  EXPECT_FALSE(IsConnectedExcluding(h, {3}));
  EXPECT_TRUE(IsConnectedExcluding(h, {4}));
  // Removing 0 kills {0,1,2} too, stranding vertex 1.
  EXPECT_FALSE(IsConnectedExcluding(h, {0}));
  EXPECT_TRUE(IsConnectedExcluding(h, {0, 1}));
}

TEST(HyperVcQueryTest, AllSparseForestsSkipExtractionAndStillAnswer) {
  // A rank-3 hypercycle keeps every vertex at degree 3, far below the
  // Light sparse threshold: every subsample forest decodes through the
  // sparse-exact fast path and the union stats count all R skips.
  const size_t n = 36;
  Hypergraph g = HyperCycle(n, 3);
  const VcQueryParams params = VcQueryParams::Builder()
                                   .K(2)
                                   .ExplicitR(10)
                                   .Forest(ForestSketchParams::Builder()
                                               .Config(SketchConfig::Light())
                                               .Build())
                                   .Build();
  HyperVcQuerySketch sketch(n, /*max_rank=*/3, params, 83);
  sketch.Process(DynamicStream::InsertOnly(g, 84));

  auto snap = sketch.Query();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.stats().sparse_exact_forests, 10u);
  EXPECT_EQ(snap.stats().sample_attempts, 0u);
  EXPECT_GT(snap.value().union_graph().NumEdges(), 0u);
}

TEST(HypergraphExcludingTest, MatchesGraphSemanticsOn2Uniform) {
  Graph g = ErdosRenyi(12, 0.3, 1);
  Hypergraph h = Hypergraph::FromGraph(g);
  Rng rng(2);
  for (int t = 0; t < 30; ++t) {
    std::vector<VertexId> s;
    for (int j = 0; j < 3; ++j) {
      VertexId v = static_cast<VertexId>(rng.Below(12));
      bool dup = false;
      for (VertexId w : s) dup |= w == v;
      if (!dup) s.push_back(v);
    }
    EXPECT_EQ(IsConnectedExcluding(g, s), IsConnectedExcluding(h, s));
  }
}

TEST(HypergraphKappaBruteTest, KnownFamilies) {
  // Hyper-cycle (10, 3): removing 2 adjacent-ish vertices kills a window
  // of hyperedges; connectivity is small but positive.
  Hypergraph ring = HyperCycle(10, 3);
  size_t kappa = VertexConnectivityBrute(ring);
  EXPECT_GE(kappa, 1u);
  EXPECT_LE(kappa, 4u);
  // A single hyperedge over 4 vertices: no removal of <= 2 vertices
  // disconnects... removing any vertex kills the edge, isolating the rest.
  Hypergraph single(4);
  single.AddEdge(Hyperedge{0, 1, 2, 3});
  EXPECT_EQ(VertexConnectivityBrute(single), 1u);
}

TEST(HypergraphKappaBruteTest, PlantedSeparatorIsExact) {
  for (size_t k : {1, 2}) {
    auto planted = PlantedHypergraphSeparator(16, k, 3, 10 + k);
    EXPECT_EQ(VertexConnectivityBrute(planted.hypergraph), k) << "k=" << k;
    EXPECT_FALSE(
        IsConnectedExcluding(planted.hypergraph, planted.separator));
  }
}

TEST(HyperVcQueryTest, FindsPlantedSeparator) {
  auto planted = PlantedHypergraphSeparator(24, 2, 3, 1);
  HyperVcQuerySketch sketch(24, 3, HyperTestParams(2, 0.5), 2);
  sketch.Process(DynamicStream::InsertOnly(planted.hypergraph, 3));
  auto hit = Snapshot(sketch).Disconnects(planted.separator);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
}

TEST(HyperVcQueryTest, AgreesWithTruthOnRandomQueries) {
  auto planted = PlantedHypergraphSeparator(24, 2, 3, 4);
  const Hypergraph& h = planted.hypergraph;
  HyperVcQuerySketch sketch(24, 3, HyperTestParams(2, 0.5), 5);
  sketch.Process(DynamicStream::WithChurn(h, 40, 3, 6));
  HyperVcUnionSnapshot snap = Snapshot(sketch);
  Rng rng(7);
  size_t agree = 0, total = 0;
  for (int t = 0; t < 15; ++t) {
    std::vector<VertexId> s;
    while (s.size() < 2) {
      VertexId v = static_cast<VertexId>(rng.Below(24));
      bool dup = false;
      for (VertexId w : s) dup |= w == v;
      if (!dup) s.push_back(v);
    }
    auto got = snap.Disconnects(s);
    ASSERT_TRUE(got.ok());
    bool truth = !IsConnectedExcluding(h, s);
    agree += (*got == truth) ? 1 : 0;
    ++total;
  }
  EXPECT_EQ(agree, total);
}

TEST(HyperVcQueryTest, UnionGraphIsSubhypergraph) {
  Hypergraph h = HyperCycle(20, 3);
  HyperVcQuerySketch sketch(20, 3, HyperTestParams(2, 0.5), 8);
  sketch.Process(DynamicStream::InsertOnly(h, 9));
  HyperVcUnionSnapshot snap = Snapshot(sketch);
  for (const auto& e : snap.union_graph().Edges()) {
    EXPECT_TRUE(h.HasEdge(e));
  }
}

TEST(HyperVcQueryTest, OversizedQueryRejected) {
  const VcQueryParams p =
      VcQueryParams::Builder()
          .K(1)
          .ExplicitR(4)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  HyperVcQuerySketch sketch(10, 3, p, 10);
  auto r = Snapshot(sketch).Disconnects({0, 1});
  EXPECT_FALSE(r.ok());
}

TEST(HyperVcQueryTest, ClearReleasesCachedUnionHypergraph) {
  // A cleared sketch is the empty-stream measurement: no union hypergraph
  // survives Clear, and Query still works.
  auto planted = PlantedHypergraphSeparator(20, 2, 3, 20);
  HyperVcQuerySketch sketch(20, 3, HyperTestParams(2, 0.5), 21);
  sketch.Process(DynamicStream::InsertOnly(planted.hypergraph, 22));
  ASSERT_GT(Snapshot(sketch).union_graph().NumEdges(), 0u);
  sketch.Clear();
  EXPECT_EQ(Snapshot(sketch).union_graph().NumEdges(), 0u);
}

}  // namespace
}  // namespace gms
