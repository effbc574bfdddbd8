// Tests for k-skeleton sketches (Definition 11, Theorem 14, Lemma 12).
#include <gtest/gtest.h>

#include "connectivity/k_skeleton.h"
#include "exact/lambda.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"
#include "util/random.h"

namespace gms {
namespace {

// Check the skeleton property |delta_H(S)| >= min(|delta_G(S)|, k) over a
// set of random cuts plus all singleton cuts.
void ExpectSkeletonProperty(const Hypergraph& g, const Hypergraph& h,
                            size_t k, uint64_t seed, size_t samples = 200) {
  Rng rng(seed);
  size_t n = g.NumVertices();
  std::vector<bool> in_s(n, false);
  auto check = [&]() {
    size_t orig = g.CutSize(in_s);
    size_t skel = h.CutSize(in_s);
    EXPECT_GE(skel, std::min(orig, k));
    EXPECT_LE(skel, orig);  // skeleton is a subgraph
  };
  for (size_t v = 0; v < n; ++v) {
    std::fill(in_s.begin(), in_s.end(), false);
    in_s[v] = true;
    check();
  }
  for (size_t t = 0; t < samples; ++t) {
    for (size_t v = 0; v < n; ++v) in_s[v] = rng.Bernoulli(0.5);
    check();
  }
}

TEST(KSkeletonTest, SkeletonOfCompleteGraph) {
  Graph g = CompleteGraph(14);
  KSkeletonSketch sketch(14, 2, 3, 101);
  sketch.Process(DynamicStream::InsertOnly(g, 1));
  auto skel = sketch.Query();
  ASSERT_TRUE(skel.ok());
  // F_1..F_3 are edge-disjoint forests: at most 3(n-1) edges.
  EXPECT_LE(skel.value().NumEdges(), 3u * 13u);
  EXPECT_TRUE(IsConnected(skel.value()));
  ExpectSkeletonProperty(Hypergraph::FromGraph(g), skel.value(), 3, 2);
}

TEST(KSkeletonTest, SkeletonPropertyOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Graph g = ErdosRenyi(20, 0.3, 110 + seed);
    KSkeletonSketch sketch(20, 2, 2, 120 + seed);
    sketch.Process(DynamicStream::InsertOnly(g, seed));
    auto skel = sketch.Query();
    ASSERT_TRUE(skel.ok());
    ExpectSkeletonProperty(Hypergraph::FromGraph(g), skel.value(), 2,
                           130 + seed);
  }
}

TEST(KSkeletonTest, SkeletonPropertyOnHypergraphs) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Hypergraph h = RandomUniformHypergraph(16, 30, 3, 140 + seed);
    KSkeletonSketch sketch(16, 3, 2, 150 + seed);
    sketch.Process(DynamicStream::InsertOnly(h, seed));
    auto skel = sketch.Query();
    ASSERT_TRUE(skel.ok());
    ExpectSkeletonProperty(h, skel.value(), 2, 160 + seed);
    for (const auto& e : skel.value().Edges()) EXPECT_TRUE(h.HasEdge(e));
  }
}

TEST(KSkeletonTest, OneSkeletonIsSpanningGraph) {
  Graph g = UnionOfHamiltonianCycles(30, 2, 5);
  KSkeletonSketch sketch(30, 2, 1, 170);
  sketch.Process(DynamicStream::InsertOnly(g, 6));
  auto skel = sketch.Query();
  ASSERT_TRUE(skel.ok());
  EXPECT_TRUE(IsConnected(skel.value()));
  EXPECT_LE(skel.value().NumEdges(), 29u * 2);  // ~spanning graph size
}

TEST(KSkeletonTest, ChurnStream) {
  Graph g = CompleteBipartite(8, 8);
  DynamicStream stream = DynamicStream::WithChurn(g, 150, 9);
  KSkeletonSketch sketch(16, 2, 3, 180);
  sketch.Process(stream);
  auto skel = sketch.Query();
  ASSERT_TRUE(skel.ok());
  for (const auto& e : skel.value().Edges()) EXPECT_TRUE(g.HasEdge(e.AsEdge()));
  ExpectSkeletonProperty(Hypergraph::FromGraph(g), skel.value(), 3, 190);
}

TEST(KSkeletonTest, Lemma12LightEdgesMatch) {
  // lambda_e(H) <= k-1 iff lambda_e(G) <= k-1 for a k-skeleton H, checked
  // for edges present in the skeleton.
  Graph g(12);
  // 4-clique + 4-clique joined by a 2-edge "belt", plus a pendant.
  for (VertexId base : {VertexId{0}, VertexId{4}}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) g.AddEdge(base + i, base + j);
    }
  }
  g.AddEdge(0, 4);
  g.AddEdge(3, 7);
  g.AddEdge(7, 8);
  size_t k = 3;
  KSkeletonSketch sketch(12, 2, k, 200);
  sketch.Process(DynamicStream::InsertOnly(g, 7));
  auto skel = sketch.Query();
  ASSERT_TRUE(skel.ok());
  Graph hs = skel.value().ToGraph();
  Hypergraph gh = Hypergraph::FromGraph(g);
  for (const auto& he : skel.value().Edges()) {
    Edge e = he.AsEdge();
    bool light_h = EdgeLambda(hs, e, static_cast<int64_t>(k)) <=
                   static_cast<int64_t>(k) - 1;
    bool light_g = EdgeLambda(g, e, static_cast<int64_t>(k)) <=
                   static_cast<int64_t>(k) - 1;
    EXPECT_EQ(light_h, light_g) << e.u() << "-" << e.v();
  }
}

TEST(KSkeletonTest, RemoveHyperedgesShiftsTheSketch) {
  Graph g = CycleGraph(16);
  KSkeletonSketch sketch(16, 2, 2, 210);
  sketch.Process(DynamicStream::InsertOnly(g, 8));
  sketch.RemoveHyperedges({Hyperedge{0, 1}});
  auto skel = sketch.Query();
  ASSERT_TRUE(skel.ok());
  EXPECT_FALSE(skel.value().HasEdge(Hyperedge{0, 1}));
  // The path 1..0 (cycle minus one edge) is still connected.
  EXPECT_TRUE(IsConnected(skel.value()));
}

}  // namespace
}  // namespace gms
