// Section 4.2's discussion, exercised empirically. The paper stresses that
// k-skeleton construction must use k INDEPENDENT sketches: the union-bound
// argument fails when one sketch is queried on inputs (G - F_1 - ...) that
// depend on its own randomness, and a footnote notes that if adaptive
// reuse worked in general, an O(n polylog n)-bit sketch would reconstruct
// arbitrary graphs, contradicting an Omega(n^2) information bound.
//
// At laptop scales that information bound does not bite (the sketch has
// more raw cells than the graph has edges) and the exact-recovery layer is
// deterministic-once-decodable, so adaptive peeling often *happens* to
// work; what it lacks is any guarantee. These tests pin down the sound
// properties: per-extraction soundness (recovered edges are real edges),
// the k-independent construction's full guarantee, and the determinism
// that makes Theorem 15's single-sketch reuse legitimate (its peel sets
// are functions of the input only). The adaptive-vs-independent behaviour
// is charted by bench_adaptive_reuse.
#include <gtest/gtest.h>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"

namespace gms {
namespace {

// Adaptive (guarantee-free) strategy: repeatedly extract a spanning graph
// from the SAME sketch, subtract it, repeat.
Hypergraph AdaptivePeel(const Graph& g, size_t layers, uint64_t seed) {
  SpanningForestSketch sketch(g.NumVertices(), 2, seed);
  sketch.Process(DynamicStream::InsertOnly(g, seed + 1));
  Hypergraph recovered(g.NumVertices());
  for (size_t i = 0; i < layers; ++i) {
    auto span = sketch.Query();
    if (!span.ok() || span.value().NumEdges() == 0) break;
    std::vector<Hyperedge> layer = span.value().Edges();
    sketch.RemoveHyperedges(layer);
    for (const auto& e : layer) recovered.AddEdge(e);
  }
  return recovered;
}

TEST(AdaptiveReuseTest, AdaptivePeelNeverInventsEdgesHere) {
  // Whatever adaptive reuse recovers, the fingerprint layer keeps it a
  // subgraph of the truth at these scales (soundness of each extraction,
  // even under correlated queries).
  Graph g = CompleteGraph(16);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Hypergraph rec = AdaptivePeel(g, 15, 70 + seed);
    for (const auto& e : rec.Edges()) {
      EXPECT_TRUE(g.HasEdge(e.AsEdge())) << "ghost " << e.ToString();
    }
  }
}

TEST(AdaptiveReuseTest, IndependentSketchesCarryTheGuarantee) {
  // The sound construction: a 15-skeleton of K16 IS all of K16 (every cut
  // has size >= 15), recovered from 15 INDEPENDENT sketches, every seed.
  Graph g = CompleteGraph(16);
  for (uint64_t seed = 0; seed < 3; ++seed) {
    KSkeletonSketch sketch(16, 2, 15, 88 + seed);
    sketch.Process(DynamicStream::InsertOnly(g, 9 + seed));
    auto skel = sketch.Query();
    ASSERT_TRUE(skel.ok());
    EXPECT_EQ(skel.value().NumEdges(), g.NumEdges());
    for (const auto& e : skel.value().Edges()) {
      EXPECT_TRUE(g.HasEdge(e.AsEdge()));
    }
  }
}

TEST(AdaptiveReuseTest, FirstExtractionIsAlwaysSound) {
  // The first peel of the adaptive strategy is just Theorem 2 and works.
  Graph g = CompleteGraph(16);
  SpanningForestSketch sketch(16, 2, 99);
  sketch.Process(DynamicStream::InsertOnly(g, 10));
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(IsConnected(span.value()));
  for (const auto& e : span.value().Edges()) EXPECT_TRUE(g.HasEdge(e.AsEdge()));
}

TEST(AdaptiveReuseTest, ExtractionIsDeterministic) {
  // Extract() consumes no fresh randomness: querying twice gives the same
  // answer. This determinism is exactly why Theorem 15's reuse of ONE
  // skeleton sketch across peel iterations is sound -- its peel sets are
  // functions of the input graph, so the failure events are fixed in
  // advance and the union bound applies.
  Graph g = ErdosRenyi(20, 0.3, 3);
  SpanningForestSketch sketch(20, 2, 111);
  sketch.Process(DynamicStream::InsertOnly(g, 4));
  auto a = sketch.Query();
  auto b = sketch.Query();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
}

}  // namespace
}  // namespace gms
