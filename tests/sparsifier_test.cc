// Tests for the Section 5 hypergraph sparsifier sketch: cut preservation
// against exhaustive enumeration on small instances, size bounds, graphs as
// the 2-uniform special case, and parameter resolution.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "sparsify/benczur_karger.h"
#include "sparsify/sparsifier_sketch.h"
#include "sparsify/verify.h"

namespace gms {
namespace {

SparsifierParams TestParams(size_t k, size_t levels) {
  SparsifierParams p;
  p.k = k;
  p.levels = levels;
  p.forest.config = SketchConfig::Light();
  return p;
}

TEST(SparsifierParamsTest, ResolutionFormulas) {
  SparsifierParams p;
  p.epsilon = 0.5;
  p.k_constant = 1.0;
  size_t levels = p.ResolveLevels(64);
  EXPECT_EQ(levels, 18u);  // 3 * log2(64)
  size_t k = p.ResolveK(64, 3, levels);
  // 1.0 / 0.25 * (ln 64 + 3) ~ 4 * 7.16 = 28.6 -> 29.
  EXPECT_EQ(k, 29u);
  p.reparameterize = true;
  EXPECT_GT(p.ResolveK(64, 3, levels), 10000u);  // eps/(2l) blows k up
}

TEST(SparsifierTest, SmallGraphAllCutsPreserved) {
  // Small dense graph, generous k: every cut must be within a modest
  // relative error (with k >= max cut the sparsifier keeps everything and
  // the error is 0; with moderate k errors stay near Lemma 18's bound).
  Graph g = CompleteGraph(10);
  Hypergraph h = Hypergraph::FromGraph(g);
  HypergraphSparsifierSketch sketch(10, 2, TestParams(/*k=*/10, /*levels=*/8),
                                    1);
  sketch.Process(DynamicStream::InsertOnly(h, 2));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out.value().truncated);
  auto report = VerifySparsifier(h, out.value().sparsifier, /*epsilon=*/0.75);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_EQ(report.stats.zero_mismatches, 0u);
  EXPECT_LE(report.stats.max_rel_error, 0.75)
      << "max cut error " << report.stats.max_rel_error;
}

TEST(SparsifierTest, TotalWeightApproximatesEdgeCount) {
  Graph g = CompleteGraph(12);
  Hypergraph h = Hypergraph::FromGraph(g);
  HypergraphSparsifierSketch sketch(12, 2, TestParams(8, 8), 3);
  sketch.Process(DynamicStream::InsertOnly(h, 4));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok());
  // Sum of weights estimates |E| (each edge survives to level i w.p. 2^-i
  // and is weighted 2^i).
  double total = out.value().sparsifier.TotalWeight();
  EXPECT_NEAR(total, static_cast<double>(h.NumEdges()),
              0.6 * static_cast<double>(h.NumEdges()));
}

TEST(SparsifierTest, SparseInputsPassThroughExactly) {
  // If k exceeds every lambda_e, level 0 already recovers ALL edges with
  // weight 1: the sparsifier is exact.
  Graph t = RandomTree(16, 5);
  Hypergraph h = Hypergraph::FromGraph(t);
  HypergraphSparsifierSketch sketch(16, 2, TestParams(2, 6), 6);
  sketch.Process(DynamicStream::InsertOnly(h, 7));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().sparsifier.size(), t.NumEdges());
  auto report = VerifySparsifier(h, out.value().sparsifier, 0.01);
  EXPECT_DOUBLE_EQ(report.stats.max_rel_error, 0.0);
  EXPECT_TRUE(report.within_epsilon);
}

TEST(SparsifierTest, HypergraphCutsPreserved) {
  Hypergraph h = RandomUniformHypergraph(12, 30, 3, 8);
  HypergraphSparsifierSketch sketch(12, 3, TestParams(8, 8), 9);
  sketch.Process(DynamicStream::InsertOnly(h, 10));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto report = VerifySparsifier(h, out.value().sparsifier, 0.9);
  EXPECT_EQ(report.stats.zero_mismatches, 0u);
  EXPECT_LE(report.stats.max_rel_error, 0.9);
}

TEST(SparsifierTest, ChurnStream) {
  Hypergraph h = RandomUniformHypergraph(10, 20, 3, 11);
  DynamicStream stream = DynamicStream::WithChurn(h, 60, 3, 12);
  HypergraphSparsifierSketch sketch(10, 3, TestParams(8, 7), 13);
  sketch.Process(stream);
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok());
  auto report = VerifySparsifier(h, out.value().sparsifier, 0.9);
  EXPECT_EQ(report.stats.zero_mismatches, 0u);
  EXPECT_LE(report.stats.max_rel_error, 0.9);
}

TEST(SparsifierTest, SparsifierEdgesComeFromTheInput) {
  Hypergraph h = RandomUniformHypergraph(11, 25, 3, 14);
  HypergraphSparsifierSketch sketch(11, 3, TestParams(6, 7), 15);
  sketch.Process(DynamicStream::InsertOnly(h, 16));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok());
  for (const auto& e : out.value().sparsifier.edges) {
    EXPECT_TRUE(h.HasEdge(e)) << "invented edge " << e.ToString();
  }
  // Weights are powers of two.
  for (double w : out.value().sparsifier.weights) {
    double log_w = std::log2(w);
    EXPECT_DOUBLE_EQ(log_w, std::round(log_w));
  }
}

TEST(SparsifierTest, CompressionOnDenseInput) {
  // Dense graph with small k: higher levels thin the graph; the output
  // should be smaller than the input.
  Graph g = CompleteGraph(14);  // 91 edges
  Hypergraph h = Hypergraph::FromGraph(g);
  HypergraphSparsifierSketch sketch(14, 2, TestParams(4, 8), 17);
  sketch.Process(DynamicStream::InsertOnly(h, 18));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out.value().sparsifier.size(), h.NumEdges());
}

TEST(BenczurKargerTest, SparseGraphKeptEntirely) {
  // Strength <= c/eps^2 everywhere -> p_e = 1 for all edges: exact copy.
  Graph t = RandomTree(20, 1);
  BkParams p;
  p.epsilon = 0.5;
  auto s = BenczurKargerSparsify(t, p, 2);
  EXPECT_EQ(s.size(), t.NumEdges());
  for (double w : s.weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

TEST(BenczurKargerTest, CutsPreservedOnDenseGraph) {
  Graph g = CompleteGraph(14);
  BkParams p;
  p.epsilon = 0.5;
  auto s = BenczurKargerSparsify(g, p, 3);
  auto report = VerifySparsifier(Hypergraph::FromGraph(g), s, 0.6);
  EXPECT_EQ(report.stats.zero_mismatches, 0u);
  EXPECT_LE(report.stats.max_rel_error, 0.6);
}

TEST(BenczurKargerTest, CompressesHighStrengthCores) {
  // A big clique with a pendant path: clique edges have high strength and
  // get subsampled; path edges (strength 1) are always kept.
  Graph g(40);
  for (VertexId i = 0; i < 32; ++i) {
    for (VertexId j = i + 1; j < 32; ++j) g.AddEdge(i, j);
  }
  for (VertexId i = 31; i + 1 < 40; ++i) g.AddEdge(i, i + 1);
  BkParams p;
  p.epsilon = 1.0;
  auto s = BenczurKargerSparsify(g, p, 4);
  EXPECT_LT(s.size(), g.NumEdges());
  // Path edges all present with weight 1.
  size_t path_found = 0;
  for (size_t i = 0; i < s.edges.size(); ++i) {
    if (s.edges[i].MinVertex() >= 31) {
      ++path_found;
      EXPECT_DOUBLE_EQ(s.weights[i], 1.0);
    }
  }
  EXPECT_EQ(path_found, 8u);
}

TEST(BenczurKargerTest, TotalWeightUnbiased) {
  Graph g = CompleteGraph(16);
  double total = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    BkParams p;
    p.epsilon = 1.0;
    total += BenczurKargerSparsify(g, p, 100 + t).TotalWeight();
  }
  EXPECT_NEAR(total / trials, static_cast<double>(g.NumEdges()),
              0.15 * static_cast<double>(g.NumEdges()));
}

TEST(WeightedCutTest, Basics) {
  WeightedEdgeSet s;
  s.edges = {Hyperedge{0, 1}, Hyperedge{1, 2, 3}};
  s.weights = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(s.TotalWeight(), 6.0);
  std::vector<bool> in_s = {true, false, false, false};
  EXPECT_DOUBLE_EQ(WeightedCutValue(s, in_s), 2.0);
  std::vector<bool> in_s2 = {true, true, false, false};
  EXPECT_DOUBLE_EQ(WeightedCutValue(s, in_s2), 4.0);
}

}  // namespace
}  // namespace gms
