// Cross-validation of the exact connectivity algorithms: Even-Tarjan vertex
// connectivity vs. brute force, Stoer-Wagner vs. cut enumeration, the
// hypergraph min-cut MA algorithm vs. brute force, and the production
// kernels vs. the testkit reference kernels they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <string>

#include "exact/cut_eval.h"
#include "exact/hypergraph_mincut.h"
#include "exact/stoer_wagner.h"
#include "exact/vertex_connectivity.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "testkit/exact_reference.h"
#include "testkit/stream_spec.h"
#include "util/random.h"

namespace gms {
namespace {

TEST(VertexConnectivityTest, KnownFamilies) {
  EXPECT_EQ(VertexConnectivity(CompleteGraph(6)), 5u);
  EXPECT_EQ(VertexConnectivity(CycleGraph(8)), 2u);
  EXPECT_EQ(VertexConnectivity(PathGraph(8)), 1u);
  EXPECT_EQ(VertexConnectivity(StarGraph(8)), 1u);
  EXPECT_EQ(VertexConnectivity(CompleteBipartite(3, 5)), 3u);
}

TEST(VertexConnectivityTest, DisconnectedAndTiny) {
  Graph g(5);
  g.AddEdge(0, 1);
  EXPECT_EQ(VertexConnectivity(g), 0u);
  EXPECT_EQ(VertexConnectivity(Graph(1)), 0u);
  EXPECT_EQ(VertexConnectivity(Graph(0)), 0u);
  Graph k2(2);
  k2.AddEdge(0, 1);
  EXPECT_EQ(VertexConnectivity(k2), 1u);
}

TEST(VertexConnectivityTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Graph g = ErdosRenyi(9, 0.35 + 0.03 * static_cast<double>(seed), seed);
    EXPECT_EQ(VertexConnectivity(g), VertexConnectivityBrute(g))
        << "seed=" << seed;
  }
}

TEST(VertexConnectivityTest, DecisionVersionAgrees) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyi(10, 0.5, 100 + seed);
    size_t kappa = VertexConnectivity(g);
    for (size_t k = 0; k <= kappa + 1; ++k) {
      EXPECT_EQ(IsKVertexConnected(g, k), k <= kappa)
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(VertexConnectivityTest, MinimumVertexCutIsValid) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = ErdosRenyi(10, 0.4, 200 + seed);
    if (!IsConnected(g)) continue;
    auto cut = MinimumVertexCut(g);
    size_t kappa = VertexConnectivity(g);
    if (!cut.has_value()) {
      EXPECT_EQ(kappa, g.NumVertices() - 1);  // complete
      continue;
    }
    EXPECT_EQ(cut->size(), kappa);
    EXPECT_FALSE(IsConnectedExcluding(g, *cut));
  }
}

TEST(VertexConnectivityTest, PlantedSeparatorsFoundExactly) {
  for (size_t k = 1; k <= 4; ++k) {
    auto planted = PlantedSeparator(36, k, 55 + k);
    EXPECT_EQ(VertexConnectivity(planted.graph), k);
    EXPECT_TRUE(IsKVertexConnected(planted.graph, k));
    EXPECT_FALSE(IsKVertexConnected(planted.graph, k + 1));
  }
}

TEST(VertexDisjointPathsTest, MengerOnKnownGraph) {
  // Two disjoint paths 0-1-3 and 0-2-3 in the 4-cycle.
  Graph c4 = CycleGraph(4);
  EXPECT_EQ(VertexDisjointPaths(c4, 0, 2), 2);
}

TEST(StoerWagnerTest, KnownFamilies) {
  EXPECT_EQ(EdgeConnectivity(CompleteGraph(7)), 6u);
  EXPECT_EQ(EdgeConnectivity(CycleGraph(9)), 2u);
  EXPECT_EQ(EdgeConnectivity(PathGraph(9)), 1u);
  Graph disconnected(4);
  disconnected.AddEdge(0, 1);
  EXPECT_EQ(EdgeConnectivity(disconnected), 0u);
}

TEST(StoerWagnerTest, CutSideIsConsistent) {
  Graph g = CycleGraph(6);
  auto cut = StoerWagner(g);
  EXPECT_EQ(cut.value, 2);
  // The reported side must actually achieve the value.
  int64_t crossing = 0;
  for (const Edge& e : g.Edges()) {
    if (cut.side[e.u()] != cut.side[e.v()]) ++crossing;
  }
  EXPECT_EQ(crossing, cut.value);
}

TEST(StoerWagnerTest, MatchesBruteForceOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Graph g = ErdosRenyi(9, 0.45, 300 + seed);
    auto sw = StoerWagner(g);
    auto brute = HypergraphMinCutBrute(Hypergraph::FromGraph(g));
    EXPECT_DOUBLE_EQ(static_cast<double>(sw.value), brute.value)
        << "seed=" << seed;
  }
}

TEST(StoerWagnerTest, WeightedInstance) {
  // Triangle with one heavy edge: min cut isolates the light corner.
  std::vector<std::vector<int64_t>> w = {
      {0, 10, 1}, {10, 0, 1}, {1, 1, 0}};
  auto cut = StoerWagner(w);
  EXPECT_EQ(cut.value, 2);
}

TEST(HypergraphMinCutTest, MatchesBruteForceUniform) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = RandomUniformHypergraph(8, 12, 3, 400 + seed);
    auto fast = HypergraphMinCut(h);
    auto brute = HypergraphMinCutBrute(h);
    EXPECT_DOUBLE_EQ(fast.value, brute.value) << "seed=" << seed;
    // The reported side achieves the value.
    EXPECT_DOUBLE_EQ(static_cast<double>(h.CutSize(fast.side)), fast.value);
  }
}

TEST(HypergraphMinCutTest, MatchesBruteForceMixedRanks) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Hypergraph h = RandomHypergraph(9, 14, 2, 4, 500 + seed);
    auto fast = HypergraphMinCut(h);
    auto brute = HypergraphMinCutBrute(h);
    EXPECT_DOUBLE_EQ(fast.value, brute.value) << "seed=" << seed;
  }
}

TEST(HypergraphMinCutTest, WeightedEdges) {
  // Two triangles sharing nothing, joined by one heavy and one light
  // hyperedge: min cut = lighter crossing combination.
  std::vector<Hyperedge> edges = {
      Hyperedge{0, 1, 2}, Hyperedge{3, 4, 5}, Hyperedge{0, 3},
      Hyperedge{1, 4}};
  std::vector<double> w = {100, 100, 0.5, 0.25};
  auto cut = HypergraphMinCut(6, edges, w);
  auto brute = HypergraphMinCutBrute(6, edges, w);
  EXPECT_DOUBLE_EQ(cut.value, brute.value);
  EXPECT_DOUBLE_EQ(cut.value, 0.75);
}

TEST(HypergraphMinCutTest, PlantedCutFound) {
  auto planted = PlantedHypergraphCut(16, 3, 2, 20, 77);
  auto cut = HypergraphMinCut(planted.hypergraph);
  EXPECT_DOUBLE_EQ(cut.value, 2.0);
}

TEST(HypergraphMinCutTest, DisconnectedYieldsZero) {
  Hypergraph h(6);
  h.AddEdge(Hyperedge{0, 1, 2});
  h.AddEdge(Hyperedge{3, 4, 5});
  auto cut = HypergraphMinCut(h);
  EXPECT_DOUBLE_EQ(cut.value, 0.0);
}

TEST(HypergraphMinCutTest, GraphSpecialCaseAgreesWithStoerWagner) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = ErdosRenyi(12, 0.35, 600 + seed);
    auto sw = StoerWagner(g);
    auto hg = HypergraphMinCut(Hypergraph::FromGraph(g));
    EXPECT_DOUBLE_EQ(static_cast<double>(sw.value), hg.value)
        << "seed=" << seed;
  }
}


// ---------------------------------------------------------------------------
// Production kernels vs. the testkit references vs. brute force.

// kappa from all three routes, IsKVertexConnected at t = 0..kappa + 2 from
// both kernels, and a valid minimum vertex cut. Brute force only while the
// subset search stays small.
void CheckVertexKernels(const Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const size_t n = g.NumVertices();
  const size_t kappa = VertexConnectivity(g);
  ASSERT_EQ(kappa, testkit::VertexConnectivityReference(g));
  if (n <= 14) {
    ASSERT_EQ(kappa, VertexConnectivityBrute(g));
  }
  for (size_t t = 0; t <= kappa + 2; ++t) {
    const bool fast = IsKVertexConnected(g, t);
    EXPECT_EQ(fast, testkit::IsKVertexConnectedReference(g, t)) << "t=" << t;
    EXPECT_EQ(fast, t <= kappa) << "t=" << t;
  }
  auto cut = MinimumVertexCut(g);
  if (n <= 1) {
    EXPECT_FALSE(cut.has_value());
    return;
  }
  if (!IsConnected(g)) {
    ASSERT_TRUE(cut.has_value());
    EXPECT_TRUE(cut->empty());
    return;
  }
  if (!cut.has_value()) {
    EXPECT_EQ(g.NumEdges(), n * (n - 1) / 2);  // complete: no vertex cut
    EXPECT_EQ(kappa, n - 1);
    return;
  }
  EXPECT_EQ(cut->size(), kappa);
  EXPECT_FALSE(IsConnectedExcluding(g, *cut));
}

// Identical (value, side) to the reference; under unit weights every key
// and cut value is an exact integer, so the MA orders must coincide.
void CheckMinCutIdentical(const Hypergraph& h, const std::string& label) {
  SCOPED_TRACE(label);
  if (h.NumVertices() < 2) return;
  const HypergraphCut fast = HypergraphMinCut(h);
  const HypergraphCut ref = testkit::HypergraphMinCutReference(h);
  EXPECT_EQ(fast.value, ref.value);
  EXPECT_EQ(fast.side, ref.side);
  EXPECT_EQ(static_cast<double>(h.CutSize(fast.side)), fast.value);
  if (h.NumVertices() <= 14) {
    EXPECT_EQ(fast.value, HypergraphMinCutBrute(h).value);
  }
}

TEST(ExactDifferentialTest, VertexKernelsOnSpecGridGraphs) {
  size_t graphs = 0;
  for (const testkit::StreamSpec& spec : testkit::DefaultSpecGrid()) {
    const Hypergraph final_graph = spec.Build().final_graph;
    if (final_graph.Rank() > 2) continue;
    CheckVertexKernels(final_graph.ToGraph(), spec.ToString());
    ++graphs;
  }
  EXPECT_GE(graphs, 20u);
}

TEST(ExactDifferentialTest, VertexKernelsOnRandomFamilies) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const std::string s = " seed=" + std::to_string(seed);
    CheckVertexKernels(Gnm(12, 20 + 3 * seed, seed), "gnm12" + s);
    CheckVertexKernels(Gnm(40, 90 + 20 * seed, seed), "gnm40" + s);
    CheckVertexKernels(UnionOfHamiltonianCycles(14, 1 + seed % 4, seed),
                       "expander14" + s);
    CheckVertexKernels(UnionOfHamiltonianCycles(48, 2 + seed % 3, seed),
                       "expander48" + s);
    CheckVertexKernels(PlantedSeparator(30, 1 + seed % 5, seed).graph,
                       "planted30" + s);
    CheckVertexKernels(RoadNetwork(64, 4, seed), "road64" + s);
  }
}

TEST(ExactDifferentialTest, VertexKernelsOnDegenerateInputs) {
  // Complete graphs have no non-adjacent pair; n <= t rejects every t >= n.
  for (size_t n = 0; n <= 7; ++n) {
    CheckVertexKernels(CompleteGraph(n), "complete" + std::to_string(n));
    CheckVertexKernels(Graph(n), "empty" + std::to_string(n));
  }
  Graph two_triangles(6);
  for (VertexId base : {0u, 3u}) {
    two_triangles.AddEdge(base, base + 1);
    two_triangles.AddEdge(base + 1, base + 2);
    two_triangles.AddEdge(base, base + 2);
  }
  CheckVertexKernels(two_triangles, "disconnected");
  CheckVertexKernels(CompleteBipartite(3, 5), "k35");
  CheckVertexKernels(StarGraph(9), "star");
  Graph k4_minus_edge = CompleteGraph(4);
  k4_minus_edge.RemoveEdge(Edge(0, 3));
  CheckVertexKernels(k4_minus_edge, "k4-e");
}

TEST(ExactDifferentialTest, VertexDisjointPathsCapsAndMatchesMenger) {
  const Graph g = UnionOfHamiltonianCycles(24, 3, 5);
  for (VertexId v = 1; v < 24; ++v) {
    if (g.HasEdge(0, v)) continue;
    const int64_t full = VertexDisjointPaths(g, 0, v);
    EXPECT_LE(full, static_cast<int64_t>(std::min(g.Degree(0), g.Degree(v))));
    for (int64_t limit = 0; limit <= full + 1; ++limit) {
      EXPECT_EQ(VertexDisjointPaths(g, 0, v, limit), std::min(full, limit));
    }
  }
}

// Every non-adjacent pair, uncapped and capped one below the true value,
// against Dinic on the node-split network.
void CheckPathsPairByPair(const Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const VertexId n = static_cast<VertexId>(g.NumVertices());
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = s + 1; t < n; ++t) {
      if (g.HasEdge(s, t)) continue;
      const int64_t want = testkit::VertexDisjointPathsReference(g, s, t);
      ASSERT_EQ(VertexDisjointPaths(g, s, t), want) << s << "-" << t;
      if (want > 0) {
        ASSERT_EQ(VertexDisjointPaths(g, s, t, want - 1), want - 1)
            << s << "-" << t;
      }
    }
  }
}

// g with each edge replaced by a path through 0..max_extra new vertices
// (uniform per edge): the long degree-2 chains of real road networks.
Graph Subdivide(const Graph& g, size_t max_extra, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> extra;
  size_t n = g.NumVertices();
  for (size_t i = 0; i < g.NumEdges(); ++i) {
    extra.push_back(rng.Below(max_extra + 1));
    n += extra.back();
  }
  Graph h(n);
  VertexId next = static_cast<VertexId>(g.NumVertices());
  size_t i = 0;
  for (const Edge& e : g.Edges()) {
    VertexId prev = e.u();
    for (size_t k = 0; k < extra[i]; ++k, ++next) {
      h.AddEdge(prev, next);
      prev = next;
    }
    h.AddEdge(prev, e.v());
    ++i;
  }
  return h;
}

TEST(ExactDifferentialTest, VertexDisjointPathsMatchesDinicPairByPair) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const std::string s = " seed=" + std::to_string(seed);
    CheckPathsPairByPair(Gnm(30, 60 + 25 * seed, seed), "gnm30" + s);
    CheckPathsPairByPair(RoadNetwork(64, 4 + 2 * seed, seed), "road64" + s);
    CheckPathsPairByPair(UnionOfHamiltonianCycles(32, 2 + seed % 3, seed),
                         "expander32" + s);
  }
  // Seed 3 routes an augmenting path forwards out of a vertex against the
  // flow on the opposite arc (see the regression test below).
  CheckPathsPairByPair(Subdivide(RoadNetwork(50, 12, 3), 2, 3),
                       "subdivided road50 seed=3");
}

// An augmenting path that enters in(u) backwards over v -> u and leaves
// out(v) forwards to in(w), where w -> v carries flow. Those two arcs are
// not reverses of each other: cancelling w -> v there used to strand v and
// w with vertex flow but no edge flow, hiding the third path through v.
TEST(ExactDifferentialTest, VertexDisjointPathsForwardArcAgainstOppositeFlow) {
  enum : VertexId { s, t, y, w, v, u, a1, a2, a3, x };
  Graph g(24);
  auto chain = [&g](std::initializer_list<VertexId> path) {
    for (auto it = path.begin(); std::next(it) != path.end(); ++it) {
      g.AddEdge(*it, *std::next(it));
    }
  };
  chain({s, y, w, v, u, t});        // the first (shortest) augmenting path
  chain({s, a1, a2, a3, x, u});     // second path: into u, back over v -> u,
  chain({y, 10, 11, 12, 13, t});    // then w, y and this detour to t
  chain({s, 14, 15, 16, 17, v});    // the third path runs through v
  chain({v, 18, 19, 20, 21, 22, 23, t});
  EXPECT_EQ(testkit::VertexDisjointPathsReference(g, s, t), 3);
  EXPECT_EQ(VertexDisjointPaths(g, s, t), 3);
  EXPECT_EQ(VertexConnectivity(g), testkit::VertexConnectivityReference(g));
  CheckVertexKernels(g, "forward-arc regression");
}

TEST(ExactDifferentialTest, MinCutIdenticalOnSpecGrid) {
  for (const testkit::StreamSpec& spec : testkit::DefaultSpecGrid()) {
    CheckMinCutIdentical(spec.Build().final_graph, spec.ToString());
  }
}

TEST(ExactDifferentialTest, MinCutIdenticalOnRanksTwoToFour) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::string s = " seed=" + std::to_string(seed);
    for (size_t r = 2; r <= 4; ++r) {
      const std::string rank = " r=" + std::to_string(r);
      CheckMinCutIdentical(RandomUniformHypergraph(12, 18, r, seed),
                           "uniform12" + rank + s);
      CheckMinCutIdentical(RandomUniformHypergraph(60, 150, r, seed),
                           "uniform60" + rank + s);
      CheckMinCutIdentical(RandomHypergraph(40, 70, 2, r, seed),
                           "mixed40" + rank + s);
      CheckMinCutIdentical(PlantedHypergraphCut(24, r, 2, 30, seed).hypergraph,
                           "planted_cut" + rank + s);
    }
    CheckMinCutIdentical(Hypergraph::FromGraph(RoadNetwork(128, 8, seed)),
                         "road128" + s);
    CheckMinCutIdentical(Hypergraph::FromGraph(Gnm(30, 20, seed)),
                         "sparse_gnm" + s);  // often disconnected
  }
  Hypergraph isolated(5);  // edgeless: every phase cuts 0
  CheckMinCutIdentical(isolated, "edgeless");
  CheckMinCutIdentical(CompleteUniformHypergraph(7, 3), "complete_r3");
}

TEST(ExactDifferentialTest, WeightedMinCutMatchesBruteForce) {
  Rng rng(91);
  for (uint64_t seed = 0; seed < 12; ++seed) {
    const Hypergraph h = RandomHypergraph(11, 20, 2, 4, 700 + seed);
    std::vector<double> w(h.NumEdges());
    for (double& x : w) {
      // Dyadic weights (exact sums, zeros included) on even seeds,
      // arbitrary doubles on odd ones.
      x = seed % 2 == 0 ? static_cast<double>(rng.Below(16)) / 4.0
                        : rng.NextDouble() * 10.0;
    }
    const HypergraphCut fast = HypergraphMinCut(11, h.Edges(), w);
    const HypergraphCut brute = HypergraphMinCutBrute(11, h.Edges(), w);
    EXPECT_NEAR(fast.value, brute.value, 1e-9) << "seed=" << seed;
    EXPECT_NEAR(WeightedCutValue({h.Edges(), w}, fast.side), fast.value,
                1e-9)
        << "seed=" << seed;
    size_t shore = std::count(fast.side.begin(), fast.side.end(), true);
    EXPECT_TRUE(shore > 0 && shore < 11) << "seed=" << seed;
    if (seed % 2 == 0) {
      const HypergraphCut ref =
          testkit::HypergraphMinCutReference(11, h.Edges(), w);
      EXPECT_EQ(fast.value, ref.value) << "seed=" << seed;
      EXPECT_EQ(fast.side, ref.side) << "seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace gms
