// End-to-end integration tests: full stream -> sketch -> decode -> exact-
// verify pipelines combining several modules, as a user of the library
// would wire them.
#include <gtest/gtest.h>

#include "comm/simultaneous.h"
#include "connectivity/spanning_forest_sketch.h"
#include "exact/degeneracy.h"
#include "exact/hypergraph_mincut.h"
#include "exact/stoer_wagner.h"
#include "exact/strength.h"
#include "exact/vertex_connectivity.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "reconstruct/cut_degenerate.h"
#include "sparsify/sparsifier_sketch.h"
#include "sparsify/verify.h"
#include "vertexconn/vc_estimator.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

TEST(IntegrationTest, EvolvingNetworkConnectivityMonitoring) {
  // Simulate a network that grows, partially fails, and heals, checking
  // the sketch answer after each phase against ground truth.
  size_t n = 48;
  Graph g(n);
  SpanningForestSketch query(n, 2, 1);
  auto sync = [&](const Edge& e, int delta) {
    if (delta > 0) {
      g.AddEdge(e);
    } else {
      g.RemoveEdge(e);
    }
    query.Update(Hyperedge(e), delta);
  };
  // Phase 1: build two rings.
  for (VertexId i = 0; i < 24; ++i) sync(Edge(i, (i + 1) % 24), +1);
  for (VertexId i = 24; i < 48; ++i) {
    sync(Edge(i, i + 1 == 48 ? 24 : i + 1), +1);
  }
  auto r1 = query.Query();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(NumComponents(r1.value()), 2u);
  // Phase 2: bridge them.
  sync(Edge(0, 24), +1);
  auto r2 = query.Query();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(IsConnected(r2.value()));
  // Phase 3: the bridge fails.
  sync(Edge(0, 24), -1);
  auto r3 = query.Query();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(NumComponents(r3.value()), 2u);
  // Phase 4: redundant healing.
  sync(Edge(5, 30), +1);
  sync(Edge(10, 40), +1);
  auto r4 = query.Query();
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(IsConnected(r4.value()));
}

TEST(IntegrationTest, VertexConnectivityPipelineOnPlantedInstance) {
  // One stream, two consumers: the Theorem 4 query sketch and the Theorem
  // 8 estimator, cross-checked against exact postprocessing.
  auto planted = PlantedSeparator(36, 2, 2);
  DynamicStream stream = DynamicStream::WithChurn(planted.graph, 150, 3);

  VcQueryParams qp;
  qp.k = 2;
  qp.r_multiplier = 0.5;
  qp.forest.config = SketchConfig::Light();
  VcQuerySketch query(36, qp, 4);

  VcEstimatorParams ep;
  ep.k = 3;
  ep.epsilon = 1.0;
  ep.r_multiplier = 0.05;
  ep.forest.config = SketchConfig::Light();
  VcEstimator estimator(36, ep, 5);

  for (const auto& u : stream) {
    query.Update(u.edge.AsEdge(), u.delta);
    estimator.Update(u.edge.AsEdge(), u.delta);
  }
  auto query_snap = query.Query();
  ASSERT_TRUE(query_snap.ok());
  auto sep = query_snap.value().Disconnects(planted.separator);
  ASSERT_TRUE(sep.ok());
  EXPECT_TRUE(*sep);
  // kappa(G) = 2 < k = 3: the estimator must not certify.
  auto certify = estimator.IsAtLeastK();
  ASSERT_TRUE(certify.ok());
  EXPECT_FALSE(*certify);
  EXPECT_EQ(VertexConnectivity(planted.graph), 2u);
}

TEST(IntegrationTest, SparsifyThenMinCutMatches) {
  // Downstream use of a sparsifier: global min cut on the sparsifier
  // approximates the true min cut.
  auto planted = PlantedHypergraphCut(14, 3, 3, 15, 6);
  const Hypergraph& h = planted.hypergraph;
  SparsifierParams sp;
  sp.k = 10;
  sp.levels = 7;
  sp.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch sketch(14, 3, sp, 7);
  sketch.Process(DynamicStream::InsertOnly(h, 8));
  auto out = sketch.Query();
  ASSERT_TRUE(out.ok());
  auto exact_cut = HypergraphMinCut(h);
  auto approx_cut = HypergraphMinCut(14, out.value().sparsifier.edges,
                                     out.value().sparsifier.weights);
  EXPECT_NEAR(approx_cut.value, exact_cut.value, 0.8 * exact_cut.value + 0.1);
}

TEST(IntegrationTest, ReconstructionFeedsExactAlgorithms) {
  // Reconstruct a sparse graph from the sketch, then run exact algorithms
  // on the reconstruction: results must match the original.
  Graph g = RandomDDegenerate(20, 2, 9);
  Hypergraph h = Hypergraph::FromGraph(g);
  size_t d = LightCompleteness(h);
  CutDegenerateReconstructor rec(20, 2, d, 10);
  rec.Process(DynamicStream::WithChurn(g, 100, 11));
  auto r = rec.Reconstruct();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->complete);
  Graph back = r->hypergraph.ToGraph();
  EXPECT_EQ(back, g);
  EXPECT_EQ(EdgeConnectivity(back), EdgeConnectivity(g));
  EXPECT_EQ(VertexConnectivity(back), VertexConnectivity(g));
}

TEST(IntegrationTest, DistributedRefereeMatchesStreamingAnswer) {
  // The same graph through the streaming sketch and the one-round
  // communication protocol: both must agree with ground truth.
  Graph g = ErdosRenyi(40, 0.08, 12);
  Hypergraph h = Hypergraph::FromGraph(g);
  SpanningForestSketch query(40, 2, 13);
  query.Process(DynamicStream::InsertOnly(h, 14));
  auto streamed = query.Query();
  ASSERT_TRUE(streamed.ok());
  auto comm = RunSimultaneousConnectivity(h, 15);
  EXPECT_TRUE(comm.correct);
  EXPECT_EQ(IsConnected(streamed.value()), comm.exact_connected);
}

}  // namespace
}  // namespace gms
