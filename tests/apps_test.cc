// Composed-application suite (src/apps/ + the serve-layer bridge op):
// TwoEdgeConnect's forest peeling against known bridge structure,
// ApproxMinCut's doubling ladder against known cut values, shared-plane,
// parallel and disk-file ingestion landing on the same answers, and the
// SketchServer kIsBridge op over real wire frames including every refusal
// path. Suite names contain "Apps" on purpose: the tsan preset's test
// filter picks them up as the composed-pipeline data-race smoke.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "serve/serve_protocol.h"
#include "serve/sketch_server.h"
#include "stream/stream.h"
#include "testkit/stream_spec.h"
#include "workload/binary_stream.h"
#include "workload/spec_convert.h"

namespace gms {
namespace {

// ---------- exact bridge finding (graph/traversal.h) ----------

TEST(AppsBridgeTest, PathEdgesAreAllBridges) {
  Hypergraph g = Hypergraph::FromGraph(PathGraph(6));
  EXPECT_EQ(BridgeHyperedges(g).size(), 5u);
}

TEST(AppsBridgeTest, CycleHasNoBridges) {
  Hypergraph g = Hypergraph::FromGraph(CycleGraph(6));
  EXPECT_TRUE(BridgeHyperedges(g).empty());
}

TEST(AppsBridgeTest, BarbellBridgeIsTheJoiningEdge) {
  // Two triangles joined by one edge: exactly that edge is a bridge.
  Hypergraph g(6);
  g.AddEdge(Hyperedge{0, 1});
  g.AddEdge(Hyperedge{1, 2});
  g.AddEdge(Hyperedge{0, 2});
  g.AddEdge(Hyperedge{3, 4});
  g.AddEdge(Hyperedge{4, 5});
  g.AddEdge(Hyperedge{3, 5});
  g.AddEdge(Hyperedge{2, 3});
  std::vector<Hyperedge> bridges = BridgeHyperedges(g);
  ASSERT_EQ(bridges.size(), 1u);
  EXPECT_TRUE(bridges[0] == Hyperedge({2, 3}));
}

TEST(AppsBridgeTest, HyperedgeBridgeDetected) {
  // Two rank-3 hyperedges sharing vertex 2: both are bridges (removing
  // either strands its private vertices).
  Hypergraph g(5);
  g.AddEdge(Hyperedge{0, 1, 2});
  g.AddEdge(Hyperedge{2, 3, 4});
  EXPECT_EQ(BridgeHyperedges(g).size(), 2u);
  // Closing the ends does NOT help: vertices 1 and 3 are each private to
  // one rank-3 hyperedge, so removing it still strands them.
  g.AddEdge(Hyperedge{0, 4});
  EXPECT_EQ(BridgeHyperedges(g).size(), 2u);
  // Only once every vertex is doubly covered do the bridges disappear.
  g.AddEdge(Hyperedge{0, 1});
  g.AddEdge(Hyperedge{3, 4});
  EXPECT_TRUE(BridgeHyperedges(g).empty());
}

// ---------- TwoEdgeConnect ----------

TEST(AppsTwoEdgeConnectTest, CycleIsTwoEdgeConnected) {
  constexpr size_t kN = 16;
  apps::TwoEdgeConnect app(kN, 2, /*seed=*/7);
  app.Process(DynamicStream::InsertOnly(Hypergraph::FromGraph(CycleGraph(kN)),
                                        /*seed=*/3));
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().connected);
  EXPECT_TRUE(got.value().bridges.empty());
  EXPECT_TRUE(got.value().two_edge_connected);
  EXPECT_EQ(got.value().num_components, 1u);
}

TEST(AppsTwoEdgeConnectTest, PathBridgesAreFound) {
  constexpr size_t kN = 12;
  apps::TwoEdgeConnect app(kN, 2, /*seed=*/11);
  app.Process(DynamicStream::InsertOnly(Hypergraph::FromGraph(PathGraph(kN)),
                                        /*seed=*/5));
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().connected);
  EXPECT_FALSE(got.value().two_edge_connected);
  // Every path edge is a bridge, and the skeleton holds no ghosts.
  EXPECT_EQ(got.value().bridges.size(), kN - 1);
}

TEST(AppsTwoEdgeConnectTest, DeletionsReopenABridge) {
  // A cycle is 2-edge-connected; deleting one edge leaves a path whose
  // every surviving edge is a bridge. Linear sketches must track that.
  constexpr size_t kN = 10;
  apps::TwoEdgeConnect app(kN, 2, /*seed=*/13);
  const Graph cycle = CycleGraph(kN);
  for (const Edge& e : cycle.Edges()) app.Update(Hyperedge(e), +1);
  app.Update(Hyperedge{0, 1}, -1);
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().connected);
  EXPECT_EQ(got.value().bridges.size(), kN - 1);
  EXPECT_FALSE(got.value().two_edge_connected);
}

TEST(AppsTwoEdgeConnectTest, DisconnectedGraphReported) {
  constexpr size_t kN = 12;
  apps::TwoEdgeConnect app(kN, 2, /*seed=*/17);
  // Two disjoint 6-cycles.
  for (VertexId v = 0; v < 6; ++v) {
    app.Update(Hyperedge{v, static_cast<VertexId>((v + 1) % 6)}, +1);
    app.Update(Hyperedge{static_cast<VertexId>(6 + v),
                         static_cast<VertexId>(6 + (v + 1) % 6)},
               +1);
  }
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_FALSE(got.value().connected);
  EXPECT_EQ(got.value().num_components, 2u);
  EXPECT_FALSE(got.value().two_edge_connected);
  EXPECT_TRUE(got.value().bridges.empty());
}

// Shared-plane ingestion (gutter batches fanned to both layers, the
// threads = 1 path) must land on the same frames and answer as the
// per-layer parallel paths a threads = 4 app takes -- the app's
// ApplyUpdateBatch hook is exactly the per-layer fan-out.
TEST(AppsTwoEdgeConnectTest, PlaneMatchesParallelIndependentIngest) {
  constexpr size_t kN = 24;
  constexpr uint64_t kSeed = 19;
  DynamicStream stream = DynamicStream::WithChurn(
      UnionOfHamiltonianCycles(kN, 2, 23), /*decoys=*/kN, 29);

  apps::TwoEdgeConnect planed(kN, 2, kSeed);
  planed.Process(stream);
  apps::TwoEdgeConnect parallel(
      kN, 2, kSeed, ForestSketchParams::Builder().Threads(4).Build());
  parallel.ProcessIndependent(std::span<const StreamUpdate>(stream.updates()));

  std::vector<uint8_t> a1, a2, b1, b2;
  planed.layer1().Serialize(&a1);
  planed.layer2().Serialize(&a2);
  parallel.layer1().Serialize(&b1);
  parallel.layer2().Serialize(&b2);
  EXPECT_EQ(a1, b1);
  EXPECT_EQ(a2, b2);

  auto a = planed.Query();
  auto b = parallel.Query();
  ASSERT_EQ(a.ok(), b.ok());
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().skeleton == b.value().skeleton);
  EXPECT_EQ(a.value().num_components, b.value().num_components);
  EXPECT_EQ(a.value().two_edge_connected, b.value().two_edge_connected);
}

// Disk-file composition: spec -> GMSB file -> mmap'd replay -> app
// answers, identical to in-memory ingestion of the same spec. The stream
// is longer than one replay chunk, so the replay crosses a chunk boundary.
TEST(AppsTwoEdgeConnectTest, BinaryFileIngestMatchesInMemory) {
  constexpr uint64_t kSeed = 37;
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kRmat;
  spec.n = 256;
  spec.m = 1024;
  spec.churn = testkit::Churn::kWithChurn;
  spec.decoys = 2048;

  const std::string path = ::testing::TempDir() + "/apps_rmat.gmsb";
  testkit::BuiltStream built;
  ASSERT_TRUE(workload::WriteSpecStreamFile(spec, path, &built).ok());
  auto file = workload::BinaryFileStream::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_GT(built.stream.size(), workload::kReplayChunkUpdates);

  apps::TwoEdgeConnect serial(spec.n, built.max_rank, kSeed);
  serial.Process(built.stream);
  apps::TwoEdgeConnect from_file(spec.n, built.max_rank, kSeed);
  workload::ProcessBinaryFileStream(&from_file, *file);

  auto a = serial.Query();
  auto b = from_file.Query();
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    EXPECT_TRUE(a.value().skeleton == b.value().skeleton);
  }
}

// ---------- ApproxMinCut ----------

TEST(AppsMinCutTest, CycleResolvesExactlyTwo) {
  constexpr size_t kN = 14;
  apps::ApproxMinCut app(kN, 2, /*k_cap=*/8, /*seed=*/41);
  app.Process(DynamicStream::InsertOnly(Hypergraph::FromGraph(CycleGraph(kN)),
                                        /*seed=*/43));
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().value, 2u);
  EXPECT_TRUE(got.value().exact);
  // A cycle's min cut is 2: the k = 4 level is the first that can show a
  // value strictly below its own k.
  EXPECT_EQ(got.value().resolved_k, 4u);
  ASSERT_EQ(got.value().shore.size(), kN);
  Hypergraph truth = Hypergraph::FromGraph(CycleGraph(kN));
  EXPECT_EQ(truth.CutSize(got.value().shore), 2u);
}

TEST(AppsMinCutTest, DisconnectedResolvesZero) {
  apps::ApproxMinCut app(8, 2, /*k_cap=*/4, /*seed=*/47);
  app.Update(Hyperedge{0, 1}, +1);
  app.Update(Hyperedge{2, 3}, +1);
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().value, 0u);
  EXPECT_TRUE(got.value().exact);
  EXPECT_EQ(got.value().resolved_k, 1u);
}

TEST(AppsMinCutTest, WellConnectedGraphSaturatesTheCap) {
  // K8 has min cut 7; a ladder capped at k = 4 must saturate: the answer
  // is the certified lower bound k_cap, not an exact cut.
  constexpr size_t kN = 8;
  apps::ApproxMinCut app(kN, 2, /*k_cap=*/4, /*seed=*/53);
  for (VertexId u = 0; u < kN; ++u) {
    for (VertexId v = u + 1; v < kN; ++v) app.Update(Hyperedge{u, v}, +1);
  }
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().value, 4u);
  EXPECT_FALSE(got.value().exact);
  EXPECT_EQ(got.value().resolved_k, 4u);
}

TEST(AppsMinCutTest, DeletionsLowerTheCut) {
  // Cycle plus chords, then delete the chords: the cut drops back to 2.
  constexpr size_t kN = 12;
  apps::ApproxMinCut app(kN, 2, /*k_cap=*/8, /*seed=*/59);
  for (VertexId v = 0; v < kN; ++v) {
    app.Update(Hyperedge{v, static_cast<VertexId>((v + 1) % kN)}, +1);
  }
  for (VertexId v = 0; v < kN; ++v) {
    app.Update(Hyperedge{v, static_cast<VertexId>((v + 2) % kN)}, +1);
  }
  for (VertexId v = 0; v < kN; ++v) {
    app.Update(Hyperedge{v, static_cast<VertexId>((v + 2) % kN)}, -1);
  }
  auto got = app.Query();
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_EQ(got.value().value, 2u);
  EXPECT_TRUE(got.value().exact);
}

TEST(AppsMinCutTest, LadderLevelsAreDoubling) {
  apps::ApproxMinCut app(8, 2, /*k_cap=*/8, /*seed=*/61);
  EXPECT_EQ(app.num_levels(), 4u);  // 1, 2, 4, 8
  EXPECT_EQ(app.k_cap(), 8u);
  apps::ApproxMinCut odd(8, 2, /*k_cap=*/5, /*seed=*/61);
  EXPECT_EQ(odd.num_levels(), 4u);  // 1, 2, 4, 5
  EXPECT_GT(odd.MemoryBytes(), 0u);
}

// ---------- serve-layer bridge queries ----------

serve::ServeResponse RoundTrip(serve::SketchServer& server,
                               const serve::ServeRequest& req) {
  std::vector<uint8_t> frame, reply;
  serve::EncodeServeRequest(req, &frame);
  server.HandleFrame(frame, &reply);
  auto resp = serve::DecodeServeResponse(reply);
  EXPECT_TRUE(resp.ok()) << resp.status().message();
  return resp.ok() ? *resp : serve::ServeResponse{};
}

serve::ServeRequest BridgeReq(uint64_t u, uint64_t v) {
  serve::ServeRequest req;
  req.op = serve::ServeOp::kIsBridge;
  req.u = u;
  req.v = v;
  return req;
}

TEST(AppsServeBridgeTest, ProtocolCarriesTheNewOp) {
  EXPECT_STREQ(ServeOpName(serve::ServeOp::kIsBridge), "is_bridge");
  std::vector<uint8_t> frame;
  serve::EncodeServeRequest(BridgeReq(3, 4), &frame);
  auto back = serve::DecodeServeRequest(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->op, serve::ServeOp::kIsBridge);
  EXPECT_EQ(back->u, 3u);
  EXPECT_EQ(back->v, 4u);
}

TEST(AppsServeBridgeTest, BarbellBridgeServedOverWire) {
  constexpr size_t kN = 8;
  // Two 4-cycles joined by the single edge {3, 4}.
  DynamicStream stream;
  for (VertexId v = 0; v < 4; ++v) {
    stream.Push(Hyperedge{v, static_cast<VertexId>((v + 1) % 4)}, +1);
    stream.Push(Hyperedge{static_cast<VertexId>(4 + v),
                          static_cast<VertexId>(4 + (v + 1) % 4)},
                +1);
  }
  stream.Push(Hyperedge{3, 4}, +1);

  serve::SketchServerParams params =
      serve::SketchServerParams::Builder().SkeletonK(2).Build();
  serve::SketchServer server(kN, params, /*seed=*/67);
  server.Ingest(stream);
  server.Flush();

  serve::ServeResponse bridge = RoundTrip(server, BridgeReq(3, 4));
  EXPECT_EQ(bridge.code, StatusCode::kOk);
  EXPECT_EQ(bridge.value, 1u);
  // Endpoint order must not matter.
  EXPECT_EQ(RoundTrip(server, BridgeReq(4, 3)).value, 1u);
  // Cycle edges and absent edges are not bridges.
  EXPECT_EQ(RoundTrip(server, BridgeReq(0, 1)).value, 0u);
  EXPECT_EQ(RoundTrip(server, BridgeReq(0, 7)).value, 0u);
  EXPECT_EQ(RoundTrip(server, BridgeReq(2, 2)).value, 0u);

  // Deleting a cycle edge turns the whole left side into bridges.
  DynamicStream del;
  del.Push(Hyperedge{0, 1}, -1);
  server.Ingest(del);
  server.Flush();
  EXPECT_EQ(RoundTrip(server, BridgeReq(1, 2)).value, 1u);
  EXPECT_EQ(RoundTrip(server, BridgeReq(5, 6)).value, 0u);
}

TEST(AppsServeBridgeTest, RefusalPaths) {
  {
    // No skeleton engine at all.
    serve::SketchServerParams params;  // skeleton_k = 0
    serve::SketchServer server(6, params, 71);
    serve::ServeResponse resp = RoundTrip(server, BridgeReq(0, 1));
    EXPECT_EQ(resp.code, StatusCode::kFailedPrecondition);
  }
  {
    // Skeleton present but k = 1: cannot certify 2-edge-connectivity.
    serve::SketchServerParams params =
        serve::SketchServerParams::Builder().SkeletonK(1).Build();
    serve::SketchServer server(6, params, 73);
    serve::ServeResponse resp = RoundTrip(server, BridgeReq(0, 1));
    EXPECT_EQ(resp.code, StatusCode::kFailedPrecondition);
  }
  {
    // Vertex ids out of range.
    serve::SketchServerParams params =
        serve::SketchServerParams::Builder().SkeletonK(2).Build();
    serve::SketchServer server(6, params, 79);
    server.Flush();
    serve::ServeResponse resp = RoundTrip(server, BridgeReq(0, 6));
    EXPECT_EQ(resp.code, StatusCode::kInvalidArgument);
  }
}

TEST(AppsServeBridgeTest, BridgeIndexCountsHyperedgeBridges) {
  // Rank-3 bridges exist but have no (u, v) address: the index still
  // counts them while IsBridge stays pair-addressed.
  Hypergraph skel(5);
  skel.AddEdge(Hyperedge{0, 1, 2});
  skel.AddEdge(Hyperedge{2, 3});
  skel.AddEdge(Hyperedge{3, 4});
  serve::BridgeIndex index(5, skel);
  EXPECT_EQ(index.num_bridges(), 3u);
  EXPECT_TRUE(index.IsBridge(2, 3));
  EXPECT_TRUE(index.IsBridge(4, 3));
  EXPECT_FALSE(index.IsBridge(0, 1));  // inside the rank-3 hyperedge
}

}  // namespace
}  // namespace gms
