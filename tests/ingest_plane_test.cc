// Tests for the shared ingestion plane (stream/ingest_plane.h): one
// encode/prepare/route pass fanning out to every registered sketch
// consumer must be BIT-IDENTICAL -- at serialized-frame strength -- to
// each consumer ingesting the stream independently, across the three
// churn families. Under the `tsan` preset (filter matches Plane*) the
// concurrency test doubles as the data-race check for serving queries
// that run while the plane ingests.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "serve/sketch_server.h"
#include "stream/ingest_plane.h"
#include "stream/stream.h"
#include "testkit/stream_spec.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

constexpr testkit::Churn kChurns[] = {testkit::Churn::kInsertOnly,
                                      testkit::Churn::kWithChurn,
                                      testkit::Churn::kDeleteDown};

// The determinism suite's expander spec: moderately dense, three churn
// families, rank-2 (so the VC consumer's (n, 2) codec matches).
testkit::StreamSpec PlaneSpec(testkit::Churn churn) {
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kExpander;
  spec.n = 72;
  spec.k = 3;
  spec.gseed = 11;
  spec.churn = churn;
  spec.decoys = 96;
  spec.sseed = 19;
  return spec;
}

ForestSketchParams LightForest() {
  return ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
}

VcQueryParams LightVc(size_t r) {
  return VcQueryParams::Builder()
      .K(2)
      .ExplicitR(r)
      .Forest(LightForest())
      .Build();
}

template <typename Sketch>
std::vector<uint8_t> Frame(const Sketch& s) {
  std::vector<uint8_t> out;
  s.Serialize(&out);
  return out;
}

// ---------------------------------------------------------------------------
// Shared-plane determinism matrix: a forest, a k-skeleton, and an R-bit
// routed VC consumer all fed by ONE plane pass against each sketch
// ingesting the stream independently, frame byte for byte, for all three
// churn families.
// ---------------------------------------------------------------------------

TEST(PlaneDeterminismTest, SharedFanOutMatrixBitIdentical) {
  constexpr uint64_t kSeed = 211;
  constexpr size_t kR = 12;
  for (testkit::Churn churn : kChurns) {
    const testkit::StreamSpec spec = PlaneSpec(churn);
    const testkit::BuiltStream built = spec.Build();
    const auto& updates = built.stream.updates();

    // Independent baselines, serial per-update path.
    SpanningForestSketch forest_solo(spec.n, 2, kSeed, LightForest());
    KSkeletonSketch skel_solo(spec.n, 2, /*k=*/3, kSeed + 1, LightForest());
    VcQuerySketch vc_solo(spec.n, LightVc(kR), kSeed + 2);
    for (const auto& u : updates) {
      forest_solo.Update(u.edge, u.delta);
      skel_solo.Update(u.edge, u.delta);
      vc_solo.Update(Edge(u.edge[0], u.edge[1]), u.delta);
    }
    const std::vector<uint8_t> forest_frame = Frame(forest_solo);
    const std::vector<uint8_t> skel_frame = Frame(skel_solo);
    const std::vector<uint8_t> vc_frame = Frame(vc_solo);

    // Inline serial plane: one gutter pass, three consumers.
    {
      SpanningForestSketch forest(spec.n, 2, kSeed, LightForest());
      KSkeletonSketch skel(spec.n, 2, 3, kSeed + 1, LightForest());
      VcQuerySketch vc(spec.n, LightVc(kR), kSeed + 2);
      IngestPlane plane;
      ASSERT_TRUE(plane.Add(&forest));
      ASSERT_TRUE(plane.Add(&skel));
      ASSERT_TRUE(plane.Add(&vc));
      EXPECT_EQ(plane.num_consumers(), 3u);
      EXPECT_EQ(plane.route_bits_used(), 2u + kR);
      plane.Process(std::span<const StreamUpdate>(updates));
      EXPECT_EQ(Frame(forest), forest_frame) << testkit::ChurnName(churn);
      EXPECT_EQ(Frame(skel), skel_frame) << testkit::ChurnName(churn);
      EXPECT_EQ(Frame(vc), vc_frame) << testkit::ChurnName(churn);
    }
  }
}

// A hub with far more incident updates than one gutter holds: its gutter
// flushes several times mid-chunk, and a second Process call on the same
// plane starts from released buffers. Frames must still match solo ingest.
TEST(PlaneDeterminismTest, FullGuttersFlushMidChunkBitIdentical) {
  constexpr size_t kN = 256;
  constexpr uint64_t kSeed = 233;
  std::vector<StreamUpdate> updates;
  for (VertexId v = 1; v < kN; ++v) {
    updates.emplace_back(Hyperedge{0, v}, +1);
  }
  for (VertexId v = 1; v < kN; v += 3) {
    updates.emplace_back(Hyperedge{0, v}, -1);
  }
  const std::span<const StreamUpdate> all(updates);

  SpanningForestSketch forest_solo(kN, 2, kSeed, LightForest());
  VcQuerySketch vc_solo(kN, LightVc(8), kSeed + 1);
  for (const auto& u : updates) {
    forest_solo.Update(u.edge, u.delta);
    vc_solo.Update(Edge(u.edge[0], u.edge[1]), u.delta);
  }

  SpanningForestSketch forest(kN, 2, kSeed, LightForest());
  VcQuerySketch vc(kN, LightVc(8), kSeed + 1);
  IngestPlane plane;
  ASSERT_TRUE(plane.Add(&forest));
  ASSERT_TRUE(plane.Add(&vc));
  const size_t half = updates.size() / 2;
  plane.Process(all.subspan(0, half));
  plane.Process(all.subspan(half));
  EXPECT_TRUE(forest.VertexEscalated(0));
  EXPECT_EQ(Frame(forest), Frame(forest_solo));
  EXPECT_EQ(Frame(vc), Frame(vc_solo));
}

// The plane refuses consumers it cannot share a prepared pass with:
// mismatched vertex count, mismatched codec domain (max_rank), and route
// words that would overflow 64 bits. Reset() reclaims the bit budget.
TEST(PlaneDeterminismTest, AddRejectsUnshareableConsumers) {
  constexpr uint64_t kSeed = 77;
  SpanningForestSketch base(32, 2, kSeed, LightForest());
  SpanningForestSketch other_n(48, 2, kSeed, LightForest());
  SpanningForestSketch other_rank(32, 3, kSeed, LightForest());

  IngestPlane plane;
  ASSERT_TRUE(plane.Add(&base));
  EXPECT_FALSE(plane.Add(&other_n));
  EXPECT_FALSE(plane.Add(&other_rank));
  EXPECT_EQ(plane.num_consumers(), 1u);
  EXPECT_EQ(plane.route_bits_used(), 1u);

  // Two 40-bit VC consumers cannot both pack into the 64-bit route word;
  // the second is rejected and the plane keeps working without it.
  VcQuerySketch wide_a(32, LightVc(40), kSeed + 1);
  VcQuerySketch wide_b(32, LightVc(40), kSeed + 2);
  EXPECT_TRUE(plane.Add(&wide_a));
  EXPECT_EQ(plane.route_bits_used(), 41u);
  EXPECT_FALSE(plane.Add(&wide_b));
  EXPECT_EQ(plane.num_consumers(), 2u);

  plane.Reset();
  EXPECT_EQ(plane.num_consumers(), 0u);
  EXPECT_EQ(plane.route_bits_used(), 0u);
  EXPECT_TRUE(plane.Add(&wide_b));
}

// ---------------------------------------------------------------------------
// Application call sites: Process (shared plane fan-out) vs
// ProcessIndependent (each layer re-encodes), frame byte for byte.
// ---------------------------------------------------------------------------

TEST(PlaneDeterminismTest, TwoEdgeConnectPlaneMatchesIndependent) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 307;
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, 2 * kN, kSeed + 1);

  apps::TwoEdgeConnect independent(kN, 2, kSeed, LightForest());
  independent.ProcessIndependent(
      std::span<const StreamUpdate>(stream.updates()));

  apps::TwoEdgeConnect planed(kN, 2, kSeed, LightForest());
  planed.Process(stream);
  EXPECT_EQ(Frame(planed.layer1()), Frame(independent.layer1()));
  EXPECT_EQ(Frame(planed.layer2()), Frame(independent.layer2()));
}

TEST(PlaneDeterminismTest, ApproxMinCutLadderPlaneMatchesIndependent) {
  constexpr size_t kN = 48;
  constexpr uint64_t kSeed = 401;
  constexpr size_t kCap = 8;  // rungs k = 1, 2, 4, 8
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);

  apps::ApproxMinCut independent(kN, 2, kCap, kSeed, LightForest());
  independent.ProcessIndependent(
      std::span<const StreamUpdate>(stream.updates()));

  apps::ApproxMinCut planed(kN, 2, kCap, kSeed, LightForest());
  planed.Process(stream);
  ASSERT_EQ(planed.num_levels(), independent.num_levels());
  for (size_t i = 0; i < planed.num_levels(); ++i) {
    EXPECT_EQ(Frame(planed.level(i)), Frame(independent.level(i)))
        << "rung " << i;
  }
}

// ---------------------------------------------------------------------------
// SketchServer: the shared sealed-delta ingest (one plane pass feeding all
// three engines' open deltas) must publish the same epochs and the same
// payloads as the pre-plane per-engine ingest.
// ---------------------------------------------------------------------------

serve::SketchServerParams ServerParams(size_t epoch_updates, size_t max_rank) {
  return serve::SketchServerParams::Builder()
      .Forest(LightForest())
      .MaxRank(max_rank)
      .Vc(LightVc(10))
      .SkeletonK(2)
      .EpochUpdates(epoch_updates)
      .Build();
}

void ExpectServersAgree(serve::SketchServer* shared,
                        serve::SketchServer* independent) {
  shared->Flush();
  independent->Flush();
  auto fs = shared->forest_engine().Current();
  auto fi = independent->forest_engine().Current();
  ASSERT_TRUE(fs->status.ok());
  ASSERT_TRUE(fi->status.ok());
  EXPECT_EQ(fs->prefix_updates, fi->prefix_updates);
  EXPECT_EQ(fs->epoch, fi->epoch);
  EXPECT_TRUE(*fs->payload == *fi->payload);
  auto vs = shared->vc_engine().Current();
  auto vi = independent->vc_engine().Current();
  ASSERT_TRUE(vs->status.ok());
  ASSERT_TRUE(vi->status.ok());
  EXPECT_EQ(vs->prefix_updates, vi->prefix_updates);
  EXPECT_TRUE(vs->payload->union_graph() == vi->payload->union_graph());
  auto ss = shared->skeleton_engine().Current();
  auto si = independent->skeleton_engine().Current();
  ASSERT_TRUE(ss->status.ok());
  ASSERT_TRUE(si->status.ok());
  EXPECT_EQ(ss->prefix_updates, si->prefix_updates);
  EXPECT_TRUE(*ss->payload == *si->payload);
}

TEST(PlaneDeterminismTest, ServerSharedIngestMatchesIndependent) {
  constexpr size_t kN = 56;
  constexpr uint64_t kSeed = 509;
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);

  // Small epochs force several shared-delta chunks per Ingest call.
  serve::SketchServer shared(kN, ServerParams(/*epoch_updates=*/64, 2), kSeed);
  serve::SketchServer independent(kN, ServerParams(64, 2), kSeed);
  shared.Ingest(stream);
  independent.IngestIndependent(
      std::span<const StreamUpdate>(stream.updates()));
  ExpectServersAgree(&shared, &independent);
}

// With max_rank = 3 the forest/skeleton codec domain is (n, 3) while the
// VC engine's is (n, 2): the VC engine cannot join the plane and must fall
// back to its own Process on the same chunks -- still byte-identical.
TEST(PlaneDeterminismTest, ServerVcFallbackOutsidePlaneStillAgrees) {
  constexpr size_t kN = 40;
  constexpr uint64_t kSeed = 601;
  const Graph g = UnionOfHamiltonianCycles(kN, 2, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);

  serve::SketchServer shared(kN, ServerParams(/*epoch_updates=*/64, 3), kSeed);
  serve::SketchServer independent(kN, ServerParams(64, 3), kSeed);
  shared.Ingest(stream);
  independent.IngestIndependent(
      std::span<const StreamUpdate>(stream.updates()));
  ExpectServersAgree(&shared, &independent);
}

// ---------------------------------------------------------------------------
// Concurrency: shared-plane ingest on the ingest thread while query
// threads hammer the server -- the tsan preset's data-race check for the
// external ingest scopes, epoch publication, and the wall-clock pacer.
// ---------------------------------------------------------------------------

TEST(PlaneConcurrencyTest, ServerSharedIngestWhileQuerying) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 701;
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);

  serve::SketchServerParams params =
      serve::SketchServerParams::Builder()
          .Forest(LightForest())
          .MaxRank(2)
          .Vc(LightVc(10))
          .SkeletonK(2)
          .Serving(ServingParams::Builder()
                       .EpochUpdates(128)
                       .EpochDeadlineMillis(5)
                       .Build())
          .Build();
  serve::SketchServer server(kN, params, kSeed);

  std::atomic<bool> stop{false};
  std::vector<std::thread> askers;
  for (int t = 0; t < 2; ++t) {
    askers.emplace_back([&server, &stop, t] {
      serve::ServeRequest req;
      req.op = serve::ServeOp::kConnected;
      req.u = static_cast<uint64_t>(t);
      req.v = static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        server.Handle(req);
      }
    });
  }
  // Several chunks through the shared plane while queries run.
  const auto& updates = stream.updates();
  const size_t half = updates.size() / 2;
  server.Ingest(std::span<const StreamUpdate>(updates.data(), half));
  server.Ingest(std::span<const StreamUpdate>(updates.data() + half,
                                              updates.size() - half));
  server.Flush();
  stop.store(true);
  for (auto& th : askers) th.join();

  // The flushed server must agree with an independent per-engine replay.
  serve::SketchServer oracle(kN, params, kSeed);
  oracle.IngestIndependent(std::span<const StreamUpdate>(updates));
  ExpectServersAgree(&server, &oracle);
}

}  // namespace
}  // namespace gms
