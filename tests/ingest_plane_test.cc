// Tests for the shared ingestion plane (stream/ingest_plane.h): one
// encode/prepare/route pass fanning out to every registered sketch
// consumer must be BIT-IDENTICAL -- at serialized-frame strength -- to
// each consumer ingesting the stream independently, across the three
// churn families. Under the `tsan` preset (filter matches Plane*) the
// concurrency test doubles as the data-race check for serving queries
// that run while the plane ingests.
#include <gtest/gtest.h>

#include <algorithm>
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

// The consumer contract is the PlaneConsumer concept: every sketch the
// tree registers satisfies it, and a type missing a hook is rejected at
// compile time (IngestPlane::Add's requires-clause names the concept).
struct NoBatchApply {
  size_t n() const { return 4; }
  const EdgeCodec& codec() const;
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }
};
static_assert(PlaneConsumer<SpanningForestSketch>);
static_assert(PlaneConsumer<KSkeletonSketch>);
static_assert(PlaneConsumer<VcQuerySketch>);
static_assert(PlaneConsumer<SubsampledForestUnion>);
static_assert(!PlaneConsumer<NoBatchApply>);
static_assert(!PlaneConsumer<int>);

// ---------------------------------------------------------------------------
// Application call sites: each app is one KSkeletonSketch, so its Process
// (the shared plane at threads = 1, the skeleton's sharded layers at
// threads = 4) must land every layer on the frame of a separate
// SpanningForestSketch built from that layer's seed and fed by its own
// Process, byte for byte.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint8_t>> LayerFrames(const KSkeletonSketch& skel) {
  std::vector<std::vector<uint8_t>> frames;
  for (size_t i = 0; i < skel.k(); ++i) frames.push_back(Frame(skel.layer(i)));
  return frames;
}

// One separately ingested forest per layer of `skel`, with its seed.
std::vector<SpanningForestSketch> SeparateForests(
    const KSkeletonSketch& skel, std::span<const StreamUpdate> updates) {
  std::vector<SpanningForestSketch> forests;
  for (size_t i = 0; i < skel.k(); ++i) {
    forests.emplace_back(skel.n(), skel.max_rank(), skel.layer(i).seed(),
                         LightForest());
    forests.back().Process(updates);
  }
  return forests;
}

std::vector<std::vector<uint8_t>> SeparateForestFrames(
    const KSkeletonSketch& skel, std::span<const StreamUpdate> updates) {
  std::vector<std::vector<uint8_t>> frames;
  for (const SpanningForestSketch& f : SeparateForests(skel, updates)) {
    frames.push_back(Frame(f));
  }
  return frames;
}

ForestSketchParams ThreadedLightForest() {
  return ForestSketchParams::Builder(LightForest()).Threads(4).Build();
}

TEST(PlaneDeterminismTest, TwoEdgeConnectPlaneMatchesIndependent) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 307;
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, 2 * kN, kSeed + 1);
  const std::span<const StreamUpdate> updates(stream.updates());

  apps::TwoEdgeConnect planed(kN, 2, kSeed, LightForest());
  planed.Process(stream);
  const auto want = SeparateForestFrames(planed.skeleton(), updates);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(LayerFrames(planed.skeleton()), want);

  apps::TwoEdgeConnect threaded(kN, 2, kSeed, ThreadedLightForest());
  threaded.Process(stream);
  EXPECT_EQ(LayerFrames(threaded.skeleton()), want);
}

TEST(PlaneDeterminismTest, ApproxMinCutPlaneMatchesIndependent) {
  constexpr size_t kN = 48;
  constexpr uint64_t kSeed = 401;
  constexpr size_t kCap = 5;
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);
  const std::span<const StreamUpdate> updates(stream.updates());

  apps::ApproxMinCut planed(kN, 2, kCap, kSeed, LightForest());
  planed.Process(stream);
  const auto want = SeparateForestFrames(planed.skeleton(), updates);
  ASSERT_EQ(want.size(), kCap);
  EXPECT_EQ(LayerFrames(planed.skeleton()), want);

  apps::ApproxMinCut threaded(kN, 2, kCap, kSeed, ThreadedLightForest());
  threaded.Process(stream);
  EXPECT_EQ(LayerFrames(threaded.skeleton()), want);
}

// The apps' plane Process fed in chunks of `chunk` updates.
template <typename App>
void ProcessInChunks(App* app, std::span<const StreamUpdate> updates,
                     size_t chunk) {
  for (size_t done = 0; done < updates.size(); done += chunk) {
    app->Process(updates.subspan(done, std::min(chunk, updates.size() - done)));
  }
}

// Two stars whose hubs cross the sparse threshold T mid-batch, then the
// batch_dense stream shape (temporal churn, ~80 endpoint updates per
// vertex, so every churn column escalates). Hub A gets T + 4 updates and
// hub B T + 20, so a batch holding a whole star leaves a dense remainder
// of 4 (at most kPrefetchBatchMax: ApplyUpdateBatch prefetches it first)
// or 20 (above the cutoff) behind T absorbed entries.
struct EscalatingStream {
  std::vector<StreamUpdate> updates;
  size_t n = 0;
  std::vector<VertexId> hubs;
};

EscalatingStream MakeEscalatingStream() {
  constexpr VertexId kChurnN = 64;
  const VertexId threshold = SketchConfig::Light().sparse_threshold;
  EscalatingStream out;
  VertexId next = kChurnN;
  for (VertexId extra : {4u, 20u}) {
    const VertexId hub = next++;
    out.hubs.push_back(hub);
    for (VertexId i = 0; i < threshold + extra; ++i) {
      out.updates.emplace_back(Hyperedge{hub, next++}, +1);
    }
  }
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kTemporalChurn;
  spec.n = kChurnN;
  spec.m = 4 * kChurnN;
  spec.decoys = 18 * kChurnN;
  spec.gseed = 43;
  spec.sseed = 47;
  const DynamicStream churn = spec.Build().stream;
  out.updates.insert(out.updates.end(), churn.updates().begin(),
                     churn.updates().end());
  out.n = next;
  return out;
}

// Chunk-size sweep: the plane Process of both apps, fed 1, 7 or 2048
// updates per call or the whole stream at once, against separate forests
// ingesting the whole stream, frame byte for byte. Small chunks hand
// ApplyUpdateBatch one- and few-entry batches (the prefetch-first path);
// large ones hand it full 64-entry gutters and the stars' partially
// absorbed batches on both sides of the cutoff.
TEST(PlaneDeterminismTest, AppsChunkSweepMatchesIndependent) {
  constexpr uint64_t kSeed = 419;
  constexpr size_t kCap = 4;
  const EscalatingStream stream = MakeEscalatingStream();
  const std::span<const StreamUpdate> updates(stream.updates);
  const size_t n = stream.n;
  const size_t chunks[] = {1, 7, 2048, updates.size()};

  const apps::TwoEdgeConnect two_edge(n, 2, kSeed, LightForest());
  const std::vector<SpanningForestSketch> forests =
      SeparateForests(two_edge.skeleton(), updates);
  for (VertexId hub : stream.hubs) {
    ASSERT_TRUE(forests[0].VertexEscalated(hub)) << "hub " << hub;
  }
  std::vector<std::vector<uint8_t>> want;
  for (const SpanningForestSketch& f : forests) want.push_back(Frame(f));
  for (size_t chunk : chunks) {
    apps::TwoEdgeConnect planed(n, 2, kSeed, LightForest());
    ProcessInChunks(&planed, updates, chunk);
    EXPECT_EQ(LayerFrames(planed.skeleton()), want) << "chunk " << chunk;
  }

  const apps::ApproxMinCut min_cut(n, 2, kCap, kSeed, LightForest());
  const auto want_layers = SeparateForestFrames(min_cut.skeleton(), updates);
  for (size_t chunk : chunks) {
    apps::ApproxMinCut planed(n, 2, kCap, kSeed, LightForest());
    ProcessInChunks(&planed, updates, chunk);
    EXPECT_EQ(LayerFrames(planed.skeleton()), want_layers)
        << "chunk " << chunk;
  }
}

// ---------------------------------------------------------------------------
// SketchServer: the shared sealed-delta ingest (one plane pass feeding all
// three engines' open deltas) must publish the same epochs and the same
// payloads as the pre-plane per-engine ingest.
// ---------------------------------------------------------------------------

serve::SketchServerParams ServerParams(size_t epoch_updates) {
  return serve::SketchServerParams::Builder()
      .Forest(LightForest())
      .Vc(LightVc(10))
      .SkeletonK(2)
      .EpochUpdates(epoch_updates)
      .Build();
}

// What a flushed engine's epoch counter guarantees. Every seal carries at
// least one update and at most epoch_updates, and the count-triggered and
// Flush seals alone number ceil(prefix / epoch_updates). A wall-clock pacer
// (epoch_deadline_ms > 0) adds deadline seals on top, as many as the
// scheduler allows, so two paced servers need not agree on the epoch, only
// on the updates it covers; an unpaced engine's epoch is exact.
template <typename Engine>
void ExpectEpochAccountsForPrefix(Engine& engine) {
  const auto snap = engine.Current();
  const auto stats = engine.stats();
  const uint64_t per_epoch = engine.params().epoch_updates;
  const uint64_t min_epochs =
      (snap->prefix_updates + per_epoch - 1) / per_epoch;
  EXPECT_EQ(snap->epoch, stats.epochs_sealed);
  EXPECT_EQ(snap->epoch, stats.epochs_merged);
  EXPECT_GE(snap->epoch, min_epochs);
  EXPECT_LE(snap->epoch, min_epochs + stats.deadline_seals);
  if (engine.params().epoch_deadline_ms == 0) {
    EXPECT_EQ(stats.deadline_seals, 0u);
  }
}

// The pre-plane oracle: every enabled engine ingests the whole stream
// through its own Process, re-encoding every update itself.
void IngestPerEngine(serve::SketchServer* server,
                     std::span<const StreamUpdate> updates) {
  server->forest_engine().Process(updates);
  if (server->vc_enabled()) server->vc_engine().Process(updates);
  if (server->skeleton_enabled()) server->skeleton_engine().Process(updates);
}

// The shared-plane server against an independently ingested one: the same
// prefixes and payload bytes, deterministically, for every engine.
void ExpectServersAgree(serve::SketchServer* shared,
                        serve::SketchServer* independent) {
  shared->Flush();
  independent->Flush();
  auto fs = shared->forest_engine().Current();
  auto fi = independent->forest_engine().Current();
  ASSERT_TRUE(fs->status.ok());
  ASSERT_TRUE(fi->status.ok());
  EXPECT_EQ(fs->prefix_updates, fi->prefix_updates);
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
  for (serve::SketchServer* server : {shared, independent}) {
    ExpectEpochAccountsForPrefix(server->forest_engine());
    ExpectEpochAccountsForPrefix(server->vc_engine());
    ExpectEpochAccountsForPrefix(server->skeleton_engine());
  }
  // Unpaced servers seal on update counts alone, so their epochs agree.
  if (shared->forest_engine().params().epoch_deadline_ms == 0 &&
      independent->forest_engine().params().epoch_deadline_ms == 0) {
    EXPECT_EQ(fs->epoch, fi->epoch);
  }
}

TEST(PlaneDeterminismTest, ServerSharedIngestMatchesIndependent) {
  constexpr size_t kN = 56;
  constexpr uint64_t kSeed = 509;
  const Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);

  // Small epochs force several shared-delta chunks per Ingest call.
  serve::SketchServer shared(kN, ServerParams(/*epoch_updates=*/64), kSeed);
  serve::SketchServer independent(kN, ServerParams(64), kSeed);
  shared.Ingest(stream);
  IngestPerEngine(&independent,
                  std::span<const StreamUpdate>(stream.updates()));
  ExpectServersAgree(&shared, &independent);
}

// A VC engine with R = 64 subsamples cannot pack its route bits beside the
// forest's bit: it must fall back to its own Process on the same chunks
// while the forest and skeleton share the plane -- still byte-identical.
TEST(PlaneDeterminismTest, ServerVcFallbackOutsidePlaneStillAgrees) {
  constexpr size_t kN = 40;
  constexpr uint64_t kSeed = 601;
  constexpr size_t kWideR = 64;
  const Graph g = UnionOfHamiltonianCycles(kN, 2, kSeed);
  const DynamicStream stream = DynamicStream::WithChurn(g, kN, kSeed + 1);

  {
    // The premise: after the forest, the wide VC engine is refused and the
    // skeleton still joins.
    SpanningForestSketch forest(kN, 2, kSeed, LightForest());
    VcQuerySketch vc(kN, LightVc(kWideR), kSeed + 1);
    KSkeletonSketch skel(kN, 2, 2, kSeed + 2, LightForest());
    IngestPlane plane;
    ASSERT_TRUE(plane.Add(&forest));
    EXPECT_FALSE(plane.Add(&vc));
    EXPECT_TRUE(plane.Add(&skel));
  }
  const serve::SketchServerParams params =
      serve::SketchServerParams::Builder(ServerParams(/*epoch_updates=*/64))
          .Vc(LightVc(kWideR))
          .Build();
  serve::SketchServer shared(kN, params, kSeed);
  serve::SketchServer independent(kN, params, kSeed);
  shared.Ingest(stream);
  IngestPerEngine(&independent,
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
  IngestPerEngine(&oracle, std::span<const StreamUpdate>(updates));
  ExpectServersAgree(&server, &oracle);
}

}  // namespace
}  // namespace gms
