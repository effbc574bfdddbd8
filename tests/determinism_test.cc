// Determinism suite for the parallel ingestion / extraction engine: for
// every sketch container that shards work across threads, the state after
// batched parallel Process and the decoded output must be BIT-IDENTICAL to
// the serial per-update path, for threads in {1, 2, 8}. This is the
// enforceable contract of util/parallel.h (sharded ownership + linearity),
// and under the `tsan` preset it doubles as the engine's data-race test.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "sparsify/sparsifier_sketch.h"
#include "stream/ingest_plane.h"
#include "stream/stream.h"
#include "testkit/stream_spec.h"
#include "util/parallel.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

constexpr size_t kThreadSweep[] = {1, 2, 8};

// A churn graph stream (inserts + decoy insert/delete pairs) over a
// moderately dense graph: deletions exercise the linear cancellation path.
DynamicStream GraphStream(size_t n, uint64_t seed) {
  Graph g = UnionOfHamiltonianCycles(n, 3, seed);
  return DynamicStream::WithChurn(g, /*decoys=*/2 * n, seed + 1);
}

DynamicStream HypergraphStream(size_t n, size_t r, uint64_t seed) {
  Hypergraph g = HyperCycle(n, r);
  return DynamicStream::WithChurn(g, /*decoys=*/n, r, seed + 1);
}

TEST(DeterminismTest, SpanningForestProcessMatchesSerialUpdates) {
  constexpr size_t kN = 96;
  constexpr uint64_t kSeed = 77;
  DynamicStream stream = GraphStream(kN, kSeed);

  const ForestSketchParams serial_params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SpanningForestSketch serial(kN, /*max_rank=*/2, kSeed, serial_params);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_span = serial.Query();
  ASSERT_TRUE(serial_span.ok());

  for (size_t threads : kThreadSweep) {
    const ForestSketchParams params =
        ForestSketchParams::Builder(serial_params).Threads(threads).Build();
    SpanningForestSketch parallel(kN, 2, kSeed, params);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;

    auto span = parallel.Query();
    ASSERT_TRUE(span.ok()) << "threads=" << threads;
    EXPECT_TRUE(span.value() == serial_span.value()) << "threads=" << threads;
    // Decoding the SERIAL sketch with a parallel worker sweep must also be
    // byte-for-byte the same hypergraph (extraction-side determinism).
    auto reread = serial.Query(threads);
    ASSERT_TRUE(reread.ok());
    EXPECT_TRUE(reread.value() == serial_span.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SpanningForestHypergraphStreams) {
  constexpr size_t kN = 48;
  constexpr uint64_t kSeed = 31;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const ForestSketchParams serial_params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SpanningForestSketch serial(kN, /*max_rank=*/3, kSeed, serial_params);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_span = serial.Query();
  ASSERT_TRUE(serial_span.ok());

  for (size_t threads : kThreadSweep) {
    const ForestSketchParams params =
        ForestSketchParams::Builder(serial_params).Threads(threads).Build();
    SpanningForestSketch parallel(kN, 3, kSeed, params);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto span = parallel.Query();
    ASSERT_TRUE(span.ok());
    EXPECT_TRUE(span.value() == serial_span.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SubsampledForestUnionBitIdentical) {
  constexpr size_t kN = 80;
  constexpr uint64_t kSeed = 5;
  DynamicStream stream = GraphStream(kN, kSeed);

  const ForestSketchParams forest =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SubsampledForestUnion serial(kN, /*max_rank=*/2, /*k=*/2,
                               /*r_subgraphs=*/12, kSeed, forest);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_h = serial.BuildUnionGraph();
  ASSERT_TRUE(serial_h.ok());

  for (size_t threads : kThreadSweep) {
    SubsampledForestUnion parallel(kN, 2, 2, 12, kSeed, forest, threads);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto h = parallel.BuildUnionGraph();
    ASSERT_TRUE(h.ok()) << "threads=" << threads;
    EXPECT_TRUE(h.value() == serial_h.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, KSkeletonHypergraphBitIdentical) {
  constexpr size_t kN = 40;
  constexpr uint64_t kSeed = 13;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const SpanningForestSketch::Params serial_params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  KSkeletonSketch serial(kN, /*max_rank=*/3, /*k=*/3, kSeed, serial_params);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_skel = serial.Query();
  ASSERT_TRUE(serial_skel.ok());

  for (size_t threads : kThreadSweep) {
    const SpanningForestSketch::Params params =
        ForestSketchParams::Builder(serial_params).Threads(threads).Build();
    KSkeletonSketch parallel(kN, 3, 3, kSeed, params);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto skel = parallel.Query();
    ASSERT_TRUE(skel.ok()) << "threads=" << threads;
    EXPECT_TRUE(skel.value() == serial_skel.value()) << "threads=" << threads;
  }
}

TEST(DeterminismTest, SparsifierBitIdentical) {
  constexpr size_t kN = 32;
  constexpr uint64_t kSeed = 21;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const SparsifierParams serial_params =
      SparsifierParams::Builder()
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Levels(6)
          .K(4)
          .Build();
  HypergraphSparsifierSketch serial(kN, /*max_rank=*/3, serial_params, kSeed);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_out = serial.Query();
  ASSERT_TRUE(serial_out.ok());

  for (size_t threads : kThreadSweep) {
    const SparsifierParams params =
        SparsifierParams::Builder(serial_params).Threads(threads).Build();
    HypergraphSparsifierSketch parallel(kN, 3, params, kSeed);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto out = parallel.Query();
    ASSERT_TRUE(out.ok()) << "threads=" << threads;
    EXPECT_EQ(out.value().level_sizes, serial_out.value().level_sizes);
    EXPECT_EQ(out.value().sparsifier.edges, serial_out.value().sparsifier.edges);
    EXPECT_EQ(out.value().sparsifier.weights,
              serial_out.value().sparsifier.weights);
  }
}

TEST(DeterminismTest, HyperVcQueryBitIdentical) {
  constexpr size_t kN = 36;
  constexpr uint64_t kSeed = 9;
  DynamicStream stream = HypergraphStream(kN, /*r=*/3, kSeed);

  const VcQueryParams serial_params =
      VcQueryParams::Builder()
          .K(2)
          .ExplicitR(10)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  HyperVcQuerySketch serial(kN, /*max_rank=*/3, serial_params, kSeed);
  for (const auto& u : stream.updates()) serial.Update(u.edge, u.delta);
  auto serial_snap = serial.Query();
  ASSERT_TRUE(serial_snap.ok());

  for (size_t threads : kThreadSweep) {
    const VcQueryParams params =
        VcQueryParams::Builder(serial_params).Threads(threads).Build();
    HyperVcQuerySketch parallel(kN, 3, params, kSeed);
    parallel.Process(stream);
    EXPECT_TRUE(parallel.StateEquals(serial)) << "threads=" << threads;
    auto snap = parallel.Query();
    ASSERT_TRUE(snap.ok()) << "threads=" << threads;
    EXPECT_TRUE(snap.value().union_graph() == serial_snap.value().union_graph())
        << "threads=" << threads;
    for (VertexId v = 0; v < 6; ++v) {
      auto a = serial_snap.value().Disconnects({v});
      auto b = snap.value().Disconnects({v});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << "threads=" << threads << " v=" << v;
    }
  }
}

TEST(DeterminismTest, VcQuerySketchEndToEnd) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 3;
  Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN, kSeed + 1);

  const VcQueryParams serial_params =
      VcQueryParams::Builder()
          .K(2)
          .ExplicitR(12)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  VcQuerySketch serial(kN, serial_params, kSeed);
  for (const auto& u : stream.updates()) {
    serial.Update(Edge(u.edge[0], u.edge[1]), u.delta);
  }
  auto serial_snap = serial.Query();
  ASSERT_TRUE(serial_snap.ok());

  for (size_t threads : kThreadSweep) {
    const VcQueryParams params =
        VcQueryParams::Builder(serial_params).Threads(threads).Build();
    VcQuerySketch parallel(kN, params, kSeed);
    parallel.Process(stream);
    auto snap = parallel.Query();
    ASSERT_TRUE(snap.ok()) << "threads=" << threads;
    EXPECT_TRUE(snap.value().union_graph() == serial_snap.value().union_graph())
        << "threads=" << threads;
    for (VertexId v = 0; v < 8; ++v) {
      auto a = serial_snap.value().Disconnects({v});
      auto b = snap.value().Disconnects({v});
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value()) << "threads=" << threads << " v=" << v;
    }
  }
}

std::vector<uint8_t> Frame(const SpanningForestSketch& s) {
  std::vector<uint8_t> out;
  s.Serialize(&out);
  return out;
}

// Ingest `stream` into *sketch through an inline IngestPlane with the
// sketch as its only consumer.
template <typename Sketch>
void PlaneIngest(Sketch* sketch, const DynamicStream& stream) {
  IngestPlane plane;
  ASSERT_TRUE(plane.Add(sketch));
  plane.Process(stream);
}

// Every container's batch-apply routing (ApplyUpdateBatch behind an
// IngestPlane) against its serial per-update state, at serialized-frame
// strength. The hypergraph stream exercises rank-3 incidence coefficients
// (head coefficient |e|-1 = 2, tails -1).
TEST(DeterminismTest, PlaneRoutedContainersBitIdentical) {
  constexpr size_t kN = 40;
  constexpr uint64_t kSeed = 57;
  DynamicStream graph_stream = GraphStream(kN, kSeed);
  DynamicStream hyper_stream = HypergraphStream(kN, /*r=*/3, kSeed);

  {  // K-skeleton (hypergraph).
    const SpanningForestSketch::Params params =
        ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
    KSkeletonSketch serial(kN, /*max_rank=*/3, /*k=*/3, kSeed, params);
    for (const auto& u : hyper_stream.updates()) serial.Update(u.edge, u.delta);
    KSkeletonSketch planed(kN, 3, 3, kSeed, params);
    PlaneIngest(&planed, hyper_stream);
    EXPECT_TRUE(planed.StateEquals(serial));
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    planed.Serialize(&b);
    EXPECT_EQ(a, b) << "k-skeleton plane frame diverges";
  }
  {  // Vertex-connectivity query union (graph, subsample routing bits).
    const VcQueryParams params =
        VcQueryParams::Builder()
            .K(2)
            .ExplicitR(12)
            .Forest(ForestSketchParams::Builder()
                        .Config(SketchConfig::Light())
                        .Build())
            .Build();
    VcQuerySketch serial(kN, params, kSeed);
    for (const auto& u : graph_stream.updates()) {
      serial.Update(Edge(u.edge[0], u.edge[1]), u.delta);
    }
    VcQuerySketch planed(kN, params, kSeed);
    PlaneIngest(&planed, graph_stream);
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    planed.Serialize(&b);
    EXPECT_EQ(a, b) << "vc-query plane frame diverges";
  }
}

// Workload-corpus families through every ingest path: one power-law
// (kRmat, with churn) and one temporal-churn instance (the family that
// owns its own sliding-delete schedule), serial vs column@4 vs the inline
// ingest plane vs CloneEmpty + MergeFrom over 2 and 4 contiguous slices,
// compared at serialized-frame strength. These families stress skew the
// expander specs do not: rmat hubs concentrate updates on few gutters,
// and temporal churn interleaves every insert with a delete of the edge
// that expired (so a slice holds deletes of edges another slice inserted).
TEST(DeterminismTest, WorkloadFamiliesAcrossIngestModesBitIdentical) {
  constexpr uint64_t kSeed = 67;
  std::vector<testkit::StreamSpec> specs(2);
  specs[0].family = testkit::Family::kRmat;
  specs[0].n = 64;
  specs[0].m = 160;
  specs[0].gseed = 23;
  specs[0].churn = testkit::Churn::kWithChurn;
  specs[0].decoys = 64;
  specs[0].sseed = 29;
  specs[1].family = testkit::Family::kTemporalChurn;
  specs[1].n = 48;
  specs[1].m = 96;
  specs[1].gseed = 31;
  specs[1].decoys = 64;
  specs[1].sseed = 37;

  for (const testkit::StreamSpec& spec : specs) {
    SCOPED_TRACE(spec.ToString());
    testkit::BuiltStream built = spec.Build();
    ASSERT_TRUE(built.stream.Validate());

    const ForestSketchParams serial_params =
        ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
    SpanningForestSketch serial(spec.n, /*max_rank=*/2, kSeed, serial_params);
    for (const auto& u : built.stream.updates()) serial.Update(u.edge, u.delta);
    const std::vector<uint8_t> serial_frame = Frame(serial);

    SpanningForestSketch column(
        spec.n, 2, kSeed,
        ForestSketchParams::Builder(serial_params).Threads(4).Build());
    column.Process(built.stream);
    EXPECT_TRUE(column.StateEquals(serial));
    EXPECT_EQ(Frame(column), serial_frame) << "column@4 frame diverges";

    SpanningForestSketch planed(spec.n, 2, kSeed, serial_params);
    PlaneIngest(&planed, built.stream);
    EXPECT_TRUE(planed.StateEquals(serial));
    EXPECT_EQ(Frame(planed), serial_frame) << "plane frame diverges";

    const std::span<const StreamUpdate> updates(built.stream.updates());
    for (size_t slices : {2u, 4u}) {
      SpanningForestSketch merged(spec.n, 2, kSeed, serial_params);
      for (size_t s = 0; s < slices; ++s) {
        const ShardRange r = ShardOf(updates.size(), s, slices);
        SpanningForestSketch slice = merged.CloneEmpty();
        slice.Process(updates.subspan(r.begin, r.end - r.begin));
        ASSERT_TRUE(merged.MergeFrom(slice).ok()) << "slices=" << slices;
      }
      EXPECT_TRUE(merged.StateEquals(serial)) << "slices=" << slices;
      EXPECT_EQ(Frame(merged), serial_frame)
          << slices << "-slice merge frame diverges";
    }
  }
}

}  // namespace
}  // namespace gms
