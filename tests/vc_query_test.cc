// Tests for the Theorem 4 vertex-connectivity query sketch.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exact/vertex_connectivity.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/random.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"
#include "wire/wire.h"

namespace gms {
namespace {

VcQueryParams TestParams(size_t k) {
  // The paper's R = 16 k^2 ln n is overkill at test scales; half suffices
  // empirically and keeps the suite fast (the bench sweeps this knob).
  return VcQueryParams::Builder()
      .K(k)
      .RMultiplier(0.5)
      .Forest(
          ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
      .Build();
}

VcUnionSnapshot Snapshot(const VcQuerySketch& sketch) {
  auto snap = sketch.Query();
  EXPECT_TRUE(snap.ok());
  return std::move(snap).value();
}

TEST(VcQueryParamsTest, ResolveRFollowsPaperFormula) {
  VcQueryParams p = VcQueryParams::Builder().K(3).RMultiplier(1.0).Build();
  size_t r = p.ResolveR(100);
  // 16 * 9 * ln(100) ~ 663.
  EXPECT_NEAR(static_cast<double>(r), 663.0, 2.0);
  p.explicit_r = 10;
  EXPECT_EQ(p.ResolveR(100), 10u);
}

TEST(VcQueryTest, FindsPlantedSeparator) {
  auto planted = PlantedSeparator(40, 2, 1);
  VcQuerySketch sketch(40, TestParams(2), 2);
  sketch.Process(DynamicStream::InsertOnly(planted.graph, 3));
  auto disconnects = Snapshot(sketch).Disconnects(planted.separator);
  ASSERT_TRUE(disconnects.ok());
  EXPECT_TRUE(*disconnects);
}

TEST(VcQueryTest, NonSeparatorsPass) {
  auto planted = PlantedSeparator(40, 2, 4);
  VcQuerySketch sketch(40, TestParams(2), 5);
  sketch.Process(DynamicStream::InsertOnly(planted.graph, 6));
  VcUnionSnapshot snap = Snapshot(sketch);
  // Random non-separator pairs must not disconnect.
  Rng rng(7);
  for (int t = 0; t < 10; ++t) {
    VertexId a = planted.side_a[rng.Below(planted.side_a.size())];
    VertexId b = planted.side_b[rng.Below(planted.side_b.size())];
    auto disconnects = snap.Disconnects({a, b});
    ASSERT_TRUE(disconnects.ok());
    bool truth = !IsConnectedExcluding(planted.graph, {a, b});
    EXPECT_EQ(*disconnects, truth);
  }
}

TEST(VcQueryTest, AgreesWithGroundTruthOnRandomQueries) {
  Graph g = UnionOfHamiltonianCycles(36, 2, 8);
  VcQuerySketch sketch(36, TestParams(3), 9);
  sketch.Process(DynamicStream::InsertOnly(g, 10));
  VcUnionSnapshot snap = Snapshot(sketch);
  Rng rng(11);
  size_t agreements = 0, total = 0;
  for (int t = 0; t < 20; ++t) {
    std::vector<VertexId> s;
    while (s.size() < 3) {
      VertexId v = static_cast<VertexId>(rng.Below(36));
      bool dup = false;
      for (VertexId w : s) dup |= w == v;
      if (!dup) s.push_back(v);
    }
    auto got = snap.Disconnects(s);
    ASSERT_TRUE(got.ok());
    bool truth = !IsConnectedExcluding(g, s);
    agreements += (*got == truth) ? 1 : 0;
    ++total;
  }
  // Lemma 3 holds per-query whp; demand perfection at this scale.
  EXPECT_EQ(agreements, total);
}

TEST(VcQueryTest, WorksUnderChurn) {
  auto planted = PlantedSeparator(32, 2, 12);
  DynamicStream stream = DynamicStream::WithChurn(planted.graph, 200, 13);
  VcQuerySketch sketch(32, TestParams(2), 14);
  sketch.Process(stream);
  auto disconnects = Snapshot(sketch).Disconnects(planted.separator);
  ASSERT_TRUE(disconnects.ok());
  EXPECT_TRUE(*disconnects);
}

TEST(VcQueryTest, QueryIsNonDestructive) {
  // The whole point of the Query() surface: the sketch can keep ingesting
  // after a snapshot is taken, and a snapshot outlives any later mutation.
  Graph g = UnionOfHamiltonianCycles(28, 3, 60);
  VcQuerySketch sketch(28, TestParams(2), 61);
  DynamicStream stream = DynamicStream::InsertOnly(g, 62);
  const auto& updates = stream.updates();
  const size_t half = updates.size() / 2;
  sketch.Process(std::span<const StreamUpdate>(updates.data(), half));
  VcUnionSnapshot early = Snapshot(sketch);

  // Keep ingesting; the early snapshot must be unaffected.
  sketch.Process(
      std::span<const StreamUpdate>(updates.data() + half,
                                    updates.size() - half));
  VcUnionSnapshot late = Snapshot(sketch);
  EXPECT_LE(early.union_graph().NumEdges(), late.union_graph().NumEdges());

  // A prefix-only sketch must agree with the early snapshot bit-for-bit
  // (linearity + determinism).
  VcQuerySketch prefix(28, TestParams(2), 61);
  prefix.Process(std::span<const StreamUpdate>(updates.data(), half));
  EXPECT_TRUE(Snapshot(prefix).union_graph() == early.union_graph());

  // And the sketch state itself was never mutated by querying.
  VcQuerySketch replay(28, TestParams(2), 61);
  replay.Process(stream);
  EXPECT_TRUE(replay.StateEquals(sketch));
}

TEST(VcQueryTest, VertexConnectivityAtLeastBounds) {
  // A 3-connected graph (union of 3 Hamiltonian cycles is whp 3-connected
  // at this scale, and certainly 2-connected).
  Graph g = UnionOfHamiltonianCycles(24, 3, 63);
  VcQuerySketch sketch(24, TestParams(2), 64);
  sketch.Process(DynamicStream::InsertOnly(g, 65));
  VcUnionSnapshot snap = Snapshot(sketch);
  auto at_least_0 = snap.VertexConnectivityAtLeast(0);
  ASSERT_TRUE(at_least_0.ok());
  EXPECT_TRUE(*at_least_0);
  auto at_least_2 = snap.VertexConnectivityAtLeast(2);
  ASSERT_TRUE(at_least_2.ok());
  EXPECT_EQ(*at_least_2, IsKVertexConnected(g, 2));
  // k = 2 certifies up to t = k + 1 = 3; t = 4 exceeds the build.
  auto too_far = snap.VertexConnectivityAtLeast(4);
  EXPECT_FALSE(too_far.ok());
  EXPECT_EQ(too_far.status().code(), StatusCode::kInvalidArgument);
}

TEST(VcQueryTest, OversizedQueryRejected) {
  VcQuerySketch sketch(16, TestParams(2), 16);
  auto r = Snapshot(sketch).Disconnects({0, 1, 2});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(VcQueryTest, DuplicateQueryVerticesCountOnce) {
  // Regression: {0, 0, 1} names two distinct vertices, so it must be a
  // legal k=2 query and must answer exactly as {0, 1} does.
  Graph g = UnionOfHamiltonianCycles(24, 3, 40);
  VcQuerySketch sketch(24, TestParams(2), 41);
  sketch.Process(DynamicStream::InsertOnly(g, 42));
  VcUnionSnapshot snap = Snapshot(sketch);
  auto dup = snap.Disconnects({0, 0, 1});
  auto distinct = snap.Disconnects({0, 1});
  ASSERT_TRUE(dup.ok());
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(dup.value(), distinct.value());
}

TEST(VcQueryTest, OutOfRangeQueryVertexRejected) {
  VcQuerySketch sketch(16, TestParams(2), 43);
  auto r = Snapshot(sketch).Disconnects({16});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(VcQueryTest, NormalizeQuerySetContract) {
  // Dedup keeps first occurrences; range check runs before the size check
  // so a bogus id is always InvalidArgument.
  auto ok = NormalizeQuerySet({3, 1, 3, 1}, /*n=*/8, /*k=*/2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), (std::vector<VertexId>{3, 1}));
  EXPECT_FALSE(NormalizeQuerySet({0, 8}, 8, 4).ok());
  EXPECT_FALSE(NormalizeQuerySet({0, 1, 2}, 8, 2).ok());
  EXPECT_TRUE(NormalizeQuerySet({0, 1, 0, 1}, 8, 2).ok());
}

TEST(VcQueryTest, UnionGraphIsSubgraph) {
  Graph g = UnionOfHamiltonianCycles(30, 3, 17);
  VcQuerySketch sketch(30, TestParams(2), 18);
  sketch.Process(DynamicStream::InsertOnly(g, 19));
  VcUnionSnapshot snap = Snapshot(sketch);
  for (const Edge& e : snap.union_graph().Edges()) {
    EXPECT_TRUE(g.HasEdge(e));
  }
}

TEST(VcQueryTest, ClearReleasesCachedUnionGraph) {
  // A cleared sketch is the empty-stream measurement: no union graph
  // survives Clear, and Query still works.
  Graph g = UnionOfHamiltonianCycles(30, 3, 50);
  VcQuerySketch sketch(30, TestParams(2), 51);
  sketch.Process(DynamicStream::InsertOnly(g, 52));
  ASSERT_GT(Snapshot(sketch).union_graph().NumEdges(), 0u);
  sketch.Clear();
  EXPECT_EQ(Snapshot(sketch).union_graph().NumEdges(), 0u);
}

TEST(VcQueryTest, AllSparseForestsSkipExtractionAndStillAnswer) {
  // A degree-2 cycle keeps every subsample forest deep inside the sparse
  // phase (SketchConfig::Light threshold), so the union decode should take
  // the sparse-exact fast path for ALL R forests -- counted in the stats
  // -- while answering exactly like always.
  const size_t n = 40;
  Graph g = UnionOfHamiltonianCycles(n, 1, 80);
  const VcQueryParams params = VcQueryParams::Builder()
                                   .K(2)
                                   .ExplicitR(12)
                                   .Forest(ForestSketchParams::Builder()
                                               .Config(SketchConfig::Light())
                                               .Build())
                                   .Build();
  VcQuerySketch sketch(n, params, 81);
  sketch.Process(DynamicStream::InsertOnly(g, 82));

  auto snap = sketch.Query();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.stats().sparse_exact_forests, 12u);
  EXPECT_EQ(snap.stats().sample_attempts, 0u);
  // Degree-2 vertices cannot be escalated, and the union graph is a
  // subgraph of the (sparse-buffered) cycle.
  EXPECT_LE(snap.value().union_graph().NumEdges(), g.NumEdges());
  EXPECT_GT(snap.value().union_graph().NumEdges(), 0u);
}

TEST(NormalizeQuerySetTest, RangeErrorCitesCallerVisiblePosition) {
  // Regression: the range check used to report the index into the
  // DEDUPLICATED vector, so with duplicates ahead of the bad id the cited
  // position pointed at the wrong element of the caller's vector. The
  // message must cite position 2 -- where {0, 0, 99} holds the 99 -- not
  // position 1, where dedup would have landed it.
  auto r = NormalizeQuerySet({0, 0, 99}, /*n=*/16, /*k=*/4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("position 2"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("99"), std::string::npos)
      << r.status().message();
}

// The graph sketch and the rank-2 hypergraph sketch are one construction
// (a rank-2 SubsampledForestUnion) under two frame headers: fed the same
// graph churn stream, their cell payloads and union edge sets coincide at
// every thread count.
TEST(SubsampledForestUnionTest, GraphAndRankTwoHypergraphSketchesAgree) {
  constexpr size_t kN = 48;
  constexpr uint64_t kSeed = 29;
  Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN, kSeed + 1);
  for (size_t threads : {1, 4}) {
    const VcQueryParams params =
        VcQueryParams::Builder(TestParams(2)).ExplicitR(10).Threads(threads)
            .Build();
    VcQuerySketch graph(kN, params, kSeed);
    HyperVcQuerySketch hyper(kN, /*max_rank=*/2, params, kSeed);
    graph.Process(stream);
    hyper.Process(stream);

    std::vector<uint8_t> graph_bytes, hyper_bytes;
    graph.Serialize(&graph_bytes);
    hyper.Serialize(&hyper_bytes);
    auto graph_frame = wire::ParseFrame(graph_bytes, wire::FrameType::kVcQuery);
    auto hyper_frame =
        wire::ParseFrame(hyper_bytes, wire::FrameType::kHyperVcQuery);
    ASSERT_TRUE(graph_frame.ok());
    ASSERT_TRUE(hyper_frame.ok());
    EXPECT_TRUE(std::ranges::equal(graph_frame->payload, hyper_frame->payload))
        << "threads=" << threads;

    auto graph_snap = graph.Query();
    auto hyper_snap = hyper.Query();
    ASSERT_TRUE(graph_snap.ok());
    ASSERT_TRUE(hyper_snap.ok());
    EXPECT_EQ(graph_snap.stats().edges_found, hyper_snap.stats().edges_found);
    std::vector<Edge> graph_edges = graph_snap.value().union_graph().Edges();
    std::vector<Edge> hyper_edges;
    for (const Hyperedge& e : hyper_snap.value().union_graph().Edges()) {
      hyper_edges.push_back(e.AsEdge());
    }
    std::sort(graph_edges.begin(), graph_edges.end());
    std::sort(hyper_edges.begin(), hyper_edges.end());
    EXPECT_FALSE(graph_edges.empty());
    EXPECT_EQ(graph_edges, hyper_edges) << "threads=" << threads;
  }
}

TEST(SubsampledForestUnionTest, CoverageGrowsWithR) {
  const ForestSketchParams fp =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SubsampledForestUnion few(60, /*max_rank=*/2, 4, 2, 20, fp);
  SubsampledForestUnion many(60, 2, 4, 60, 21, fp);
  EXPECT_GE(few.NumUncovered(), many.NumUncovered());
  EXPECT_EQ(many.NumUncovered(), 0u);  // 60 samples at rate 1/4: whp all
}

TEST(SubsampledForestUnionTest, MemoryScalesWithR) {
  const ForestSketchParams fp =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  SubsampledForestUnion a(40, /*max_rank=*/2, 2, 5, 22, fp);
  SubsampledForestUnion b(40, 2, 2, 20, 22, fp);
  EXPECT_LT(a.MemoryBytes(), b.MemoryBytes());
}

}  // namespace
}  // namespace gms
