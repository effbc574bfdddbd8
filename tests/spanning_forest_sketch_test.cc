// Tests for the AGM spanning-forest/graph sketch (Theorems 2 and 13):
// decoded subgraphs must reproduce the component structure of the streamed
// (hyper)graph, under insert-only and churn streams, for graphs and
// hypergraphs, with active-vertex masks, and via per-player local updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"

namespace gms {
namespace {

// Component partitions agree (up to relabeling) on the active vertices.
bool SameComponents(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<uint32_t, uint32_t> fwd, bwd;
  for (size_t i = 0; i < a.size(); ++i) {
    auto [itf, newf] = fwd.emplace(a[i], b[i]);
    if (!newf && itf->second != b[i]) return false;
    auto [itb, newb] = bwd.emplace(b[i], a[i]);
    if (!newb && itb->second != a[i]) return false;
  }
  return true;
}

TEST(SpanningForestSketchTest, ConnectedGraphDecodesConnected) {
  Graph g = UnionOfHamiltonianCycles(50, 2, 1);
  SpanningForestSketch sketch(50, 2, 11);
  sketch.Process(DynamicStream::InsertOnly(g, 2));
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(IsConnected(span.value()));
  // Spanning graph is a subgraph of g.
  for (const auto& e : span.value().Edges()) {
    EXPECT_TRUE(g.HasEdge(e.AsEdge()));
  }
}

TEST(SpanningForestSketchTest, ComponentStructurePreserved) {
  // Three components of different shapes.
  Graph g(30);
  for (VertexId i = 0; i + 1 < 10; ++i) g.AddEdge(i, i + 1);
  for (VertexId i = 10; i + 1 < 20; ++i) g.AddEdge(i, i + 1);
  g.AddEdge(19, 10);
  for (VertexId i = 20; i < 29; ++i) g.AddEdge(20, i + 1);
  SpanningForestSketch sketch(30, 2, 5);
  sketch.Process(DynamicStream::InsertOnly(g, 6));
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(SameComponents(ConnectedComponents(span.value().ToGraph()),
                             ConnectedComponents(g)));
}

TEST(SpanningForestSketchTest, ChurnStreamsDecodeTheFinalGraph) {
  Graph g = CycleGraph(40);
  DynamicStream stream = DynamicStream::WithChurn(g, 300, 7);
  SpanningForestSketch sketch(40, 2, 13);
  sketch.Process(stream);
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(IsConnected(span.value()));
  for (const auto& e : span.value().Edges()) {
    EXPECT_TRUE(g.HasEdge(e.AsEdge())) << "ghost edge " << e.ToString();
  }
}

TEST(SpanningForestSketchTest, FullDeletionLeavesEmptySketch) {
  Graph g = CompleteGraph(12);
  SpanningForestSketch sketch(12, 2, 17);
  for (const Edge& e : g.Edges()) sketch.Update(Hyperedge(e), +1);
  for (const Edge& e : g.Edges()) sketch.Update(Hyperedge(e), -1);
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value().NumEdges(), 0u);
}

TEST(SpanningForestSketchTest, HypergraphSpanningGraph) {
  Hypergraph h = HyperCycle(24, 4);
  SpanningForestSketch sketch(24, 4, 19);
  sketch.Process(DynamicStream::InsertOnly(h, 3));
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(IsConnected(span.value()));
  for (const auto& e : span.value().Edges()) EXPECT_TRUE(h.HasEdge(e));
}

TEST(SpanningForestSketchTest, HypergraphComponentsWithMixedRanks) {
  Hypergraph h(20);
  h.AddEdge(Hyperedge{0, 1, 2, 3});
  h.AddEdge(Hyperedge{3, 4});
  h.AddEdge(Hyperedge{5, 6, 7});
  h.AddEdge(Hyperedge{7, 8, 9});
  // vertices 10..19 isolated
  SpanningForestSketch sketch(20, 4, 23);
  sketch.Process(DynamicStream::InsertOnly(h, 9));
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(SameComponents(ConnectedComponents(span.value()),
                             ConnectedComponents(h)));
}

TEST(SpanningForestSketchTest, ActiveMaskRestrictsDecoding) {
  // Only even vertices active; edges among them form a path.
  size_t n = 16;
  std::vector<bool> active(n, false);
  for (VertexId v = 0; v < n; v += 2) active[v] = true;
  SpanningForestSketch sketch(n, 2, 29, ForestSketchParams(), &active);
  for (VertexId v = 0; v + 2 < n; v += 2) {
    sketch.Update(Hyperedge{v, static_cast<VertexId>(v + 2)}, +1);
  }
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value().NumEdges(), n / 2 - 1);
  for (const auto& e : span.value().Edges()) {
    for (VertexId v : e) EXPECT_EQ(v % 2, 0u);
  }
}

TEST(SpanningForestSketchTest, RemoveHyperedgesIsLinearSubtraction) {
  Graph g = CycleGraph(20);
  SpanningForestSketch sketch(20, 2, 31);
  sketch.Process(DynamicStream::InsertOnly(g, 4));
  // Remove a chord-free arc of the cycle: the rest decodes as a path.
  std::vector<Hyperedge> removed = {Hyperedge{0, 1}, Hyperedge{10, 11}};
  sketch.RemoveHyperedges(removed);
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(NumComponents(span.value()), 2u);
}

TEST(SpanningForestSketchTest, LocalUpdatesEqualGlobalUpdate) {
  Hypergraph h = RandomUniformHypergraph(18, 25, 3, 41);
  SpanningForestSketch global(18, 3, 4242);
  SpanningForestSketch local(18, 3, 4242);  // same seed: same measurement
  for (const auto& e : h.Edges()) global.Update(e, +1);
  for (VertexId v = 0; v < 18; ++v) {
    for (uint32_t idx : h.IncidentIndices(v)) {
      local.UpdateLocal(v, h.Edges()[idx], +1);
    }
  }
  auto a = global.Query();
  auto b = local.Query();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical randomness -> identical decode.
  EXPECT_TRUE(a.value() == b.value());
}

TEST(SpanningForestSketchTest, MemoryScalesWithRoundsAndVertices) {
  ForestSketchParams p;
  p.rounds = 4;
  SpanningForestSketch small(16, 2, 1, p);
  p.rounds = 8;
  SpanningForestSketch large(16, 2, 1, p);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  EXPECT_EQ(large.rounds(), 8);
}

// Sweep: per-(n, family) success of connectivity decoding.
struct ForestCase {
  size_t n;
  int family;  // 0 path, 1 cycle, 2 star, 3 random connected
  uint64_t seed;
};

// gtest (and ctest's discovered names) print each instance's parameter;
// without this it dumps the struct's raw bytes, padding included, which
// differ from build to build.
void PrintTo(const ForestCase& tc, std::ostream* os) {
  static const char* const kFamilies[] = {"path", "cycle", "star", "random"};
  *os << kFamilies[tc.family] << "_n" << tc.n << "_seed" << tc.seed;
}

class ForestSweep : public ::testing::TestWithParam<ForestCase> {};

TEST_P(ForestSweep, DecodesConnectivity) {
  const auto& tc = GetParam();
  Graph g;
  switch (tc.family) {
    case 0: g = PathGraph(tc.n); break;
    case 1: g = CycleGraph(tc.n); break;
    case 2: g = StarGraph(tc.n); break;
    default: g = UnionOfHamiltonianCycles(tc.n, 2, tc.seed); break;
  }
  SpanningForestSketch sketch(tc.n, 2, tc.seed * 1000 + 17);
  sketch.Process(DynamicStream::InsertOnly(g, tc.seed));
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_TRUE(IsConnected(span.value()))
      << "family=" << tc.family << " n=" << tc.n;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSizes, ForestSweep,
    ::testing::Values(ForestCase{16, 0, 1}, ForestCase{16, 1, 2},
                      ForestCase{16, 2, 3}, ForestCase{16, 3, 4},
                      ForestCase{64, 0, 5}, ForestCase{64, 1, 6},
                      ForestCase{64, 2, 7}, ForestCase{64, 3, 8},
                      ForestCase{128, 3, 9}, ForestCase{128, 1, 10}));

}  // namespace
}  // namespace gms
