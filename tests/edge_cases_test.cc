// Edge-case contracts for all six sketch types: empty streams, empty
// Process spans, deletion-heavy prefixes that leave the state at net zero,
// the minimal n = 2 domain, and the documented n >= 2 constructor
// precondition (n = 1 has no edge domain: a hyperedge needs two distinct
// endpoints, so EdgeCodec CHECK-fails rather than inventing an empty
// coordinate space that the wire format would then have to carry).
//
// "Delete before insert" and "duplicate delete" streams violate the
// DynamicStream {0,1}-multiplicity invariant on purpose: a LINEAR sketch
// never sees multiplicities, only coordinate deltas, so transiently
// negative prefixes must be processed without complaint and cancel to
// exactly the empty-stream state.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/traversal.h"
#include "serve/sketch_server.h"
#include "sketch/l0_sampler.h"
#include "sparsify/sparsifier_sketch.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

constexpr uint64_t kSeed = 7;

VcQueryParams SmallVcParams() {
  VcQueryParams p;
  p.k = 1;
  p.explicit_r = 2;
  p.forest.config = SketchConfig::Light();
  return p;
}

SparsifierParams SmallSparsifierParams() {
  SparsifierParams p;
  p.levels = 2;
  p.k = 2;
  p.forest.config = SketchConfig::Light();
  return p;
}

SpanningForestSketch MakeForest(size_t n = 4) {
  return SpanningForestSketch(n, 2, kSeed);
}
KSkeletonSketch MakeSkeleton(size_t n = 4) {
  return KSkeletonSketch(n, 2, 2, kSeed);
}
VcQuerySketch MakeVc(size_t n = 4) {
  return VcQuerySketch(n, SmallVcParams(), kSeed);
}
HyperVcQuerySketch MakeHyperVc(size_t n = 4) {
  return HyperVcQuerySketch(n, 3, SmallVcParams(), kSeed);
}
HypergraphSparsifierSketch MakeSparsifier(size_t n = 4) {
  return HypergraphSparsifierSketch(n, 2, SmallSparsifierParams(), kSeed);
}
L0Sampler MakeL0() { return L0Sampler(8, SketchConfig::Light(), kSeed); }

// The deletion-heavy prefixes every hyperedge sketch must cancel on.
std::vector<StreamUpdate> DeleteBeforeInsert() {
  return {{Hyperedge({0, 1}), -1}, {Hyperedge({0, 1}), +1}};
}
std::vector<StreamUpdate> DuplicateDelete() {
  return {{Hyperedge({0, 1}), +1},
          {Hyperedge({0, 1}), -1},
          {Hyperedge({0, 1}), -1},
          {Hyperedge({0, 1}), +1}};
}

template <typename SketchT, typename MakeFn>
void ExpectNetZeroStreamsCancel(MakeFn make) {
  const SketchT fresh = make();
  {
    SketchT s = make();
    s.Process(std::span<const StreamUpdate>());  // empty span: no-op
    EXPECT_TRUE(s.StateEquals(fresh));
  }
  {
    SketchT s = make();
    const auto seq = DeleteBeforeInsert();
    s.Process(std::span<const StreamUpdate>(seq));
    EXPECT_TRUE(s.StateEquals(fresh))
        << "delete-before-insert did not cancel";
  }
  {
    SketchT s = make();
    const auto seq = DuplicateDelete();
    s.Process(std::span<const StreamUpdate>(seq));
    EXPECT_TRUE(s.StateEquals(fresh)) << "duplicate delete did not cancel";
  }
}

TEST(EdgeCases, NetZeroStreamsCancelForEverySketchType) {
  ExpectNetZeroStreamsCancel<SpanningForestSketch>([] { return MakeForest(); });
  ExpectNetZeroStreamsCancel<KSkeletonSketch>([] { return MakeSkeleton(); });
  ExpectNetZeroStreamsCancel<VcQuerySketch>([] { return MakeVc(); });
  ExpectNetZeroStreamsCancel<HyperVcQuerySketch>([] { return MakeHyperVc(); });
  ExpectNetZeroStreamsCancel<HypergraphSparsifierSketch>(
      [] { return MakeSparsifier(); });
  // L0Sampler speaks raw coordinates, not hyperedges.
  const L0Sampler fresh = MakeL0();
  {
    L0Sampler s = MakeL0();
    s.Process(std::span<const L0Update>());
    EXPECT_TRUE(s.StateEquals(fresh));
  }
  {
    L0Sampler s = MakeL0();
    const std::vector<L0Update> seq = {{3, -1}, {3, +1}};
    s.Process(std::span<const L0Update>(seq));
    EXPECT_TRUE(s.StateEquals(fresh));
  }
  {
    L0Sampler s = MakeL0();
    const std::vector<L0Update> seq = {{3, +1}, {3, -1}, {3, -1}, {3, +1}};
    s.Process(std::span<const L0Update>(seq));
    EXPECT_TRUE(s.StateEquals(fresh));
  }
}

TEST(EdgeCases, EmptyStreamQueriesAreHonest) {
  // Spanning forest of nothing: no edges, every vertex its own component.
  auto forest = MakeForest();
  auto g = forest.Query();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumEdges(), 0u);

  SpanningForestSketch q(4, 2, kSeed);
  auto comps = q.Query();
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(NumComponents(comps.value()), 4u);

  auto skeleton = MakeSkeleton();
  auto sk = skeleton.Query();
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  EXPECT_EQ(sk.value().NumEdges(), 0u);

  auto sparsifier = MakeSparsifier();
  auto sp = sparsifier.Query();
  ASSERT_TRUE(sp.ok()) << sp.status().ToString();
  EXPECT_EQ(sp.value().sparsifier.size(), 0u);

  // An empty support has nothing to sample; an honest sampler refuses.
  auto l0 = MakeL0();
  EXPECT_FALSE(l0.Sample().ok());

  // VC queries on the empty graph: removing any vertex leaves isolated
  // vertices, which is "disconnected" under the same semantics the exact
  // oracle uses.
  auto vc = MakeVc();
  auto vc_snap = vc.Query();
  ASSERT_TRUE(vc_snap.ok());
  Result<bool> disc = vc_snap.value().Disconnects({0});
  ASSERT_TRUE(disc.ok()) << disc.status().ToString();
  EXPECT_EQ(*disc, !IsConnectedExcluding(Graph(4), {0}));

  auto hvc = MakeHyperVc();
  auto hvc_snap = hvc.Query();
  ASSERT_TRUE(hvc_snap.ok());
  Result<bool> hdisc = hvc_snap.value().Disconnects({0});
  ASSERT_TRUE(hdisc.ok()) << hdisc.status().ToString();
  EXPECT_EQ(*hdisc, !IsConnectedExcluding(Hypergraph(4), {0}));
}

TEST(EdgeCases, MinimalDomainNTwo) {
  // n = 2 is the smallest legal domain: exactly one possible edge.
  SpanningForestSketch forest = MakeForest(2);
  const std::vector<StreamUpdate> seq = {{Hyperedge({0, 1}), +1}};
  forest.Process(std::span<const StreamUpdate>(seq));
  auto g = forest.Query();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().NumEdges(), 1u);
  EXPECT_TRUE(g.value().HasEdge(Hyperedge({0, 1})));

  SpanningForestSketch q(2, 2, kSeed);
  q.Update(Hyperedge({0, 1}), +1);
  auto comps = q.Query();
  ASSERT_TRUE(comps.ok());
  EXPECT_EQ(NumComponents(comps.value()), 1u);

  // Serialization works at the minimal shape for every sketch type.
  auto check_roundtrip = [](const auto& sketch) {
    using SketchT = std::decay_t<decltype(sketch)>;
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    Result<SketchT> redo = SketchT::Deserialize(bytes);
    ASSERT_TRUE(redo.ok()) << redo.status().ToString();
    EXPECT_TRUE(sketch.StateEquals(*redo));
  };
  check_roundtrip(forest);
  check_roundtrip(MakeSkeleton(2));
  check_roundtrip(MakeVc(2));
  check_roundtrip(MakeHyperVc(2));
  check_roundtrip(MakeSparsifier(2));
  check_roundtrip(MakeL0());
}

using EdgeCasesDeathTest = ::testing::Test;

TEST(EdgeCasesDeathTest, NOneHasNoEdgeDomain) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // n = 1 cannot host any hyperedge (two distinct endpoints are required),
  // so the constructors CHECK-fail loudly instead of building a sketch
  // whose every query would be vacuous. These death tests pin that
  // contract: if the CHECK is ever removed, the n >= 2 precondition must
  // be re-documented and the wire-format validation revisited.
  EXPECT_DEATH(SpanningForestSketch(1, 2, kSeed), "at least 2 vertices");
  EXPECT_DEATH(KSkeletonSketch(1, 2, 2, kSeed), "at least 2 vertices");
  EXPECT_DEATH(VcQuerySketch(1, SmallVcParams(), kSeed), "at least 2");
  EXPECT_DEATH(HyperVcQuerySketch(1, 2, SmallVcParams(), kSeed),
               "at least 2");
  EXPECT_DEATH(HypergraphSparsifierSketch(1, 2, SmallSparsifierParams(),
                                          kSeed),
               "at least 2");
  // The L0 analogue: a sampler over an empty coordinate domain.
  EXPECT_DEATH(L0Sampler(0, SketchConfig::Light(), kSeed), "empty domain");
}

TEST(EdgeCasesDeathTest, BuildersRejectZeroThreads) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Every params builder checks its worker count, the embedded forest's
  // included.
  EXPECT_DEATH(ForestSketchParams::Builder().Threads(0).Build(),
               "threads must be >= 1");
  EXPECT_DEATH(VcQueryParams::Builder().Threads(0).Build(),
               "threads must be >= 1");
  EXPECT_DEATH(SparsifierParams::Builder().Threads(0).Build(),
               "threads must be >= 1");
  ForestSketchParams zero;
  zero.threads = 0;
  EXPECT_DEATH(VcQueryParams::Builder().Forest(zero).Build(),
               "threads must be >= 1");
  // The Theorem 4 union shards its R sketches by its own threads; a worker
  // count inside the per-subsample forest params would be ignored.
  VcQueryParams vc;
  vc.forest.threads = 2;
  EXPECT_DEATH(VcQuerySketch(8, vc, kSeed), "forest.threads must be 1");
}

TEST(EdgeCasesDeathTest, VcServingRefusesHyperedgeRank) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The VC engine takes graph streams only, so a server that would accept
  // rank-3 hyperedges beside it is refused when its params are built, not
  // on the first rank-3 update.
  EXPECT_DEATH(
      serve::SketchServerParams::Builder().MaxRank(3).ServeVc(true).Build(),
      "serve_vc.*max_rank");
  EXPECT_DEATH(serve::SketchServerParams::Builder()
                   .MaxRank(3)
                   .Vc(SmallVcParams())
                   .Build(),
               "serve_vc.*max_rank");
  // Either setting alone is fine.
  EXPECT_EQ(serve::SketchServerParams::Builder().MaxRank(3).Build().max_rank,
            3u);
  EXPECT_TRUE(serve::SketchServerParams::Builder().ServeVc(true).Build()
                  .serve_vc);
}

}  // namespace
}  // namespace gms
