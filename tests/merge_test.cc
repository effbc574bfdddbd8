// Mergeability suite: the defining property of a linear sketch is that
// sketching disjoint stream slices into same-seed clones and adding them
// cell-wise equals sketching the whole stream serially -- BIT-identically,
// because cell updates are exact field arithmetic, not floats. This file
// checks that property for every sketch type under insert/delete churn,
// for interleaved splits and for 2-way and 3-way trees.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "sketch/l0_sampler.h"
#include "sparsify/sparsifier_sketch.h"
#include "stream/stream.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

DynamicStream GraphStream(size_t n, uint64_t seed) {
  Graph g = UnionOfHamiltonianCycles(n, 3, seed);
  return DynamicStream::WithChurn(g, /*decoys=*/2 * n, seed + 1);
}

DynamicStream HypergraphStream(size_t n, size_t r, uint64_t seed) {
  Hypergraph g = HyperCycle(n, r);
  return DynamicStream::WithChurn(g, /*decoys=*/n, r, seed + 1);
}

// Deterministically deal the stream's updates into `parts` disjoint
// subsequences. Each part preserves stream order, so a deletion still
// follows its insertion WITHIN the union -- which is all linearity needs;
// the parts themselves are wildly non-graphs (negative multiplicities,
// dangling deletes), exactly the regime MergeFrom must survive.
std::vector<std::vector<StreamUpdate>> Deal(const DynamicStream& stream,
                                            size_t parts, uint64_t seed) {
  std::vector<std::vector<StreamUpdate>> out(parts);
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (const StreamUpdate& u : stream.updates()) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    out[(x >> 33) % parts].push_back(u);
  }
  return out;
}

// Sketch each slice into a fresh clone of `empty` (same seed and shape),
// then fold the clones left-to-right into the first one.
template <typename Sketch>
Sketch SketchAndMerge(const Sketch& empty,
                      const std::vector<std::vector<StreamUpdate>>& slices) {
  std::vector<Sketch> clones;
  for (const auto& slice : slices) {
    Sketch c = empty;
    c.Process(std::span<const StreamUpdate>(slice));
    clones.push_back(std::move(c));
  }
  for (size_t i = 1; i < clones.size(); ++i) {
    Status s = clones[0].MergeFrom(clones[i]);
    EXPECT_TRUE(s.ok()) << s.message();
  }
  return clones[0];
}

// The property itself, shared by all five graph-sketch types: serial vs
// dealt-and-merged, for 2 and 3 parts and two deal seeds.
template <typename Sketch>
void CheckMergeEqualsSerial(const Sketch& empty, const DynamicStream& stream) {
  Sketch serial = empty;
  serial.Process(stream);
  for (size_t parts : {2u, 3u}) {
    for (uint64_t deal_seed : {1u, 2u}) {
      Sketch merged =
          SketchAndMerge(empty, Deal(stream, parts, deal_seed));
      EXPECT_TRUE(merged.StateEquals(serial))
          << "parts=" << parts << " deal_seed=" << deal_seed;
    }
  }
}

TEST(MergeTest, SpanningForestMergeEqualsSerial) {
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch empty(48, 2, /*seed=*/7, params);
  CheckMergeEqualsSerial(empty, GraphStream(48, 3));
}

TEST(MergeTest, SpanningForestHypergraphMergeEqualsSerial) {
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch empty(36, 3, /*seed=*/9, params);
  CheckMergeEqualsSerial(empty, HypergraphStream(36, 3, 5));
}

TEST(MergeTest, KSkeletonMergeEqualsSerial) {
  KSkeletonSketch::Params params;
  params.config = SketchConfig::Light();
  KSkeletonSketch empty(40, 3, /*k=*/2, /*seed=*/11, params);
  CheckMergeEqualsSerial(empty, HypergraphStream(40, 3, 13));
}

TEST(MergeTest, VcQueryMergeEqualsSerial) {
  VcQueryParams params;
  params.k = 2;
  params.explicit_r = 6;
  params.forest.config = SketchConfig::Light();
  VcQuerySketch empty(40, params, /*seed=*/17);
  CheckMergeEqualsSerial(empty, GraphStream(40, 19));
}

TEST(MergeTest, HyperVcQueryMergeEqualsSerial) {
  VcQueryParams params;
  params.k = 2;
  params.explicit_r = 4;
  params.forest.config = SketchConfig::Light();
  HyperVcQuerySketch empty(30, 3, params, /*seed=*/23);
  CheckMergeEqualsSerial(empty, HypergraphStream(30, 3, 29));
}

TEST(MergeTest, SparsifierMergeEqualsSerial) {
  SparsifierParams params;
  params.k = 2;
  params.levels = 6;
  params.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch empty(28, 3, params, /*seed=*/31);
  CheckMergeEqualsSerial(empty, HypergraphStream(28, 3, 37));
}

TEST(MergeTest, L0SamplerMergeEqualsSerial) {
  // The substrate type merges too; it takes L0Updates rather than stream
  // updates, so deal coordinates by hand (with deletions).
  const u128 domain = u128{1} << 30;
  std::vector<L0Update> all;
  for (uint64_t i = 0; i < 200; ++i) {
    all.push_back({(u128{i} * 48271) % domain, i % 4 == 0 ? -2 : +1});
  }
  L0Sampler serial(domain, SketchConfig::Light(), 41);
  serial.Process(all);

  L0Sampler a(domain, SketchConfig::Light(), 41);
  L0Sampler b(domain, SketchConfig::Light(), 41);
  L0Sampler c(domain, SketchConfig::Light(), 41);
  std::vector<L0Update> sa, sb, sc;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 3 == 0 ? sa : i % 3 == 1 ? sb : sc).push_back(all[i]);
  }
  a.Process(sa);
  b.Process(sb);
  c.Process(sc);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  ASSERT_TRUE(a.MergeFrom(c).ok());
  EXPECT_TRUE(a.StateEquals(serial));
  // Frame strength: the merged sampler serializes to the serial bytes.
  std::vector<uint8_t> merged, want;
  a.Serialize(&merged);
  serial.Serialize(&want);
  EXPECT_EQ(merged, want);
}

TEST(MergeTest, MergeIsOrderIndependent) {
  // Field addition is commutative and associative, so every merge tree
  // over the same slices lands on the same bits.
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch empty(32, 2, /*seed=*/43, params);
  auto slices = Deal(GraphStream(32, 47), 3, 5);

  std::vector<SpanningForestSketch> s(3, empty);
  for (int i = 0; i < 3; ++i) {
    s[i].Process(std::span<const StreamUpdate>(slices[i]));
  }
  SpanningForestSketch left = s[0];           // (0+1)+2
  ASSERT_TRUE(left.MergeFrom(s[1]).ok());
  ASSERT_TRUE(left.MergeFrom(s[2]).ok());
  SpanningForestSketch right = s[2];          // (2+1)+0
  ASSERT_TRUE(right.MergeFrom(s[1]).ok());
  ASSERT_TRUE(right.MergeFrom(s[0]).ok());
  EXPECT_TRUE(left.StateEquals(right));
}

TEST(MergeTest, MergeWithEmptyIsIdentity) {
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch sketch(32, 2, /*seed=*/53, params);
  sketch.Process(GraphStream(32, 59));
  SpanningForestSketch before = sketch;
  SpanningForestSketch empty(32, 2, /*seed=*/53, params);
  ASSERT_TRUE(sketch.MergeFrom(empty).ok());
  EXPECT_TRUE(sketch.StateEquals(before));
}

TEST(MergeTest, ClearedSketchReingestsIdentically) {
  // Clear() really is the empty-stream measurement: re-processing after
  // Clear() matches a fresh sketch bit-for-bit.
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  DynamicStream stream = GraphStream(32, 61);
  SpanningForestSketch fresh(32, 2, /*seed=*/67, params);
  fresh.Process(stream);
  SpanningForestSketch reused(32, 2, /*seed=*/67, params);
  reused.Process(GraphStream(32, 71));  // unrelated garbage first
  reused.Clear();
  reused.Process(stream);
  EXPECT_TRUE(reused.StateEquals(fresh));
}

}  // namespace
}  // namespace gms
