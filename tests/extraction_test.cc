// Extraction-engine differential suite (runs in the tsan preset: the
// incremental decoder's block maintenance and the sparse MergeFrom fan
// work across the pool).
//
// Three contracts, each asserted bit-exactly:
//   1. The incremental windowed-accumulator decoder produces the SAME
//      Hypergraph as the retained reference re-sum decoder, at every
//      thread count, over the whole DefaultSpecGrid().
//   2. Sparse (dirty-bitmap driven) MergeFrom equals the serial single
//      -sketch ingest on random shard splits of the stream -- including
//      against an all-dirty (deserialized, hence dense) clone.
//   3. The dirty bitmap is NOT part of the wire format: a frame written
//      by a freshly-processed sketch (partially dirty) and the frame
//      written by its deserialized twin (conservatively all-dirty) are
//      byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "stream/stream.h"
#include "testkit/stream_spec.h"
#include "util/random.h"

namespace gms {
namespace {

using testkit::BuiltStream;
using testkit::DefaultSpecGrid;
using testkit::StreamSpec;

ForestSketchParams LightParams() {
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  return params;
}

// ---------- incremental vs reference, across thread counts ----------

TEST(ExtractionTest, IncrementalMatchesReferenceAcrossGridAndThreads) {
  for (const StreamSpec& spec : DefaultSpecGrid()) {
    BuiltStream built = spec.Build();
    SpanningForestSketch sketch(spec.n, built.max_rank, /*seed=*/11,
                                LightParams());
    sketch.Process(built.stream);

    ExtractStats ref_stats;
    auto reference = sketch.ExtractSpanningGraphReference(1, &ref_stats);
    ASSERT_TRUE(reference.ok()) << spec.ToString();
    for (size_t threads : {1u, 2u, 8u}) {
      ExtractStats inc_stats;
      auto incremental = sketch.ExtractSpanningGraph(threads, &inc_stats);
      ASSERT_TRUE(incremental.ok()) << spec.ToString();
      EXPECT_TRUE(*incremental == *reference)
          << spec.ToString() << " threads=" << threads;
      // Every decision counter is a function of the state alone, shared
      // between the two paths; only summed_words (path work) may differ.
      EXPECT_EQ(inc_stats.rounds_run, ref_stats.rounds_run);
      EXPECT_EQ(inc_stats.early_exit, ref_stats.early_exit);
      EXPECT_EQ(inc_stats.sample_attempts, ref_stats.sample_attempts);
      EXPECT_EQ(inc_stats.decode_attempts, ref_stats.decode_attempts);
      EXPECT_EQ(inc_stats.edges_found, ref_stats.edges_found);
      EXPECT_EQ(inc_stats.groups_per_round, ref_stats.groups_per_round);
    }
  }
}

TEST(ExtractionTest, RepeatedExtractionIsIdempotent) {
  // Extraction is const: the window blocks live in scratch, never in the
  // sketch, so a second decode sees untouched state.
  StreamSpec spec;
  spec.family = testkit::Family::kExpander;
  spec.n = 96;
  spec.k = 3;
  spec.churn = testkit::Churn::kWithChurn;
  spec.decoys = 64;
  BuiltStream built = spec.Build();
  SpanningForestSketch sketch(spec.n, built.max_rank, /*seed=*/13,
                              LightParams());
  sketch.Process(built.stream);
  auto first = sketch.ExtractSpanningGraph(8);
  auto second = sketch.ExtractSpanningGraph(8);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*first == *second);
}

// ---------- sparse MergeFrom differential ----------

TEST(ExtractionMergeTest, SparseMergeEqualsSerialOnRandomShardSplits) {
  StreamSpec spec;
  spec.family = testkit::Family::kErdosRenyi;
  spec.n = 64;
  spec.p = 0.15;
  spec.churn = testkit::Churn::kWithChurn;
  spec.decoys = 96;
  Rng rng(101);
  for (uint64_t trial = 0; trial < 6; ++trial) {
    BuiltStream built = spec.WithTrial(trial).Build();
    const auto& updates = built.stream.updates();
    ASSERT_GE(updates.size(), 4u);

    SpanningForestSketch serial(spec.n, built.max_rank, /*seed=*/17,
                                LightParams());
    serial.Process(built.stream);

    // Random 2-4 way split; each part ingested by a private clone whose
    // dirty bitmap covers exactly its slice's columns, then sparse-merged.
    size_t parts = 2 + rng.Below(3);
    std::vector<size_t> cuts = {0, updates.size()};
    for (size_t c = 1; c < parts; ++c) cuts.push_back(rng.Below(updates.size()));
    std::sort(cuts.begin(), cuts.end());
    SpanningForestSketch merged = serial.CloneEmpty();
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      SpanningForestSketch clone = serial.CloneEmpty();
      clone.Process(std::span<const StreamUpdate>(updates).subspan(
          cuts[c], cuts[c + 1] - cuts[c]));
      ASSERT_TRUE(merged.MergeFrom(clone).ok());
    }
    EXPECT_TRUE(merged.StateEquals(serial)) << "trial " << trial;
    auto a = merged.ExtractSpanningGraph();
    auto b = serial.ExtractSpanningGraph();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(*a == *b) << "trial " << trial;
  }
}

TEST(ExtractionMergeTest, SparseMergeEqualsDenseAllDirtyMerge) {
  // A deserialized sketch carries no bitmap and is conservatively marked
  // all-dirty, so merging it exercises the dense walk; merging the
  // original clone exercises the sparse walk. Same measurement, so the
  // results must be bit-identical.
  StreamSpec spec;
  spec.family = testkit::Family::kHyperCycle;
  spec.n = 48;
  spec.rank = 3;
  BuiltStream built = spec.Build();
  const auto& updates = built.stream.updates();
  ASSERT_GE(updates.size(), 2u);
  const size_t half = updates.size() / 2;

  SpanningForestSketch base(spec.n, built.max_rank, /*seed=*/19,
                            LightParams());
  SpanningForestSketch tail = base.CloneEmpty();
  base.Process(std::span<const StreamUpdate>(updates).subspan(0, half));
  tail.Process(std::span<const StreamUpdate>(updates).subspan(half));

  std::vector<uint8_t> frame;
  tail.Serialize(&frame);
  auto tail_dense = SpanningForestSketch::Deserialize(frame);
  ASSERT_TRUE(tail_dense.ok());

  SpanningForestSketch via_sparse = base;  // copies state AND bitmap
  SpanningForestSketch via_dense = base;
  ASSERT_TRUE(via_sparse.MergeFrom(tail).ok());
  ASSERT_TRUE(via_dense.MergeFrom(*tail_dense).ok());
  EXPECT_TRUE(via_sparse.StateEquals(via_dense));

  SpanningForestSketch serial(spec.n, built.max_rank, /*seed=*/19,
                              LightParams());
  serial.Process(built.stream);
  EXPECT_TRUE(via_sparse.StateEquals(serial));
}

// ---------- the bitmap stays off the wire ----------

TEST(ExtractionSerdeTest, DirtyBitmapIsNotPartOfTheWireFrame) {
  StreamSpec spec;
  spec.family = testkit::Family::kGnm;
  spec.n = 40;
  spec.m = 30;  // touches a strict subset of columns: bitmap partly clean
  BuiltStream built = spec.Build();
  SpanningForestSketch sketch(spec.n, built.max_rank, /*seed=*/23,
                              LightParams());
  sketch.Process(built.stream);

  std::vector<uint8_t> direct;
  sketch.Serialize(&direct);
  auto roundtrip = SpanningForestSketch::Deserialize(direct);
  ASSERT_TRUE(roundtrip.ok());
  // The roundtripped sketch's bitmap is all-dirty, the original's is
  // partial; if the bitmap leaked into the frame these would differ.
  std::vector<uint8_t> reserialized;
  roundtrip->Serialize(&reserialized);
  EXPECT_EQ(direct, reserialized);
  EXPECT_TRUE(roundtrip->StateEquals(sketch));
}

}  // namespace
}  // namespace gms
