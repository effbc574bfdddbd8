// Hybrid sparse/dense representation contracts (DESIGN.md §12): a vertex
// column buffers its first sparse_threshold updates exactly and escalates
// into the dense L0 arena by replaying the buffer. The testable promises:
//
//  - Escalation is invisible in the measurement: around the threshold
//    (T-1, T, T+1 updates) every ingest engine -- serial, column-sharded,
//    sharded-merge, the inline ingest plane (whose batch apply absorbs and
//    then escalates mid-batch), and explicit clone+MergeFrom shard splits
//    -- serializes to byte-identical frames.
//  - An escalated column's raw words are bit-identical to a
//    dense-from-the-start (threshold 0) sketch of the same stream.
//  - MergeFrom is exact across every phase pairing (sparse x sparse,
//    sparse x dense, dense x sparse) for any shard split and merge order.
//  - A net-zero stream returns a sparse sketch to the empty measurement.
//  - While sparse, extraction is EXACT: the buffered edges feed Borůvka
//    directly, so a low-degree graph decodes with no sampling failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/union_find.h"
#include "sketch/l0_sampler.h"
#include "stream/ingest_plane.h"
#include "stream/stream.h"
#include "wire/wire.h"

namespace gms {
namespace {

std::vector<uint8_t> FrameOf(const SpanningForestSketch& sketch) {
  std::vector<uint8_t> bytes;
  sketch.Serialize(&bytes);
  return bytes;
}

// A star stream: `count` edges incident on hub 0 (so the hub's column
// absorbs exactly `count` updates; every leaf absorbs one).
std::vector<StreamUpdate> StarStream(uint32_t count) {
  std::vector<StreamUpdate> updates;
  for (uint32_t i = 1; i <= count; ++i) {
    updates.emplace_back(Hyperedge{0, static_cast<VertexId>(i)}, +1);
  }
  return updates;
}

TEST(HybridTest, EscalationBoundaryBitIdentityAcrossEngines) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 99;
  constexpr uint32_t kT = 8;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = kT;

  for (uint32_t count : {kT - 1, kT, kT + 1}) {
    const std::vector<StreamUpdate> updates = StarStream(count);
    SpanningForestSketch serial(kN, /*max_rank=*/2, kSeed, params);
    for (const auto& u : updates) serial.Update(u.edge, u.delta);
    EXPECT_EQ(serial.VertexEscalated(0), count > kT) << "count=" << count;
    const std::vector<uint8_t> want = FrameOf(serial);

    // Both parallel ingest modes must land on the same frame bytes
    // (counters included -- the phase is part of the round-trip).
    const IngestMode modes[] = {IngestMode::kColumnSharded,
                                IngestMode::kShardedMerge};
    for (IngestMode mode : modes) {
      const ForestSketchParams engine_params =
          ForestSketchParams::Builder(params).Threads(4).Mode(mode).Build();
      SpanningForestSketch parallel(kN, 2, kSeed, engine_params);
      parallel.Process(std::span<const StreamUpdate>(updates));
      EXPECT_TRUE(parallel.StateEquals(serial))
          << "count=" << count << " mode=" << static_cast<int>(mode);
      EXPECT_EQ(FrameOf(parallel), want)
          << "count=" << count << " mode=" << static_cast<int>(mode);
    }

    // Inline plane: the hub's updates arrive as one gutter batch, so
    // ApplyUpdateBatch absorbs up to T entries and escalates on the next.
    {
      SpanningForestSketch planed(kN, 2, kSeed, params);
      IngestPlane plane;
      ASSERT_TRUE(plane.Add(&planed));
      plane.Process(std::span<const StreamUpdate>(updates));
      EXPECT_TRUE(planed.StateEquals(serial)) << "count=" << count;
      EXPECT_EQ(FrameOf(planed), want) << "count=" << count << " plane";
    }

    // Explicit shard split: the hub's updates straddle the split, so the
    // merge exercises the buffer-union (and, at count > T, escalation at
    // merge time rather than ingest time).
    for (size_t split = 0; split <= updates.size(); ++split) {
      SpanningForestSketch a(kN, 2, kSeed, params);
      SpanningForestSketch b = a.CloneEmpty();
      for (size_t i = 0; i < split; ++i) {
        a.Update(updates[i].edge, updates[i].delta);
      }
      for (size_t i = split; i < updates.size(); ++i) {
        b.Update(updates[i].edge, updates[i].delta);
      }
      ASSERT_TRUE(a.MergeFrom(b).ok());
      EXPECT_TRUE(a.StateEquals(serial))
          << "count=" << count << " split=" << split;
      EXPECT_EQ(FrameOf(a), want) << "count=" << count << " split=" << split;
    }

    // Round trip: the phase must survive the wire.
    auto reread = SpanningForestSketch::Deserialize(want);
    ASSERT_TRUE(reread.ok()) << "count=" << count;
    EXPECT_TRUE(reread->StateEquals(serial)) << "count=" << count;
    EXPECT_EQ(reread->VertexEscalated(0), count > kT) << "count=" << count;
    EXPECT_EQ(FrameOf(*reread), want) << "count=" << count;
  }
}

TEST(HybridTest, EscalatedColumnsMatchDenseFromTheStart) {
  constexpr size_t kN = 32;
  constexpr uint64_t kSeed = 7;
  ForestSketchParams hybrid_params;
  hybrid_params.config = SketchConfig::Light();
  hybrid_params.config.sparse_threshold = 1;
  ForestSketchParams dense_params = hybrid_params;
  dense_params.config.sparse_threshold = 0;

  // Cycle-union degrees are >= 2 everywhere (shared edges dedup, but each
  // cycle alone contributes 2): every column crosses threshold 1.
  Graph g = UnionOfHamiltonianCycles(kN, 3, kSeed);
  DynamicStream stream = DynamicStream::InsertOnly(g, kSeed + 1);

  SpanningForestSketch hybrid(kN, 2, kSeed, hybrid_params);
  SpanningForestSketch dense(kN, 2, kSeed, dense_params);
  for (const auto& u : stream.updates()) {
    hybrid.Update(u.edge, u.delta);
    dense.Update(u.edge, u.delta);
  }
  for (VertexId v = 0; v < kN; ++v) {
    ASSERT_TRUE(hybrid.VertexEscalated(v)) << "v=" << v;
  }

  // The configs differ on the wire (threshold field, cell repr), but the
  // raw arena words must be bit-identical: both frames end in the same
  // num_active * rounds * state-words dump, in ordinal order.
  std::vector<uint8_t> hybrid_bytes = FrameOf(hybrid);
  std::vector<uint8_t> dense_bytes = FrameOf(dense);
  auto hybrid_frame =
      wire::ParseFrame(hybrid_bytes, wire::FrameType::kSpanningForest);
  auto dense_frame =
      wire::ParseFrame(dense_bytes, wire::FrameType::kSpanningForest);
  ASSERT_TRUE(hybrid_frame.ok());
  ASSERT_TRUE(dense_frame.ok());
  const size_t arena_bytes = dense_frame->payload.size() - 1;  // repr byte
  ASSERT_GE(hybrid_frame->payload.size(), arena_bytes);
  EXPECT_TRUE(std::equal(
      dense_frame->payload.end() - arena_bytes, dense_frame->payload.end(),
      hybrid_frame->payload.end() - arena_bytes));

  auto hybrid_span = hybrid.ExtractSpanningGraph();
  auto dense_span = dense.ExtractSpanningGraph();
  ASSERT_TRUE(hybrid_span.ok());
  ASSERT_TRUE(dense_span.ok());
  EXPECT_TRUE(hybrid_span.value() == dense_span.value());
}

TEST(HybridTest, MergeIsExactAcrossPhasePairings) {
  constexpr size_t kN = 96;
  constexpr uint64_t kSeed = 41;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = 8;

  // Hamiltonian-cycle union + churn: degrees scatter around the threshold,
  // so any split leaves some vertices sparse in both shards, some dense in
  // both, and some mixed -- all four lattice cases in one stream.
  Graph g = UnionOfHamiltonianCycles(kN, 4, kSeed);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN, kSeed + 1);
  const auto& updates = stream.updates();

  SpanningForestSketch serial(kN, 2, kSeed, params);
  for (const auto& u : updates) serial.Update(u.edge, u.delta);
  const std::vector<uint8_t> want = FrameOf(serial);

  const size_t splits[] = {1, updates.size() / 3, updates.size() / 2,
                           2 * updates.size() / 3, updates.size() - 1};
  for (size_t split : splits) {
    SpanningForestSketch a(kN, 2, kSeed, params);
    SpanningForestSketch b = a.CloneEmpty();
    for (size_t i = 0; i < split; ++i) a.Update(updates[i].edge,
                                                updates[i].delta);
    for (size_t i = split; i < updates.size(); ++i) {
      b.Update(updates[i].edge, updates[i].delta);
    }
    ASSERT_TRUE(a.MergeFrom(b).ok()) << "split=" << split;
    EXPECT_EQ(FrameOf(a), want) << "split=" << split;

    // The mirror-image merge must land on the same bytes (the lattice is
    // commutative even though escalation happens on different sides).
    SpanningForestSketch c(kN, 2, kSeed, params);
    SpanningForestSketch d = c.CloneEmpty();
    for (size_t i = 0; i < split; ++i) d.Update(updates[i].edge,
                                                updates[i].delta);
    for (size_t i = split; i < updates.size(); ++i) {
      c.Update(updates[i].edge, updates[i].delta);
    }
    ASSERT_TRUE(c.MergeFrom(d).ok()) << "split=" << split;
    EXPECT_EQ(FrameOf(c), want) << "split=" << split;
  }

  // Three shards merged in both association orders.
  const size_t third = updates.size() / 3;
  for (bool reverse : {false, true}) {
    SpanningForestSketch a(kN, 2, kSeed, params);
    SpanningForestSketch b = a.CloneEmpty();
    SpanningForestSketch c = a.CloneEmpty();
    for (size_t i = 0; i < third; ++i) a.Update(updates[i].edge,
                                                updates[i].delta);
    for (size_t i = third; i < 2 * third; ++i) {
      b.Update(updates[i].edge, updates[i].delta);
    }
    for (size_t i = 2 * third; i < updates.size(); ++i) {
      c.Update(updates[i].edge, updates[i].delta);
    }
    if (reverse) {
      ASSERT_TRUE(a.MergeFrom(c).ok());
      ASSERT_TRUE(a.MergeFrom(b).ok());
    } else {
      ASSERT_TRUE(a.MergeFrom(b).ok());
      ASSERT_TRUE(a.MergeFrom(c).ok());
    }
    EXPECT_EQ(FrameOf(a), want) << "reverse=" << reverse;
  }
}

TEST(HybridTest, NetZeroStreamReturnsToEmptyWhileSparse) {
  constexpr size_t kN = 32;
  constexpr uint64_t kSeed = 3;
  ForestSketchParams params;
  params.config = SketchConfig::Light();  // threshold 32 > path degree 2

  SpanningForestSketch sketch(kN, 2, kSeed, params);
  Graph path = PathGraph(kN);
  DynamicStream stream = DynamicStream::InsertOnly(path, kSeed + 1);
  for (const auto& u : stream.updates()) sketch.Update(u.edge, u.delta);
  for (const auto& u : stream.updates()) sketch.Update(u.edge, -u.delta);

  // Every column stayed sparse (2 inserts + 2 deletes <= 32) and every
  // buffer cancelled to empty: the measurement is the empty stream's.
  SpanningForestSketch fresh(kN, 2, kSeed, params);
  EXPECT_TRUE(sketch.StateEquals(fresh));
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_FALSE(sketch.VertexEscalated(v)) << "v=" << v;
  }
  auto span = sketch.ExtractSpanningGraph();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->Edges().size(), 0u);

  // The counters still remember the traffic, and they round-trip.
  std::vector<uint8_t> bytes = FrameOf(sketch);
  auto reread = SpanningForestSketch::Deserialize(bytes);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread->StateEquals(sketch));
  EXPECT_EQ(FrameOf(*reread), bytes);
}

TEST(HybridTest, SparsePhaseExtractionIsExact) {
  constexpr size_t kN = 128;
  constexpr uint64_t kSeed = 17;
  ForestSketchParams params;
  params.config = SketchConfig::Light();

  SpanningForestSketch sketch(kN, 2, kSeed, params);
  Graph path = PathGraph(kN);
  DynamicStream stream = DynamicStream::InsertOnly(path, kSeed + 1);
  for (const auto& u : stream.updates()) sketch.Update(u.edge, u.delta);

  // Degree <= 2 < 32: every column is sparse, so the buffered edges ARE
  // the graph and the pre-round connects it without touching a sampler.
  ExtractStats stats;
  auto span = sketch.ExtractSpanningGraph(/*threads=*/1, &stats);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->Edges().size(), kN - 1);
  EXPECT_EQ(stats.sample_attempts, 0u);
  UnionFind uf(kN);
  for (const auto& e : span->Edges()) {
    for (size_t i = 1; i < e.size(); ++i) uf.Union(e[0], e[i]);
  }
  for (VertexId v = 1; v < kN; ++v) {
    EXPECT_EQ(uf.Find(v), uf.Find(0)) << "v=" << v;
  }
}

TEST(HybridTest, AllSparseExtractSparseExactMatchesFullExtraction) {
  constexpr size_t kN = 96;
  constexpr uint64_t kSeed = 131;
  ForestSketchParams params;
  params.config = SketchConfig::Light();

  // Two disjoint paths plus churn decoys: more than one true component,
  // deletions exercise buffer cancellation, and every degree stays far
  // below the sparse threshold -- the container fast-path case.
  Graph g(kN);
  for (VertexId v = 1; v < kN / 2; ++v) g.AddEdge(v - 1, v);
  for (VertexId v = kN / 2 + 1; v < kN; ++v) g.AddEdge(v - 1, v);
  const DynamicStream stream = DynamicStream::WithChurn(g, 64, kSeed + 1);

  SpanningForestSketch sketch(kN, /*max_rank=*/2, kSeed, params);
  sketch.Process(stream);
  ASSERT_TRUE(sketch.AllSparse());

  ExtractStats full_stats;
  auto full = sketch.ExtractSpanningGraph(/*threads=*/1, &full_stats);
  ASSERT_TRUE(full.ok());
  ExtractStats fast_stats;
  auto fast = sketch.ExtractSparseExact(&fast_stats);
  ASSERT_TRUE(fast.ok());
  // The skipped Borůvka rounds could not have added anything: identical
  // graphs (same edges, same order), identical edge counts.
  EXPECT_TRUE(fast.value() == full.value());
  EXPECT_EQ(fast_stats.edges_found, full_stats.edges_found);
  EXPECT_EQ(fast_stats.sparse_exact_forests, 1u);
  EXPECT_EQ(fast_stats.rounds_run, 0);
  EXPECT_EQ(fast_stats.sample_attempts, 0u);
  EXPECT_EQ(fast_stats.summed_words, 0u);
  EXPECT_EQ(full_stats.sparse_exact_forests, 0u);
}

TEST(HybridTest, AllSparseFlipsOffAtFirstEscalation) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 137;
  constexpr uint32_t kT = 8;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = kT;

  SpanningForestSketch sketch(kN, 2, kSeed, params);
  EXPECT_TRUE(sketch.AllSparse());
  const std::vector<StreamUpdate> updates = StarStream(kT + 1);
  for (const auto& u : updates) sketch.Update(u.edge, u.delta);
  // The hub crossed the threshold: one escalated column disqualifies the
  // sparse-exact path for the whole sketch.
  EXPECT_TRUE(sketch.VertexEscalated(0));
  EXPECT_FALSE(sketch.AllSparse());

  // Threshold 0 (pure dense) is never "all sparse".
  ForestSketchParams dense = params;
  dense.config.sparse_threshold = 0;
  SpanningForestSketch dense_sketch(kN, 2, kSeed, dense);
  EXPECT_FALSE(dense_sketch.AllSparse());
}

TEST(HybridTest, SparseFrameRejectsEveryByteFlipAndTruncation) {
  constexpr size_t kN = 16;
  constexpr uint64_t kSeed = 23;
  ForestSketchParams params;
  params.config = SketchConfig::Light();

  SpanningForestSketch sketch(kN, 2, kSeed, params);
  const std::vector<StreamUpdate> updates = StarStream(5);
  for (const auto& u : updates) sketch.Update(u.edge, u.delta);
  std::vector<uint8_t> bytes = FrameOf(sketch);

  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x5A;
    EXPECT_FALSE(SpanningForestSketch::Deserialize(corrupt).ok())
        << "flipped byte " << i;
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        SpanningForestSketch::Deserialize(
            std::span<const uint8_t>(bytes.data(), len))
            .ok())
        << "truncated to " << len;
  }
}

TEST(HybridTest, L0SamplerPhasesMatchForestSemantics) {
  const u128 kDomain = u128{1} << 20;
  constexpr uint64_t kSeed = 11;
  SketchConfig hybrid_config = SketchConfig::Light();
  hybrid_config.sparse_threshold = 6;
  SketchConfig dense_config = hybrid_config;
  dense_config.sparse_threshold = 0;

  std::vector<L0Update> updates;
  for (uint64_t i = 0; i < 12; ++i) {
    updates.push_back(L0Update{u128{i * 977 + 5}, +1});
  }

  // Sparse phase: exact support, exact sample, tiny frame.
  L0Sampler sparse(kDomain, hybrid_config, kSeed);
  sparse.Process(std::span<const L0Update>(updates.data(), 4));
  EXPECT_FALSE(sparse.Escalated());
  auto sample = sparse.Sample();
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->value, 1);
  {
    L0Sampler dense(kDomain, dense_config, kSeed);
    dense.Process(std::span<const L0Update>(updates.data(), 4));
    EXPECT_LT(sparse.SpaceBytes(), dense.SpaceBytes() / 4);
  }
  std::vector<uint8_t> bytes;
  sparse.Serialize(&bytes);
  auto reread = L0Sampler::Deserialize(bytes);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread->StateEquals(sparse));
  EXPECT_FALSE(reread->Escalated());

  // Escalation: bit-identical to dense-from-the-start (StateEquals
  // compares cells + buffer, both empty after escalation on both sides).
  L0Sampler escalated(kDomain, hybrid_config, kSeed);
  escalated.Process(updates);
  EXPECT_TRUE(escalated.Escalated());
  L0Sampler dense(kDomain, dense_config, kSeed);
  dense.Process(updates);
  EXPECT_TRUE(escalated.StateEquals(dense));

  // Merge lattice: sparse x sparse and sparse x dense splits both equal
  // the serial sampler, frame bytes included.
  std::vector<uint8_t> want;
  escalated.Serialize(&want);
  for (size_t split : {size_t{2}, size_t{5}, size_t{9}}) {
    L0Sampler a(kDomain, hybrid_config, kSeed);
    L0Sampler b = a.CloneEmpty();
    a.Process(std::span<const L0Update>(updates.data(), split));
    b.Process(std::span<const L0Update>(updates.data() + split,
                                        updates.size() - split));
    ASSERT_TRUE(a.MergeFrom(b).ok()) << "split=" << split;
    EXPECT_TRUE(a.StateEquals(escalated)) << "split=" << split;
    std::vector<uint8_t> merged;
    a.Serialize(&merged);
    EXPECT_EQ(merged, want) << "split=" << split;
  }

  // Net zero while sparse: back to the empty measurement, sample honest.
  L0Sampler cancel(kDomain, hybrid_config, kSeed);
  cancel.Update(42, +1);
  cancel.Update(42, -1);
  EXPECT_TRUE(cancel.StateEquals(L0Sampler(kDomain, hybrid_config, kSeed)));
  EXPECT_FALSE(cancel.Sample().ok());
}

}  // namespace
}  // namespace gms
