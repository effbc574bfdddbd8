// Hybrid sparse/dense representation contracts (DESIGN.md §12): a vertex
// column buffers its first sparse_threshold updates exactly and escalates
// into the dense L0 arena by replaying the buffer. The testable promises:
//
//  - Escalation is invisible in the measurement: around the threshold
//    (T-1, T, T+1 updates) every ingest engine -- serial, column-sharded,
//    the inline ingest plane (whose batch apply absorbs and then escalates
//    mid-batch), and explicit clone+MergeFrom shard splits -- serializes
//    to byte-identical frames.
//  - An escalated column's raw words are bit-identical to a
//    dense-from-the-start (threshold 0) sketch of the same stream.
//  - MergeFrom is exact across every phase pairing (sparse x sparse,
//    sparse x dense, dense x sparse) for any shard split and merge order.
//  - A net-zero stream returns a sparse sketch to the empty measurement.
//  - While sparse, extraction is EXACT: the buffered edges feed Borůvka
//    directly, so a low-degree graph decodes with no sampling failure.
//  - Escalated columns pack at the arena's front in escalation order, and
//    the order is invisible: engines that escalate the same columns in
//    different orders (and merges of deserialized or strict-subset
//    sketches) land on the same frames and StateEquals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/union_find.h"
#include "stream/ingest_plane.h"
#include "stream/stream.h"
#include "testkit/forest_reference.h"
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

    // Column-sharded ingest must land on the same frame bytes (counters
    // included -- the phase is part of the round-trip).
    {
      SpanningForestSketch parallel(
          kN, 2, kSeed, ForestSketchParams::Builder(params).Threads(4).Build());
      parallel.Process(std::span<const StreamUpdate>(updates));
      EXPECT_TRUE(parallel.StateEquals(serial)) << "count=" << count;
      EXPECT_EQ(FrameOf(parallel), want) << "count=" << count << " column@4";
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

  auto hybrid_span = hybrid.Query();
  auto dense_span = dense.Query();
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
  auto span = sketch.Query();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span.value().Edges().size(), 0u);

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
  auto span = sketch.Query(/*threads=*/1);
  ASSERT_TRUE(span.ok());
  const ExtractStats& stats = span.stats();
  EXPECT_EQ(span.value().Edges().size(), kN - 1);
  EXPECT_EQ(stats.sample_attempts, 0u);
  UnionFind uf(kN);
  for (const auto& e : span.value().Edges()) {
    for (size_t i = 1; i < e.size(); ++i) uf.Union(e[0], e[i]);
  }
  for (VertexId v = 1; v < kN; ++v) {
    EXPECT_EQ(uf.Find(v), uf.Find(0)) << "v=" << v;
  }
}

TEST(HybridTest, AllSparseQueryExitMatchesFullExtraction) {
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

  // The testkit reference runs every Borůvka round; Query stops after the
  // exact pre-round.
  auto full = testkit::ExtractSpanningGraphReference(sketch, /*threads=*/1);
  ASSERT_TRUE(full.ok());
  const ExtractStats& full_stats = full.stats();
  auto fast = sketch.Query(/*threads=*/1);
  ASSERT_TRUE(fast.ok());
  const ExtractStats& fast_stats = fast.stats();
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

// Hubs whose escalations arrive in a different order per engine: the
// serial stream round-robins over kHubs (40 first), the plane flushes
// gutters in ascending vertex order (10 first), and a 2-slice merge
// escalates at merge time. Each hub gets `count` edges to its own leaves.
constexpr VertexId kHubs[] = {40, 10, 30, 20};

std::vector<StreamUpdate> HubsStream(uint32_t count) {
  std::vector<StreamUpdate> updates;
  for (uint32_t j = 0; j < count; ++j) {
    for (size_t h = 0; h < std::size(kHubs); ++h) {
      const VertexId leaf = static_cast<VertexId>(50 + 10 * h + j);
      updates.emplace_back(Hyperedge{kHubs[h], leaf}, +1);
    }
  }
  return updates;
}

TEST(HybridTest, EscalationOrderIsInvisibleAcrossEngines) {
  constexpr size_t kN = 128;
  constexpr uint64_t kSeed = 23;
  constexpr uint32_t kT = 8;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = kT;

  for (uint32_t count : {kT - 1, kT, kT + 1}) {
    const std::vector<StreamUpdate> updates = HubsStream(count);
    const size_t want_slots = count > kT ? std::size(kHubs) : 0;
    SpanningForestSketch serial(kN, 2, kSeed, params);
    for (const auto& u : updates) serial.Update(u.edge, u.delta);
    const std::vector<uint8_t> want = FrameOf(serial);
    EXPECT_EQ(serial.SlotsUsed(), want_slots) << "count=" << count;

    std::vector<SpanningForestSketch> others;
    others.emplace_back(kN, 2, kSeed,
                        ForestSketchParams::Builder(params).Threads(4).Build());
    others.back().Process(std::span<const StreamUpdate>(updates));
    {
      // Two contiguous halves: neither half pushes a hub past T, so every
      // escalation happens inside MergeFrom.
      const std::span<const StreamUpdate> all(updates);
      const size_t half = all.size() / 2;
      others.emplace_back(kN, 2, kSeed, params);
      SpanningForestSketch tail = others.back().CloneEmpty();
      others.back().Process(all.first(half));
      tail.Process(all.subspan(half));
      EXPECT_EQ(others.back().SlotsUsed(), 0u) << "count=" << count;
      EXPECT_EQ(tail.SlotsUsed(), 0u) << "count=" << count;
      ASSERT_TRUE(others.back().MergeFrom(tail).ok()) << "count=" << count;
    }
    others.emplace_back(kN, 2, kSeed, params);
    {
      IngestPlane plane;
      ASSERT_TRUE(plane.Add(&others.back()));
      plane.Process(std::span<const StreamUpdate>(updates));
    }
    if (count > kT) {
      // The test only means something if the orders really differ.
      EXPECT_EQ(serial.ArenaSlot(40), 0u);
      EXPECT_EQ(others.back().ArenaSlot(10), 0u);
    }
    for (size_t i = 0; i < others.size(); ++i) {
      const SpanningForestSketch& got = others[i];
      EXPECT_EQ(got.SlotsUsed(), want_slots) << "count=" << count << " i=" << i;
      EXPECT_TRUE(got.StateEquals(serial)) << "count=" << count << " i=" << i;
      EXPECT_TRUE(serial.StateEquals(got)) << "count=" << count << " i=" << i;
      EXPECT_EQ(FrameOf(got), want) << "count=" << count << " i=" << i;
      auto reread = SpanningForestSketch::Deserialize(FrameOf(got));
      ASSERT_TRUE(reread.ok()) << "count=" << count << " i=" << i;
      EXPECT_TRUE(reread->StateEquals(serial)) << "count=" << count;
      EXPECT_EQ(FrameOf(*reread), want) << "count=" << count << " i=" << i;
    }
    // A reread frame hands out slots in ordinal order.
    auto reread = SpanningForestSketch::Deserialize(want);
    ASSERT_TRUE(reread.ok());
    if (count > kT) {
      EXPECT_EQ(reread->ArenaSlot(10), 0u);
      EXPECT_EQ(reread->ArenaSlot(40), 3u);
    }
  }
}

TEST(HybridTest, MergeOfDeserializedSparseSketchIntoDenseOne) {
  constexpr size_t kN = 128;
  constexpr uint64_t kSeed = 61;
  constexpr uint32_t kT = 8;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = kT;

  // The dense side escalates the hubs; the sparse side holds a few edges
  // per vertex, some on the hubs, some on vertices the dense side never
  // saw. Deserialize marks every column of the sparse side dirty.
  const std::vector<StreamUpdate> dense_part = HubsStream(kT + 2);
  std::vector<StreamUpdate> sparse_part;
  for (VertexId v = 0; v < 3; ++v) {
    sparse_part.emplace_back(Hyperedge{kHubs[v], 100 + v}, +1);
    sparse_part.emplace_back(Hyperedge{100 + v, 110 + v}, +1);
  }
  SpanningForestSketch serial(kN, 2, kSeed, params);
  for (const auto& u : dense_part) serial.Update(u.edge, u.delta);
  for (const auto& u : sparse_part) serial.Update(u.edge, u.delta);

  SpanningForestSketch sparse_src(kN, 2, kSeed, params);
  for (const auto& u : sparse_part) sparse_src.Update(u.edge, u.delta);
  ASSERT_EQ(sparse_src.SlotsUsed(), 0u);
  auto sparse = SpanningForestSketch::Deserialize(FrameOf(sparse_src));
  ASSERT_TRUE(sparse.ok());

  SpanningForestSketch dense(kN, 2, kSeed, params);
  for (const auto& u : dense_part) dense.Update(u.edge, u.delta);
  const std::vector<uint8_t> dense_frame = FrameOf(dense);
  ASSERT_TRUE(dense.MergeFrom(*sparse).ok());
  // The sparse side's columns have no slot and take none here.
  EXPECT_EQ(dense.SlotsUsed(), std::size(kHubs));
  EXPECT_TRUE(dense.StateEquals(serial));
  EXPECT_EQ(FrameOf(dense), FrameOf(serial));

  // And the mirror: the deserialized sparse sketch absorbs the dense one,
  // itself deserialized (all-dirty on both sides).
  auto dense_reread = SpanningForestSketch::Deserialize(dense_frame);
  ASSERT_TRUE(dense_reread.ok());
  ASSERT_TRUE(sparse->MergeFrom(*dense_reread).ok());
  EXPECT_TRUE(sparse->StateEquals(serial));
  EXPECT_EQ(FrameOf(*sparse), FrameOf(serial));
}

TEST(HybridTest, RefereeStrictSubsetMergeMatchesSerial) {
  constexpr size_t kN = 64;
  constexpr uint64_t kSeed = 77;
  constexpr uint32_t kT = 4;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = kT;

  // Hub 9 escalates (degree 7 > T); every other vertex stays sparse.
  Graph g(kN);
  for (VertexId leaf = 20; leaf < 27; ++leaf) g.AddEdge(9, leaf);
  g.AddEdge(20, 21);
  SpanningForestSketch serial(kN, 2, kSeed, params);
  for (const Edge& e : g.Edges()) serial.Update(Hyperedge(e), +1);

  // Each player holds only its own vertex and sees only its incident
  // edges; the referee folds the players in, highest vertex first.
  SpanningForestSketch referee(kN, 2, kSeed, params);
  for (VertexId v = kN; v-- > 0;) {
    std::vector<bool> active(kN, false);
    active[v] = true;
    SpanningForestSketch player(kN, 2, kSeed, params, &active);
    for (const Edge& e : g.Edges()) {
      const Hyperedge he(e);
      if (he.Contains(v)) player.UpdateLocal(v, he, +1);
    }
    EXPECT_EQ(player.SlotsUsed(), v == 9 ? 1u : 0u) << "v=" << v;
    ASSERT_TRUE(referee.MergeFrom(player).ok()) << "v=" << v;
  }
  EXPECT_EQ(referee.SlotsUsed(), 1u);
  EXPECT_EQ(referee.ArenaSlot(9), 0u);
  EXPECT_TRUE(referee.StateEquals(serial));
  EXPECT_EQ(FrameOf(referee), FrameOf(serial));
}

TEST(HybridTest, EscalatedColumnsPackAtTheFrontAndClearFreesThem) {
  constexpr size_t kN = 256;
  constexpr uint64_t kSeed = 5;
  constexpr uint32_t kT = 4;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.config.sparse_threshold = kT;

  // Escalate scattered hubs one at a time, in a non-monotone order.
  const VertexId hubs[] = {200, 7, 150, 33};
  auto escalate = [&](SpanningForestSketch* s, VertexId hub) {
    for (uint32_t j = 1; j <= kT + 1; ++j) {
      s->Update(Hyperedge{hub, static_cast<VertexId>((hub + j) % kN)}, +1);
    }
  };
  SpanningForestSketch sketch(kN, 2, kSeed, params);
  EXPECT_EQ(sketch.SlotsUsed(), 0u);
  for (size_t k = 0; k < std::size(hubs); ++k) {
    escalate(&sketch, hubs[k]);
    ASSERT_TRUE(sketch.VertexEscalated(hubs[k]));
    EXPECT_EQ(sketch.SlotsUsed(), k + 1);
  }
  for (size_t k = 0; k < std::size(hubs); ++k) {
    EXPECT_EQ(sketch.ArenaSlot(hubs[k]), k) << "hub=" << hubs[k];
  }
  EXPECT_EQ(sketch.ArenaSlot(1), std::nullopt);
  EXPECT_EQ(sketch.MemoryBytes(), SpanningForestSketch(kN, 2, kSeed, params)
                                      .MemoryBytes());

  // Clear frees every slot; the next escalation reuses slot 0 and carries
  // nothing over from the column that held it before.
  sketch.Clear();
  EXPECT_EQ(sketch.SlotsUsed(), 0u);
  for (VertexId hub : hubs) EXPECT_EQ(sketch.ArenaSlot(hub), std::nullopt);
  escalate(&sketch, 33);
  EXPECT_EQ(sketch.ArenaSlot(33), 0u);
  SpanningForestSketch fresh(kN, 2, kSeed, params);
  escalate(&fresh, 33);
  EXPECT_TRUE(sketch.StateEquals(fresh));
  EXPECT_EQ(FrameOf(sketch), FrameOf(fresh));

  // Threshold 0: every column is dense from the start at slot = ordinal,
  // before and after Clear.
  ForestSketchParams dense_params = params;
  dense_params.config.sparse_threshold = 0;
  SpanningForestSketch dense(kN, 2, kSeed, dense_params);
  escalate(&dense, 200);
  dense.Clear();
  EXPECT_EQ(dense.SlotsUsed(), kN);
  for (VertexId v : {VertexId{0}, VertexId{7}, VertexId{255}}) {
    EXPECT_EQ(dense.ArenaSlot(v), v);
  }
  EXPECT_TRUE(dense.StateEquals(SpanningForestSketch(kN, 2, kSeed,
                                                     dense_params)));
}

}  // namespace
}  // namespace gms
