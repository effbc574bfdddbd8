// Extraction-engine differential suite (runs in the tsan preset: the
// incremental decoder's block maintenance and the sparse MergeFrom fan
// work across the pool).
//
// Four contracts, each asserted bit-exactly:
//   1. Query (the incremental windowed-accumulator decoder) produces the
//      SAME Hypergraph as the testkit reference re-sum decoder, at every
//      thread count, over the whole DefaultSpecGrid() -- also on hybrid
//      states and hand-built frames where the incremental decode leaves
//      out buffered entries that cancel, and the serving engine's epoch
//      payloads equal a one-shot Query of each prefix. An all-sparse
//      Query stops after the exact pre-round; anything else runs the
//      rounds with the reference's decision counters.
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
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "serve/serving_engine.h"
#include "stream/stream.h"
#include "testkit/forest_reference.h"
#include "testkit/peel_reference.h"
#include "testkit/stream_spec.h"
#include "util/random.h"
#include "wire/wire.h"

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

// ---------- Query vs the testkit reference, across thread counts ----------

// Every decision counter is a function of the state alone, shared between
// Query and the reference; only the work counters (summed_words,
// sparse_entries_replayed) may differ.
void ExpectSameDecisions(const ExtractStats& got, const ExtractStats& want,
                         const std::string& label) {
  EXPECT_EQ(got.rounds_run, want.rounds_run) << label;
  EXPECT_EQ(got.early_exit, want.early_exit) << label;
  EXPECT_EQ(got.sample_attempts, want.sample_attempts) << label;
  EXPECT_EQ(got.decode_attempts, want.decode_attempts) << label;
  EXPECT_EQ(got.edges_found, want.edges_found) << label;
  EXPECT_EQ(got.groups_per_round, want.groups_per_round) << label;
}

// Query against the reference on one sketch. The reference decodes at 1
// and 8 threads alike; Query at each of `thread_counts` returns its edges
// in the same order and, whenever it runs the rounds, the same decision
// counters. An all-sparse sketch's Query stops after the exact pre-round
// instead (the reference runs every round). Returns the replay counts of
// the last Query and of the serial reference.
struct ReplayCounts {
  uint64_t incremental = 0;
  uint64_t reference = 0;
};

ReplayCounts ExpectQueryMatchesReference(
    const SpanningForestSketch& sketch, const std::string& label,
    std::initializer_list<size_t> thread_counts) {
  const auto reference = testkit::ExtractSpanningGraphReference(sketch, 1);
  const auto reference8 = testkit::ExtractSpanningGraphReference(sketch, 8);
  EXPECT_EQ(reference8.value().Edges(), reference.value().Edges()) << label;
  ExpectSameDecisions(reference8.stats(), reference.stats(),
                      label + " reference threads=8");
  ReplayCounts counts{0, reference.stats().sparse_entries_replayed};
  for (size_t threads : thread_counts) {
    const auto query = sketch.Query(threads);
    const std::string at = label + " threads=" + std::to_string(threads);
    EXPECT_EQ(query.value().Edges(), reference.value().Edges()) << at;
    if (sketch.AllSparse()) {
      EXPECT_EQ(query.stats().sparse_exact_forests, 1u) << at;
      EXPECT_EQ(query.stats().rounds_run, 0) << at;
      EXPECT_EQ(query.stats().sample_attempts, 0u) << at;
      EXPECT_EQ(query.stats().edges_found, reference.stats().edges_found)
          << at;
    } else {
      EXPECT_EQ(query.stats().sparse_exact_forests, 0u) << at;
      ExpectSameDecisions(query.stats(), reference.stats(), at);
    }
    counts.incremental = query.stats().sparse_entries_replayed;
  }
  return counts;
}

TEST(ExtractionTest, IncrementalMatchesReferenceAcrossGridAndThreads) {
  for (const StreamSpec& spec : DefaultSpecGrid()) {
    BuiltStream built = spec.Build();
    // The Light threshold leaves most grid streams all-sparse; threshold 0
    // decodes every stream through the rounds.
    for (uint32_t threshold : {SketchConfig::Light().sparse_threshold, 0u}) {
      ForestSketchParams params = LightParams();
      params.config.sparse_threshold = threshold;
      SpanningForestSketch sketch(spec.n, built.max_rank, /*seed=*/11,
                                  params);
      sketch.Process(built.stream);
      ExpectQueryMatchesReference(
          sketch, spec.ToString() + " T=" + std::to_string(threshold),
          {1, 2, 8});
    }
  }
}

TEST(ExtractionTest, CancellingEntriesSkippedOnHybridStates) {
  // A low threshold leaves the hubs escalated and the rest sparse, so
  // components mix sparse members (whose shared entries cancel) with
  // escalated ones (whose entries must still be replayed).
  for (uint32_t rank : {2u, 3u}) {
    StreamSpec spec;
    spec.family = rank == 2 ? testkit::Family::kRmat
                            : testkit::Family::kRandomUniform;
    spec.n = 128;
    spec.m = rank == 2 ? 384 : 160;
    spec.rank = rank;
    spec.churn = testkit::Churn::kWithChurn;
    spec.decoys = 128;
    ForestSketchParams params = LightParams();
    params.config.sparse_threshold = 6;
    uint64_t skipped = 0;
    for (uint64_t trial = 0; trial < 4; ++trial) {
      const StreamSpec t = spec.WithTrial(trial);
      BuiltStream built = t.Build();
      SpanningForestSketch sketch(t.n, built.max_rank, /*seed=*/29 + trial,
                                  params);
      sketch.Process(built.stream);
      size_t escalated = 0;
      for (VertexId v = 0; v < t.n; ++v) {
        escalated += sketch.VertexEscalated(v) ? 1 : 0;
      }
      ASSERT_GT(escalated, 0u) << t.ToString();
      ASSERT_LT(escalated, t.n) << t.ToString();
      const ReplayCounts counts =
          ExpectQueryMatchesReference(sketch, t.ToString(), {1, 4});
      EXPECT_LE(counts.incremental, counts.reference);
      skipped += counts.reference - counts.incremental;
    }
    EXPECT_GT(skipped, 0u) << "rank " << rank << ": nothing cancelled";
  }
}

// A hand-built forest frame: n = 9, rank 2, threshold 4, one buffer per
// vertex 0..7 given as (u, w, weight) edge keys. Vertex 8 is escalated
// with a zero column, so Query runs the rounds (an all-sparse frame would
// stop after the exact pre-round and replay nothing).
struct BufferedKey {
  VertexId holder;
  VertexId u;
  VertexId w;
  int64_t weight;
};

Result<SpanningForestSketch> SparseFrame(
    const std::vector<BufferedKey>& keys) {
  constexpr size_t kN = 9;
  constexpr VertexId kEscalated = 8;
  ForestSketchParams params = LightParams();
  params.config.sparse_threshold = 4;
  params.rounds = 6;
  const Result<uint64_t> state_words = ForestStateWords(kN, 2, params.config);
  if (!state_words.ok()) return state_words.status();
  const std::vector<uint64_t> zero_column(
      static_cast<size_t>(params.rounds) * *state_words, 0);
  const EdgeCodec codec(kN, 2);
  std::vector<std::vector<SparseEntry>> buffers(kN);
  for (const BufferedKey& k : keys) {
    SparseBufferAdd(&buffers[k.holder], codec.Encode(Hyperedge{k.u, k.w}),
                    k.weight);
  }
  std::vector<uint8_t> frame;
  wire::FrameBuilder fb(wire::FrameType::kSpanningForest, &frame);
  fb.writer().U64(kN);
  fb.writer().U64(2);
  fb.writer().U64(/*seed=*/41);
  WriteForestParams(params, &fb.writer());
  fb.writer().BoolVec(std::vector<bool>(kN, true));
  fb.EndHeader();
  uint64_t entries = 0;
  for (const auto& buf : buffers) entries += buf.size();
  fb.writer().U8(1);  // hybrid cells
  fb.writer().U64(1);  // one escalated column
  fb.writer().U64(entries);
  for (VertexId v = 0; v < kN; ++v) {
    // The update counter: past the threshold for the escalated column.
    fb.writer().U32(v == kEscalated
                        ? params.config.sparse_threshold + 1
                        : static_cast<uint32_t>(buffers[v].size()));
  }
  for (VertexId v = 0; v < kN; ++v) {
    if (v == kEscalated) {
      fb.writer().Words(zero_column.data(), zero_column.size());
      continue;
    }
    const auto& buf = buffers[v];
    fb.writer().U32(static_cast<uint32_t>(buf.size()));
    for (const SparseEntry& entry : buf) {
      fb.writer().U128(entry.index);
      fb.writer().U64(static_cast<uint64_t>(entry.value));
    }
  }
  fb.Finish();
  return SpanningForestSketch::Deserialize(frame);
}

TEST(ExtractionTest, CancellationHoldsOnHostileFrames) {
  // Every frame pairs a legitimate cancelling edge {4,5} with keys a
  // stream could not leave: the decode must skip only what sums to zero
  // over the key's own endpoints.
  const std::vector<BufferedKey> honest = {{4, 4, 5, +1}, {5, 4, 5, -1}};
  struct Case {
    const char* name;
    std::vector<BufferedKey> keys;
  };
  const std::vector<Case> cases = {
      // Vertex 0 holds {0,1}; vertex 1 lacks it.
      {"asymmetric", {{0, 0, 1, +1}, {2, 2, 3, +1}, {3, 2, 3, -1}}},
      // Both endpoints hold {0,1}, but 1 + 1 != 0.
      {"nonzero_sum", {{0, 0, 1, +1}, {1, 0, 1, +1}, {6, 6, 7, +3},
                       {7, 6, 7, -2}}},
      // Weights that cancel mod 2^64 but not in the integers.
      {"wrapping_sum",
       {{0, 0, 1, INT64_MIN}, {1, 0, 1, INT64_MIN}, {2, 2, 3, +1},
        {3, 2, 3, -1}}},
      // Vertex 4 holds a key of {2,3}, which cancels between 2 and 3.
      {"foreign_key", {{2, 2, 3, +1}, {3, 2, 3, -1}, {4, 2, 3, +5}}},
  };
  for (const Case& c : cases) {
    std::vector<BufferedKey> keys = c.keys;
    keys.insert(keys.end(), honest.begin(), honest.end());
    auto sketch = SparseFrame(keys);
    ASSERT_TRUE(sketch.ok()) << c.name << ": " << sketch.status().ToString();
    ASSERT_FALSE(sketch->AllSparse()) << c.name;
    const ReplayCounts counts =
        ExpectQueryMatchesReference(*sketch, c.name, {1, 4});
    // {4,5} cancels; at least one hostile copy must still be replayed.
    EXPECT_LT(counts.incremental, counts.reference) << c.name;
    EXPECT_GT(counts.incremental, 0u) << c.name;
  }
}

// ---------- the all-sparse exit inside Query ----------

// A star on hub 0 with `leaves` leaves, plus a path over the vertices the
// star leaves out: the hub's column takes `leaves` updates, every other
// column at most 2.
std::vector<StreamUpdate> StarPlusPath(size_t n, uint32_t leaves) {
  std::vector<StreamUpdate> updates;
  for (VertexId leaf = 1; leaf <= leaves; ++leaf) {
    updates.emplace_back(Hyperedge{0, leaf}, +1);
  }
  for (VertexId v = leaves + 2; v < n; ++v) {
    updates.emplace_back(Hyperedge{v - 1, v}, +1);
  }
  return updates;
}

TEST(ExtractionTest, EscalatedColumnOrEscalatingPeelRunsTheRounds) {
  constexpr size_t kN = 64;
  constexpr uint32_t kT = 8;
  ForestSketchParams params = LightParams();
  params.config.sparse_threshold = kT;

  // One escalated column (the hub) sends Query through the rounds, with
  // the reference's decisions.
  SpanningForestSketch escalated(kN, 2, /*seed=*/61, params);
  escalated.Process(StarPlusPath(kN, kT + 1));
  ASSERT_TRUE(escalated.VertexEscalated(0));
  ASSERT_FALSE(escalated.AllSparse());
  EXPECT_GT(escalated.Query(1).stats().rounds_run, 0);
  ExpectQueryMatchesReference(escalated, "one escalated column", {1, 8});

  // An all-sparse sketch whose hub sits kT - 2 updates deep.
  SpanningForestSketch sparse(kN, 2, /*seed=*/67, params);
  sparse.Process(StarPlusPath(kN, kT - 2));
  ASSERT_TRUE(sparse.AllSparse());
  // Peeling three hub edges pushes the hub past kT: the rounds run, as
  // they do on the RemoveHyperedges'd copy.
  const std::vector<Hyperedge> escalating = {{0, 1}, {0, 2}, {0, 3}};
  // Peeling one keeps every column sparse: both stop after the pre-round.
  const std::vector<Hyperedge> staying = {{0, 1}};
  for (size_t threads : {1u, 8u}) {
    const auto run = sparse.Query(threads, escalating);
    const auto run_copy = testkit::PeelByCopy(sparse, escalating, threads);
    EXPECT_EQ(run.stats().sparse_exact_forests, 0u);
    EXPECT_GT(run.stats().rounds_run, 0);
    EXPECT_EQ(run.value().Edges(), run_copy.value().Edges());
    ExpectSameDecisions(run.stats(), run_copy.stats(), "escalating peel");

    const auto stop = sparse.Query(threads, staying);
    const auto stop_copy = testkit::PeelByCopy(sparse, staying, threads);
    EXPECT_EQ(stop.stats().sparse_exact_forests, 1u);
    EXPECT_EQ(stop_copy.stats().sparse_exact_forests, 1u);
    EXPECT_EQ(stop.value().Edges(), stop_copy.value().Edges());
    ExpectSameDecisions(stop.stats(), stop_copy.stats(), "sparse peel");
  }
}

TEST(ExtractionServeTest, EpochPayloadsEqualWholePrefixQuery) {
  // Each published epoch's payload -- merged deltas, then an incremental
  // decode that skips cancelling entries -- equals a fresh sketch's Query
  // of the same prefix, edge order included.
  StreamSpec spec;
  spec.family = testkit::Family::kRmat;
  spec.n = 256;
  spec.m = 1024;
  spec.churn = testkit::Churn::kWithChurn;
  spec.decoys = 256;
  const BuiltStream built = spec.Build();
  const auto& updates = built.stream.updates();
  ForestSketchParams params = LightParams();
  params.config.sparse_threshold = 8;
  constexpr uint64_t kSeed = 43;
  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(spec.n, 2, kSeed, params),
      ServingParams::Builder().EpochUpdates(1 << 20).Build());
  constexpr size_t kEpoch = 300;
  for (size_t begin = 0; begin < updates.size(); begin += kEpoch) {
    const size_t end = std::min(updates.size(), begin + kEpoch);
    const std::span<const StreamUpdate> slice(updates.data() + begin,
                                              end - begin);
    engine.Process(slice);
    engine.AdvanceEpoch();
    engine.Flush();
    const auto snap = engine.Current();
    ASSERT_TRUE(snap->status.ok());
    ASSERT_EQ(snap->prefix_updates, end);
    SpanningForestSketch prefix(spec.n, 2, kSeed, params);
    prefix.Process(std::span<const StreamUpdate>(updates.data(), end));
    auto direct = prefix.Query();
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(snap->payload->Edges(), direct.value().Edges())
        << "prefix " << end;
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
  auto first = sketch.Query(8);
  auto second = sketch.Query(8);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first.value() == second.value());
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
    auto a = merged.Query();
    auto b = serial.Query();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.value() == b.value()) << "trial " << trial;
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
