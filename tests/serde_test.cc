// Wire-format suite: every sketch type round-trips through
// Serialize/Deserialize bit-identically, SpaceBytes is the measured frame
// size, and ADVERSARIAL inputs -- truncations, single-byte corruption,
// wrong frame types, garbage -- come back as Status, never as a crash or a
// silently-wrong sketch. The asan preset runs this file unfiltered, so
// every decode path is also exercised under sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "sketch/l0_sampler.h"
#include "sparsify/sparsifier_sketch.h"
#include "stream/stream.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"
#include "wire/wire.h"

namespace gms {
namespace {

DynamicStream GraphStream(size_t n, uint64_t seed) {
  Graph g = UnionOfHamiltonianCycles(n, 3, seed);
  return DynamicStream::WithChurn(g, /*decoys=*/n, seed + 1);
}

DynamicStream HypergraphStream(size_t n, size_t r, uint64_t seed) {
  Hypergraph g = HyperCycle(n, r);
  return DynamicStream::WithChurn(g, /*decoys=*/n / 2, r, seed + 1);
}

// ---------- round trips ----------

TEST(SerdeTest, L0SamplerRoundTrip) {
  L0Sampler sampler(/*domain=*/u128{1} << 40, SketchConfig::Light(), 7);
  for (uint64_t i = 0; i < 50; ++i) {
    sampler.Update((u128{i} * 977) % (u128{1} << 40), i % 3 == 0 ? -1 : +1);
  }
  std::vector<uint8_t> frame;
  sampler.Serialize(&frame);
  EXPECT_EQ(frame.size(), sampler.SpaceBytes());

  auto back = L0Sampler::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sampler));
  EXPECT_EQ(back->seed(), sampler.seed());
  EXPECT_TRUE(back->domain() == sampler.domain());

  // The reconstructed sketch must BEHAVE identically, not just compare
  // equal: same sample, and identical response to further updates.
  auto a = sampler.Sample();
  auto b = back->Sample();
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    EXPECT_TRUE(a.value().index == b.value().index);
    EXPECT_EQ(a.value().value, b.value().value);
  }
  sampler.Update(123, +1);
  back->Update(123, +1);
  EXPECT_TRUE(back->StateEquals(sampler));
}

TEST(SerdeTest, SpanningForestRoundTrip) {
  constexpr size_t kN = 64;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch sketch(kN, 2, /*seed=*/11, params);
  sketch.Process(GraphStream(kN, 3));

  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  EXPECT_EQ(frame.size(), sketch.SpaceBytes());

  auto back = SpanningForestSketch::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sketch));
  EXPECT_EQ(back->seed(), sketch.seed());
  EXPECT_EQ(back->n(), sketch.n());
  EXPECT_EQ(back->rounds(), sketch.rounds());

  auto a = sketch.Query();
  auto b = back->Query();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
}

TEST(SerdeTest, SpanningForestActiveSubsetRoundTrip) {
  // The active bitmap must travel: a sketch over a strict vertex subset
  // (the per-player referee message shape) round-trips with the same
  // subset and cells.
  constexpr size_t kN = 40;
  std::vector<bool> active(kN, false);
  for (VertexId v = 0; v < kN; v += 3) active[v] = true;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch sketch(kN, 2, /*seed=*/5, params, &active);

  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  auto back = SpanningForestSketch::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sketch));
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_EQ(back->IsActive(v), sketch.IsActive(v)) << "v=" << v;
  }
}

TEST(SerdeTest, KSkeletonRoundTrip) {
  constexpr size_t kN = 48;
  KSkeletonSketch::Params params;
  params.config = SketchConfig::Light();
  KSkeletonSketch sketch(kN, /*max_rank=*/3, /*k=*/3, /*seed=*/13, params);
  sketch.Process(HypergraphStream(kN, 3, 9));

  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  EXPECT_EQ(frame.size(), sketch.SpaceBytes());

  auto back = KSkeletonSketch::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sketch));
  auto a = sketch.Query();
  auto b = back->Query();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value() == b.value());
}

TEST(SerdeTest, VcQueryRoundTrip) {
  constexpr size_t kN = 48;
  VcQueryParams params;
  params.k = 2;
  params.explicit_r = 8;
  params.forest.config = SketchConfig::Light();
  VcQuerySketch sketch(kN, params, /*seed=*/17);
  sketch.Process(GraphStream(kN, 21));

  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  EXPECT_EQ(frame.size(), sketch.SpaceBytes());

  auto back = VcQuerySketch::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sketch));
  EXPECT_EQ(back->R(), sketch.R());
  EXPECT_EQ(back->k(), sketch.k());

  auto snap = sketch.Query();
  auto back_snap = back->Query();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(back_snap.ok());
  EXPECT_TRUE(back_snap.value().union_graph() == snap.value().union_graph());
  for (VertexId v = 0; v < 6; ++v) {
    auto a = snap.value().Disconnects({v});
    auto b = back_snap.value().Disconnects({v});
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << "v=" << v;
  }
}

TEST(SerdeTest, HyperVcQueryRoundTrip) {
  constexpr size_t kN = 36;
  VcQueryParams params;
  params.k = 2;
  params.explicit_r = 6;
  params.forest.config = SketchConfig::Light();
  HyperVcQuerySketch sketch(kN, /*max_rank=*/3, params, /*seed=*/19);
  sketch.Process(HypergraphStream(kN, 3, 23));

  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  EXPECT_EQ(frame.size(), sketch.SpaceBytes());

  auto back = HyperVcQuerySketch::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sketch));
  auto snap = sketch.Query();
  auto back_snap = back->Query();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(back_snap.ok());
  EXPECT_TRUE(back_snap.value().union_graph() == snap.value().union_graph());
}

TEST(SerdeTest, SparsifierRoundTrip) {
  constexpr size_t kN = 32;
  SparsifierParams params;
  params.k = 3;
  params.levels = 8;
  params.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch sketch(kN, /*max_rank=*/3, params, /*seed=*/29);
  sketch.Process(HypergraphStream(kN, 3, 31));

  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  EXPECT_EQ(frame.size(), sketch.SpaceBytes());

  auto back = HypergraphSparsifierSketch::Deserialize(frame);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_TRUE(back->StateEquals(sketch));
  EXPECT_EQ(back->levels(), sketch.levels());
  EXPECT_EQ(back->k(), sketch.k());

  auto a = sketch.Query();
  auto b = back->Query();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().level_sizes, b.value().level_sizes);
}

TEST(SerdeTest, EmptySketchRoundTrips) {
  // The empty-stream measurement is a valid frame too.
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  SpanningForestSketch sketch(16, 2, /*seed=*/1, params);
  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  auto back = SpanningForestSketch::Deserialize(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->StateEquals(sketch));
}

// ---------- adversarial decode ----------

// A small forest frame for corruption sweeps (every byte gets flipped, so
// keep it compact).
std::vector<uint8_t> SmallForestFrame() {
  ForestSketchParams params;
  params.config = SketchConfig{/*sparse_capacity=*/2, /*rows=*/2,
                               /*buckets_per_capacity=*/2,
                               /*extra_boruvka_rounds=*/0};
  params.rounds = 2;
  SpanningForestSketch sketch(8, 2, /*seed=*/3, params);
  sketch.Process(DynamicStream::InsertOnly(CycleGraph(8), 4));
  std::vector<uint8_t> frame;
  sketch.Serialize(&frame);
  return frame;
}

TEST(SerdeAdversarialTest, TruncatedBufferIsStatusNotCrash) {
  std::vector<uint8_t> frame = SmallForestFrame();
  // EVERY proper prefix must be rejected -- the preamble, the header, the
  // payload, and the checksum are all length-guarded.
  for (size_t len = 0; len < frame.size(); ++len) {
    auto r = SpanningForestSketch::Deserialize(
        std::span<const uint8_t>(frame.data(), len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix of a "
                         << frame.size() << "-byte frame";
  }
}

TEST(SerdeAdversarialTest, EveryByteFlipIsDetected) {
  std::vector<uint8_t> frame = SmallForestFrame();
  // FNV-1a's per-byte step is a bijection of the running hash, so ANY
  // single-byte difference -- in the preamble, header, payload, or the
  // stored checksum itself -- must surface as a Status.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[i] ^= 0x5A;
    auto r = SpanningForestSketch::Deserialize(corrupt);
    EXPECT_FALSE(r.ok()) << "accepted a frame with byte " << i << " flipped";
  }
}

TEST(SerdeAdversarialTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> frame = SmallForestFrame();
  frame.push_back(0x00);
  EXPECT_FALSE(SpanningForestSketch::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, WrongFrameTypeIsRejected) {
  // A perfectly valid L0 frame handed to every OTHER decoder must be a
  // clean Status (frame type is checked after the checksum, so this is the
  // "right bytes, wrong door" case, not corruption).
  L0Sampler sampler(1 << 20, SketchConfig::Light(), 7);
  sampler.Update(5, +1);
  std::vector<uint8_t> frame;
  sampler.Serialize(&frame);
  EXPECT_TRUE(L0Sampler::Deserialize(frame).ok());
  EXPECT_FALSE(SpanningForestSketch::Deserialize(frame).ok());
  EXPECT_FALSE(KSkeletonSketch::Deserialize(frame).ok());
  EXPECT_FALSE(VcQuerySketch::Deserialize(frame).ok());
  EXPECT_FALSE(HyperVcQuerySketch::Deserialize(frame).ok());
  EXPECT_FALSE(HypergraphSparsifierSketch::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, GarbageBuffersAreRejected) {
  EXPECT_FALSE(SpanningForestSketch::Deserialize({}).ok());
  std::vector<uint8_t> zeros(64, 0);
  EXPECT_FALSE(SpanningForestSketch::Deserialize(zeros).ok());
  std::vector<uint8_t> noise;
  uint32_t x = 0x12345678;
  for (int i = 0; i < 256; ++i) {
    x = x * 1664525u + 1013904223u;
    noise.push_back(static_cast<uint8_t>(x >> 24));
  }
  EXPECT_FALSE(SpanningForestSketch::Deserialize(noise).ok());
  EXPECT_FALSE(L0Sampler::Deserialize(noise).ok());
}

TEST(SerdeAdversarialTest, MergeSeedMismatchIsStatus) {
  // Same shapes, different seed = a DIFFERENT measurement; merging must
  // refuse for every sketch type and leave the target untouched.
  ForestSketchParams fp;
  fp.config = SketchConfig::Light();
  SpanningForestSketch f1(16, 2, /*seed=*/1, fp);
  SpanningForestSketch f2(16, 2, /*seed=*/2, fp);
  SpanningForestSketch f1_before = f1;
  EXPECT_FALSE(f1.MergeFrom(f2).ok());
  EXPECT_TRUE(f1.StateEquals(f1_before));

  L0Sampler s1(1 << 16, SketchConfig::Light(), 1);
  L0Sampler s2(1 << 16, SketchConfig::Light(), 2);
  EXPECT_FALSE(s1.MergeFrom(s2).ok());

  KSkeletonSketch k1(16, 2, 2, /*seed=*/1, fp);
  KSkeletonSketch k2(16, 2, 2, /*seed=*/2, fp);
  EXPECT_FALSE(k1.MergeFrom(k2).ok());

  VcQueryParams vp;
  vp.k = 2;
  vp.explicit_r = 4;
  vp.forest.config = SketchConfig::Light();
  VcQuerySketch v1(16, vp, /*seed=*/1);
  VcQuerySketch v2(16, vp, /*seed=*/2);
  EXPECT_FALSE(v1.MergeFrom(v2).ok());

  HyperVcQuerySketch h1(16, 3, vp, /*seed=*/1);
  HyperVcQuerySketch h2(16, 3, vp, /*seed=*/2);
  EXPECT_FALSE(h1.MergeFrom(h2).ok());

  SparsifierParams sp;
  sp.k = 2;
  sp.levels = 4;
  sp.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch p1(16, 3, sp, /*seed=*/1);
  HypergraphSparsifierSketch p2(16, 3, sp, /*seed=*/2);
  EXPECT_FALSE(p1.MergeFrom(p2).ok());
}

TEST(SerdeAdversarialTest, MergeShapeMismatchIsStatus) {
  ForestSketchParams fp;
  fp.config = SketchConfig::Light();
  // Different n.
  SpanningForestSketch a(16, 2, 1, fp);
  SpanningForestSketch b(32, 2, 1, fp);
  EXPECT_FALSE(a.MergeFrom(b).ok());
  // Different rounds.
  ForestSketchParams fp5 = fp;
  fp5.rounds = 5;
  SpanningForestSketch c(16, 2, 1, fp5);
  EXPECT_FALSE(a.MergeFrom(c).ok());
  // Different config (cell geometry).
  ForestSketchParams fpd;
  fpd.config = SketchConfig::Default();
  SpanningForestSketch d(16, 2, 1, fpd);
  EXPECT_FALSE(a.MergeFrom(d).ok());
  // Active-set violation: other active at a vertex this sketch is not.
  std::vector<bool> evens(16, false), odds(16, false);
  for (VertexId v = 0; v < 16; ++v) (v % 2 == 0 ? evens : odds)[v] = true;
  SpanningForestSketch e(16, 2, 1, fp, &evens);
  SpanningForestSketch o(16, 2, 1, fp, &odds);
  EXPECT_FALSE(e.MergeFrom(o).ok());
  // ...but the subset direction is exactly the referee's merge and works.
  SpanningForestSketch full(16, 2, 1, fp);
  EXPECT_TRUE(full.MergeFrom(e).ok());
  EXPECT_TRUE(full.MergeFrom(o).ok());
  // Different max_rank under the same seed, n, k and R: the subsampled
  // union refuses before touching any state.
  VcQueryParams vp;
  vp.k = 2;
  vp.explicit_r = 4;
  vp.forest = fp;
  HyperVcQuerySketch rank3(16, 3, vp, /*seed=*/1);
  HyperVcQuerySketch rank4(16, 4, vp, /*seed=*/1);
  DynamicStream stream = HypergraphStream(16, 3, /*seed=*/5);
  rank3.Process(stream);
  rank4.Process(stream);
  std::vector<uint8_t> before, after;
  rank3.Serialize(&before);
  EXPECT_FALSE(rank3.MergeFrom(rank4).ok());
  rank3.Serialize(&after);
  EXPECT_EQ(before, after);
}

TEST(SerdeAdversarialTest, HeaderShapeFieldsAreRangeChecked) {
  // Hand-build a frame whose header claims an absurd shape; the decoder
  // must bound-check BEFORE allocating, returning Status rather than
  // attempting a huge construction. (The checksum is recomputed, so this
  // is a well-formed frame carrying hostile values.)
  std::vector<uint8_t> frame;
  {
    wire::FrameBuilder fb(wire::FrameType::kL0Sampler, &frame);
    fb.writer().U128(u128{1} << 127);  // domain >= 2^126: out of range
    fb.writer().U64(7);
    WriteSketchConfig(SketchConfig::Light(), &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  auto r = L0Sampler::Deserialize(frame);
  EXPECT_FALSE(r.ok());

  frame.clear();
  {
    wire::FrameBuilder fb(wire::FrameType::kL0Sampler, &frame);
    fb.writer().U128(u128{1} << 20);
    fb.writer().U64(7);
    SketchConfig hostile = SketchConfig::Light();
    hostile.rows = 1000;  // > kMaxSketchRows
    WriteSketchConfig(hostile, &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  EXPECT_FALSE(L0Sampler::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, PayloadSizeMismatchIsStatus) {
  // A valid header with a short payload (whole missing words, so the frame
  // itself is well-formed) must be caught by the payload size check.
  L0Sampler sampler(1 << 16, SketchConfig::Light(), 9);
  std::vector<uint8_t> frame;
  {
    wire::FrameBuilder fb(wire::FrameType::kL0Sampler, &frame);
    fb.writer().U128(u128{1} << 16);
    fb.writer().U64(9);
    WriteSketchConfig(SketchConfig::Light(), &fb.writer());
    fb.EndHeader();
    fb.writer().U64(0);  // one word where state_.NumWords() are expected
    fb.Finish();
  }
  EXPECT_FALSE(L0Sampler::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, RetiredSparseL0FrameIsRejected) {
  // The L0 sampler's sparse repr 1 (update counter, then an exact buffer
  // or, once escalated, raw words) is retired. Well-formed, checksummed
  // frames in that layout must come back as a Status.
  SketchConfig config = SketchConfig::Light();
  config.sparse_threshold = 8;
  const u128 domain = u128{1} << 16;
  auto repr1 = [&](bool escalated) {
    std::vector<uint8_t> frame;
    wire::FrameBuilder fb(wire::FrameType::kL0Sampler, &frame);
    fb.writer().U128(domain);
    fb.writer().U64(9);
    WriteSketchConfig(config, &fb.writer());
    fb.EndHeader();
    fb.writer().U8(1);
    if (escalated) {
      fb.writer().U32(config.sparse_threshold + 1);
      const std::vector<uint64_t> words(L0StateWords(domain, config), 0);
      fb.writer().Words(words.data(), words.size());
    } else {
      fb.writer().U32(2);  // updates absorbed
      fb.writer().U32(2);  // buffered entries, ascending keys
      for (uint64_t key : {5u, 77u}) {
        fb.writer().U128(key);
        fb.writer().U64(1);
      }
    }
    fb.Finish();
    return frame;
  };
  for (bool escalated : {false, true}) {
    const std::vector<uint8_t> frame = repr1(escalated);
    ASSERT_TRUE(wire::ParseFrame(frame, wire::FrameType::kL0Sampler).ok());
    auto r = L0Sampler::Deserialize(frame);
    ASSERT_FALSE(r.ok()) << "escalated=" << escalated;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("retired"), std::string::npos)
        << r.status().message();
  }
}

TEST(SerdeAdversarialTest, FrameLengthOverflowIsRejected) {
  // header_len + payload_len must not be summed in u64: pick lengths whose
  // sum WRAPS to the true content size (header_len = content + 1,
  // payload_len = 2^64 - 1), recompute the checksum so the frame is
  // otherwise pristine, and require a clean Status. The unfixed parser
  // accepted this and built a header span running off the buffer.
  std::vector<uint8_t> frame = SmallForestFrame();
  ASSERT_GT(frame.size(), 28u);
  const uint64_t content = frame.size() - 28;  // preamble 20 + checksum 8
  const uint32_t bad_header_len = static_cast<uint32_t>(content + 1);
  const uint64_t bad_payload_len = ~uint64_t{0};
  std::memcpy(frame.data() + 8, &bad_header_len, 4);
  std::memcpy(frame.data() + 12, &bad_payload_len, 8);
  const uint64_t sum = wire::Checksum(frame.data(), frame.size() - 8);
  std::memcpy(frame.data() + frame.size() - 8, &sum, 8);
  EXPECT_FALSE(SpanningForestSketch::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, ShapeProductBombsAreRejectedBeforeAllocation) {
  // Every shape field individually in range, but the PRODUCT implies a
  // multi-terabyte sketch. The frames are well-formed (FrameBuilder
  // checksums them) with EMPTY payloads, so acceptance would mean the
  // decoder committed to the allocation before comparing sizes. All four
  // container decoders must refuse -- and quickly (no per-cell work).
  ForestSketchParams fp;
  fp.config = SketchConfig::Light();
  fp.rounds = 4;

  std::vector<uint8_t> frame;
  {
    wire::FrameBuilder fb(wire::FrameType::kKSkeleton, &frame);
    fb.writer().U64(uint64_t{1} << 32);  // n
    fb.writer().U64(2);                  // max_rank
    fb.writer().U64(uint64_t{1} << 20);  // k
    fb.writer().U64(7);                  // seed
    WriteForestParams(fp, &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  EXPECT_FALSE(KSkeletonSketch::Deserialize(frame).ok());

  frame.clear();
  {
    wire::FrameBuilder fb(wire::FrameType::kSparsifier, &frame);
    fb.writer().U64(uint64_t{1} << 32);  // n
    fb.writer().U64(2);                  // max_rank
    fb.writer().U64(uint64_t{1} << 16);  // levels
    fb.writer().U64(uint64_t{1} << 24);  // k
    fb.writer().U64(7);                  // seed
    WriteForestParams(fp, &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  EXPECT_FALSE(HypergraphSparsifierSketch::Deserialize(frame).ok());

  frame.clear();
  {
    wire::FrameBuilder fb(wire::FrameType::kVcQuery, &frame);
    fb.writer().U64(uint64_t{1} << 32);  // n
    fb.writer().U64(uint64_t{1} << 20);  // k
    fb.writer().U64(uint64_t{1} << 24);  // R
    fb.writer().U64(7);                  // seed
    WriteForestParams(fp, &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  EXPECT_FALSE(VcQuerySketch::Deserialize(frame).ok());

  frame.clear();
  {
    wire::FrameBuilder fb(wire::FrameType::kHyperVcQuery, &frame);
    fb.writer().U64(uint64_t{1} << 32);  // n
    fb.writer().U64(3);                  // max_rank
    fb.writer().U64(uint64_t{1} << 20);  // k
    fb.writer().U64(uint64_t{1} << 24);  // R
    fb.writer().U64(7);                  // seed
    WriteForestParams(fp, &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  EXPECT_FALSE(HyperVcQuerySketch::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, SubsampledPayloadSizeIsValidatedByReplay) {
  // A subsampled sketch's payload size depends on the seeded kept-bitmaps,
  // not the header fields alone; the decoder must replay the draws and
  // reject a modest, fully in-range shape whose payload is missing.
  ForestSketchParams fp;
  fp.config = SketchConfig::Light();
  fp.rounds = 3;
  std::vector<uint8_t> frame;
  {
    wire::FrameBuilder fb(wire::FrameType::kVcQuery, &frame);
    fb.writer().U64(64);  // n
    fb.writer().U64(2);   // k
    fb.writer().U64(4);   // R
    fb.writer().U64(17);  // seed
    WriteForestParams(fp, &fb.writer());
    fb.EndHeader();
    fb.Finish();  // empty payload; the replayed shape implies far more
  }
  ASSERT_GT(CountKeptVertices(/*seed=*/17, /*n=*/64, /*k=*/2, /*r=*/4), 0u);
  EXPECT_FALSE(VcQuerySketch::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, L0ConfigProductBombIsRejected) {
  // sparse_capacity and buckets_per_capacity each pass their individual
  // bounds, but their product (the per-row bucket count) is 2^40 -- enough
  // to overflow int in BucketsPerRow. ReadSketchConfig must cap the
  // product itself.
  std::vector<uint8_t> frame;
  {
    wire::FrameBuilder fb(wire::FrameType::kL0Sampler, &frame);
    fb.writer().U128(u128{1} << 20);
    fb.writer().U64(7);
    SketchConfig hostile{/*sparse_capacity=*/1 << 20, /*rows=*/1,
                         /*buckets_per_capacity=*/1 << 20,
                         /*extra_boruvka_rounds=*/0};
    WriteSketchConfig(hostile, &fb.writer());
    fb.EndHeader();
    fb.Finish();
  }
  EXPECT_FALSE(L0Sampler::Deserialize(frame).ok());
}

TEST(SerdeAdversarialTest, L0MergeConfigMismatchIsStatus) {
  // Two configs with DIFFERENT geometry but an identical total word count:
  // (cap 2, rows 2, buckets/cap 2) and (cap 2, rows 4, buckets/cap 1) both
  // come to 8 cells per level. Equal seed + domain + NumWords used to slip
  // through MergeFrom; the configs are different measurements.
  SketchConfig a{/*sparse_capacity=*/2, /*rows=*/2, /*buckets_per_capacity=*/2,
                 /*extra_boruvka_rounds=*/0};
  SketchConfig b{/*sparse_capacity=*/2, /*rows=*/4, /*buckets_per_capacity=*/1,
                 /*extra_boruvka_rounds=*/0};
  L0Sampler sa(u128{1} << 16, a, /*seed=*/5);
  L0Sampler sb(u128{1} << 16, b, /*seed=*/5);
  ASSERT_EQ(sa.state().NumWords(), sb.state().NumWords());
  EXPECT_FALSE(sa.MergeFrom(sb).ok());
}

TEST(SerdeTest, ShapeImpliedSizesMatchConstructedSketches) {
  // The arithmetic the deserializers trust must agree with what the
  // constructors actually build, or valid frames would be rejected.
  const SketchConfig config = SketchConfig::Light();
  const u128 domain = u128{1} << 40;
  L0Sampler sampler(domain, config, /*seed=*/3);
  EXPECT_EQ(L0StateWords(domain, config), sampler.state().NumWords());

  ForestSketchParams fp;
  fp.config = config;
  fp.rounds = 5;
  constexpr size_t kN = 24;
  SpanningForestSketch forest(kN, /*max_rank=*/3, /*seed=*/3, fp);
  auto words = ForestStateWords(kN, /*max_rank=*/3, config);
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(*words * 5 * kN * sizeof(uint64_t), forest.MemoryBytes());
}

}  // namespace
}  // namespace gms
