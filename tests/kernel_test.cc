// Differential tests for the hot-path arithmetic kernel: the windowed
// fingerprint power table vs. full binary exponentiation and the
// all-windows product, the one-pass key resolution vs. the reference
// hashes, the division-free exponent and bucket reductions vs. the
// hardware `%` reference, and bit-identity of the prepared-coordinate and
// resolved write paths against the plain update paths across thread
// counts and batch sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "connectivity/incidence.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/edge_codec.h"
#include "graph/generators.h"
#include "sketch/l0_sampler.h"
#include "sketch/sparse_recovery.h"
#include "stream/stream.h"
#include "stream/vertex_update.h"
#include "testkit/kernel_reference.h"
#include "util/field.h"
#include "util/hash.h"
#include "util/random.h"

namespace gms {
namespace {

u128 RandomU128(Rng& rng) {
  return (static_cast<u128>(rng.Next()) << 64) | rng.Next();
}

TEST(KernelTest, PowerTableMatchesBinaryExponentiation) {
  // The windowed table path must agree with FpPow(z, index mod p-1) on the
  // full 128-bit index domain, for every shape (each draws its own z).
  for (uint64_t seed : {1u, 2u, 77u}) {
    SSparseShape shape((u128{1} << 120), /*capacity=*/2, /*rows=*/2,
                       /*buckets=*/4, seed);
    Rng rng(seed * 31 + 7);
    for (int i = 0; i < 10000; ++i) {
      u128 index = RandomU128(rng) & ((u128{1} << 120) - 1);
      ASSERT_EQ(shape.FingerprintPower(index),
                testkit::FingerprintPowerRef(shape, index))
          << "seed " << seed << " iteration " << i;
    }
    // Boundary exponents.
    for (u128 index : {u128{0}, u128{1}, u128{kMersenne61 - 2},
                       u128{kMersenne61 - 1}, u128{kMersenne61},
                       (u128{1} << 120) - 1}) {
      EXPECT_EQ(shape.FingerprintPower(index),
                testkit::FingerprintPowerRef(shape, index));
    }
  }
}

TEST(KernelTest, PowerFromExpConsistentWithPrepare) {
  SSparseShape shape((u128{1} << 100), 2, 2, 4, 5);
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    u128 index = RandomU128(rng) & ((u128{1} << 100) - 1);
    const PreparedCoord pc = PrepareCoord(index);
    EXPECT_EQ(shape.FingerprintPowerFromExp(pc.exponent),
              shape.FingerprintPower(index));
  }
}

TEST(KernelTest, ShortExponentPowerMatchesReferences) {
  // PowerFromExp stops at the exponent's top nonzero byte. Check it against
  // binary exponentiation and the all-windows product for exponents of
  // every byte length 0..8, with and without interior zero bytes. An
  // 8-byte exponent stays below p - 1 < 2^61, so its top byte is <= 0x1f.
  const FingerprintBasis basis(0x1234567890abcdeULL);
  Rng rng(8);
  for (int len = 0; len <= 8; ++len) {
    for (int i = 0; i < 400; ++i) {
      uint64_t e = 0;
      for (int b = 0; b < len; ++b) {
        uint64_t byte = rng.Next() & 0xff;
        if (b == len - 1) {
          byte = len == 8 ? 1 + rng.Below(0x1f) : 1 + rng.Below(0xff);
        } else if (i % 2 == 1) {
          byte = 0;  // every interior byte zero: 0x0100..00 style
        } else if (rng.Below(3) == 0) {
          byte = 0;  // a scattering of interior zero bytes
        }
        e |= byte << (8 * b);
      }
      ASSERT_LT(e, kMersenne61 - 1);
      const int top = e == 0 ? 0 : (64 - __builtin_clzll(e) + 7) / 8;
      ASSERT_EQ(top, len) << "exponent " << e;
      ASSERT_EQ(basis.PowerFromExp(e), testkit::PowerRef(basis, e))
          << "len " << len << " exponent " << e;
      ASSERT_EQ(basis.PowerFromExp(e), testkit::PowerAllWindows(basis, e))
          << "len " << len << " exponent " << e;
    }
  }
}

TEST(KernelTest, ResolveMatchesReferenceResolution) {
  // One resolution (level, cells, power) per key must equal the reference
  // hashes and the all-windows power, on rank-2 domains at n = 2^12 and
  // 2^16 (keys below 2^64: the mixer product is skipped) and on a domain
  // of 2^100 (high halves nonzero), for 2 and 3 rows.
  const u128 domains[] = {EdgeCodec(1u << 12, 2).DomainSize(),
                          EdgeCodec(1u << 16, 2).DomainSize(),
                          u128{1} << 100};
  for (int rows : {2, 3}) {
    SketchConfig config = SketchConfig::Light();
    config.rows = rows;
    for (const u128 domain : domains) {
      const L0Shape shape(domain, config, /*seed=*/61 + rows);
      Rng rng(62);
      for (int i = 0; i < 3000; ++i) {
        const u128 key = RandomU128(rng) % domain;
        const PreparedCoord pc = PrepareCoord(key);
        L0Resolved got, want;
        shape.Resolve(pc, &got);
        testkit::ResolveRef(shape, pc, &want);
        ASSERT_EQ(got.level, want.level);
        ASSERT_EQ(got.level, shape.LevelOf(key));
        ASSERT_EQ(got.power, want.power);
        for (int r = 0; r < rows; ++r) {
          ASSERT_EQ(got.cell[r], want.cell[r]) << "row " << r;
        }
      }
    }
  }
}

TEST(KernelTest, SharedBasisAgreesAcrossLevelShapes) {
  // All level shapes of one L0Shape share a fingerprint basis: same z,
  // same table, and thus identical powers.
  L0Shape shape(u128{1} << 60, SketchConfig::Default(), 42);
  Rng rng(43);
  for (int i = 0; i < 200; ++i) {
    u128 index = rng.Next() & ((u128{1} << 60) - 1);
    uint64_t expect = testkit::PowerRef(shape.basis(), index);
    for (int j = 0; j < shape.num_levels(); ++j) {
      ASSERT_EQ(shape.level_shape(j).FingerprintPower(index), expect);
    }
  }
}

TEST(KernelTest, LemireBucketInRangeAndExhaustsRange) {
  // The multiply-shift reduction must stay in [0, buckets) and hit every
  // bucket over enough random keys.
  for (int buckets : {1, 3, 4, 7, 16, 1000}) {
    SSparseShape shape((u128{1} << 90), 2, 3, buckets, 17);
    Rng rng(18);
    std::vector<int> seen(static_cast<size_t>(buckets), 0);
    for (int i = 0; i < 4000; ++i) {
      u128 index = RandomU128(rng) & ((u128{1} << 90) - 1);
      for (int r = 0; r < shape.rows(); ++r) {
        int b = shape.Bucket(r, index);
        ASSERT_GE(b, 0);
        ASSERT_LT(b, buckets);
        ++seen[static_cast<size_t>(b)];
      }
    }
    if (buckets <= 16) {
      for (int b = 0; b < buckets; ++b) {
        EXPECT_GT(seen[static_cast<size_t>(b)], 0) << "bucket " << b;
      }
    }
  }
}

TEST(KernelTest, LemireBucketDistributionIsUniform) {
  // Lemire reassigns keys to different buckets than `%` did, but the
  // distribution must stay (pairwise-hash) uniform: compare chi^2 of the
  // new reduction against the old `%` reference on the same hash values.
  const int kBuckets = 8;
  const int kKeys = 16000;
  SSparseShape shape((u128{1} << 80), 2, 1, kBuckets, 23);
  Rng rng(24);
  std::vector<int> lemire(kBuckets, 0), ref(kBuckets, 0);
  for (int i = 0; i < kKeys; ++i) {
    u128 index = RandomU128(rng) & ((u128{1} << 80) - 1);
    ++lemire[static_cast<size_t>(shape.Bucket(0, index))];
    ++ref[static_cast<size_t>(testkit::BucketRef(shape, 0, index))];
  }
  auto chi2 = [&](const std::vector<int>& counts) {
    double expect = static_cast<double>(kKeys) / kBuckets;
    double x = 0;
    for (int c : counts) x += (c - expect) * (c - expect) / expect;
    return x;
  };
  // 7 dof; 24.3 is the 0.001 quantile. Both reductions of the same
  // pairwise-independent hash should pass comfortably.
  EXPECT_LT(chi2(lemire), 30.0);
  EXPECT_LT(chi2(ref), 30.0);
}

TEST(KernelTest, PreparedUpdateMatchesPlainUpdate) {
  // The caller-prepared fast path (fold + exponent + power hoisted) must
  // leave bit-identical state to the plain per-update path.
  SSparseShape shape((u128{1} << 70), 4, 3, 8, 31);
  SSparseState plain(&shape), prepared(&shape);
  Rng rng(32);
  for (int i = 0; i < 500; ++i) {
    u128 index = RandomU128(rng) & ((u128{1} << 70) - 1);
    int64_t delta = (i % 3 == 0) ? -1 : 1;
    plain.Update(index, delta);
    const PreparedCoord pc = PrepareCoord(index);
    prepared.UpdatePrepared(pc, delta,
                            shape.FingerprintPowerFromExp(pc.exponent));
  }
  EXPECT_TRUE(plain == prepared);
}

TEST(KernelTest, ForestPreparedPathsAreBitIdentical) {
  // Update / UpdatePrepared / batched Process must all produce the same
  // sketch state.
  const size_t n = 64;
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.rounds = 3;
  auto stream =
      DynamicStream::WithChurn(Gnm(n, 300, 9), /*decoys=*/150, /*seed=*/10);
  SpanningForestSketch a(n, 2, 77, params), c(n, 2, 77, params),
      d(n, 2, 77, params);
  for (const auto& up : stream.updates()) {
    a.Update(up.edge, up.delta);
    c.UpdatePrepared(up.edge, PrepareCoord(c.codec().Encode(up.edge)),
                     up.delta);
  }
  d.Process(stream);
  EXPECT_TRUE(a.StateEquals(c));
  EXPECT_TRUE(a.StateEquals(d));
}

TEST(KernelTest, BatchedIngestBitIdenticalAcrossThreadCounts) {
  // Re-check of the determinism contract on the new kernel: the sharded
  // parallel engine must be bit-identical for threads in {1, 2, 8}.
  const size_t n = 128;
  auto stream =
      DynamicStream::WithChurn(Gnm(n, 600, 3), /*decoys=*/300, /*seed=*/4);
  ForestSketchParams base;
  base.config = SketchConfig::Light();
  base.rounds = 4;
  SpanningForestSketch reference(n, 2, 55, base);
  reference.Process(stream);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const ForestSketchParams params =
        ForestSketchParams::Builder(base).Threads(threads).Build();
    SpanningForestSketch sketch(n, 2, 55, params);
    sketch.Process(stream);
    EXPECT_TRUE(reference.StateEquals(sketch)) << "threads=" << threads;
  }
}

// A hybrid-phase stream of rank <= max_rank over n vertices: a hub star
// past the sparse threshold (so the hub escalates mid-stream), then random
// hyperedges, a third of them deleted again.
std::vector<StreamUpdate> MixedPhaseStream(size_t n, size_t max_rank,
                                           uint32_t threshold, uint64_t seed) {
  std::vector<StreamUpdate> out;
  for (VertexId v = 1; v < threshold + 20 && v < n; ++v) {
    out.emplace_back(Hyperedge{0, v}, +1);
  }
  Rng rng(seed);
  std::vector<Hyperedge> edges;
  for (int i = 0; i < 300; ++i) {
    const size_t rank = 2 + rng.Below(max_rank - 1);
    std::vector<VertexId> vs;
    while (vs.size() < rank) {
      const VertexId v = static_cast<VertexId>(rng.Below(n));
      if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
    }
    edges.emplace_back(std::move(vs));
    out.emplace_back(edges.back(), +1);
  }
  for (size_t i = 0; i < edges.size(); i += 3) out.emplace_back(edges[i], -1);
  return out;
}

// Feed `updates` to `sketch` through per-vertex ApplyUpdateBatch gutters of
// `batch` entries, flushing full gutters in stream order and the rest at
// the end (the ingest plane's contract).
void ApplyInGutters(SpanningForestSketch* sketch,
                    const std::vector<StreamUpdate>& updates, size_t n,
                    size_t batch) {
  std::vector<std::vector<VertexUpdate>> gutters(n);
  for (const StreamUpdate& up : updates) {
    const PreparedCoord pc = PrepareCoord(sketch->codec().Encode(up.edge));
    for (const VertexId v : up.edge) {
      std::vector<VertexUpdate>& g = gutters[v];
      g.push_back(VertexUpdate{pc, 1, IncidenceCoefficient(up.edge, v) *
                                          up.delta});
      if (g.size() == batch) {
        sketch->ApplyUpdateBatch(v, g);
        g.clear();
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (!gutters[v].empty()) sketch->ApplyUpdateBatch(v, gutters[v]);
  }
}

std::vector<uint8_t> FrameOf(const SpanningForestSketch& sketch) {
  std::vector<uint8_t> out;
  sketch.Serialize(&out);
  return out;
}

TEST(KernelTest, ResolvedWritePathsGiveIdenticalFrames) {
  // Every write path that resolves a key once and shares the resolution
  // between its prefetch and its write -- ApplyUpdateBatch below and above
  // the prefetch cutoff, Process at 1 and 3 threads -- must leave the
  // serial UpdatePrepared frame byte for byte, on a hybrid sketch with
  // sparse and escalated columns. Cases: 70 explicit rounds (more than the
  // small-batch path's stack tile of rounds), 3 and 4 rows, rank 3.
  struct Case {
    int rows;
    int rounds;
    size_t max_rank;
  };
  const Case cases[] = {{2, 70, 2}, {3, 0, 3}, {4, 20, 2}};
  const size_t n = 64;
  for (const Case& c : cases) {
    ForestSketchParams params;
    params.config = SketchConfig::Light();
    params.config.rows = c.rows;
    params.rounds = c.rounds;
    const std::vector<StreamUpdate> updates = MixedPhaseStream(
        n, c.max_rank, params.config.sparse_threshold, /*seed=*/71 + c.rows);
    SpanningForestSketch reference(n, c.max_rank, 73, params);
    for (const StreamUpdate& up : updates) {
      reference.UpdatePrepared(
          up.edge, PrepareCoord(reference.codec().Encode(up.edge)), up.delta);
    }
    ASSERT_TRUE(reference.VertexEscalated(0)) << "rows " << c.rows;
    bool some_sparse = false;
    for (VertexId v = 1; v < n; ++v) {
      some_sparse = some_sparse || !reference.VertexEscalated(v);
    }
    ASSERT_TRUE(some_sparse) << "rows " << c.rows;
    const std::vector<uint8_t> want = FrameOf(reference);
    for (size_t batch : {size_t{1}, size_t{8}, size_t{9}, size_t{64}}) {
      SpanningForestSketch sketch(n, c.max_rank, 73, params);
      ApplyInGutters(&sketch, updates, n, batch);
      EXPECT_EQ(FrameOf(sketch), want)
          << "rows " << c.rows << " batch " << batch;
    }
    for (size_t threads : {size_t{1}, size_t{3}}) {
      SpanningForestSketch sketch(
          n, c.max_rank, 73,
          ForestSketchParams::Builder(params).Threads(threads).Build());
      sketch.Process(updates);
      EXPECT_EQ(FrameOf(sketch), want)
          << "rows " << c.rows << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace gms
