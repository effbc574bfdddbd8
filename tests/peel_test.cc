// Peeled-extraction differential suite (runs in the tsan preset by its
// Extraction* suite names).
//
// The production queries decode G - F (F a known edge multiset) through a
// per-call overlay on the const sketch; testkit/peel_reference.h keeps the
// copy path it replaced (copy, RemoveHyperedges(F), decode) as the oracle.
// Every case asserts the same Hypergraph and the same decision counters
// (rounds_run, sample_attempts, decode_attempts, edges_found, early_exit,
// groups_per_round); summed_words is path work and may differ.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "apps/two_edge_connect.h"
#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "reconstruct/light_recovery.h"
#include "stream/stream.h"
#include "testkit/peel_reference.h"
#include "testkit/stream_spec.h"
#include "util/random.h"

namespace gms {
namespace {

using testkit::BuiltStream;
using testkit::Churn;
using testkit::Family;
using testkit::PeelByCopy;
using testkit::StreamSpec;

constexpr uint32_t kThresholds[] = {0, 4, 32};
constexpr size_t kThreads[] = {1, 4};

ForestSketchParams Params(uint32_t threshold, size_t threads) {
  SketchConfig config = SketchConfig::Light();
  config.sparse_threshold = threshold;
  return ForestSketchParams::Builder()
      .Config(config)
      .Threads(threads)
      .Build();
}

// The determinism suite's stream families: graph churn, an expander under
// all three churn schedules, rmat, temporal churn, rank-3 and rank-4
// hypercycles.
std::vector<StreamSpec> PeelSpecs() {
  std::vector<StreamSpec> specs;
  auto add = [&](Family family, uint32_t n, Churn churn, uint32_t decoys) {
    StreamSpec spec;
    spec.family = family;
    spec.n = n;
    spec.churn = churn;
    spec.decoys = decoys;
    specs.push_back(spec);
    return &specs.back();
  };
  add(Family::kGnm, 64, Churn::kWithChurn, 128)->m = 192;
  add(Family::kExpander, 64, Churn::kInsertOnly, 0)->k = 3;
  add(Family::kExpander, 64, Churn::kWithChurn, 128)->k = 3;
  add(Family::kExpander, 64, Churn::kDeleteDown, 96)->k = 3;
  add(Family::kRmat, 64, Churn::kWithChurn, 64)->m = 160;
  add(Family::kTemporalChurn, 48, Churn::kInsertOnly, 64)->m = 96;
  add(Family::kHyperCycle, 48, Churn::kWithChurn, 48)->rank = 3;
  add(Family::kHyperCycle, 40, Churn::kWithChurn, 40)->rank = 4;
  return specs;
}

void ExpectSameDecode(const QueryResult<Hypergraph>& got,
                      const QueryResult<Hypergraph>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) return;
  EXPECT_TRUE(got.value() == want.value());
  EXPECT_EQ(got.stats().rounds_run, want.stats().rounds_run);
  EXPECT_EQ(got.stats().early_exit, want.stats().early_exit);
  EXPECT_EQ(got.stats().sample_attempts, want.stats().sample_attempts);
  EXPECT_EQ(got.stats().decode_attempts, want.stats().decode_attempts);
  EXPECT_EQ(got.stats().edges_found, want.stats().edges_found);
  EXPECT_EQ(got.stats().groups_per_round, want.stats().groups_per_round);
}

// Peel sets for one sketch: the spanning graph of an independent sketch
// of the same stream (the TwoEdgeConnect shape), a seeded half of the
// final edges, and that half with every edge listed twice.
std::vector<std::vector<Hyperedge>> PeelSets(const BuiltStream& built,
                                             const SpanningForestSketch& base,
                                             uint64_t seed) {
  std::vector<std::vector<Hyperedge>> sets;
  SpanningForestSketch other(base.n(), base.max_rank(), seed ^ 0x5eed,
                             Params(base.sparse_threshold(), 1));
  other.Process(built.stream);
  auto f1 = other.Query();
  if (f1.ok()) sets.push_back(f1.value().Edges());
  Rng rng(seed);
  std::vector<Hyperedge> half, twice;
  for (const Hyperedge& e : built.final_graph.Edges()) {
    if (rng.Below(2) == 0) continue;
    half.push_back(e);
    twice.push_back(e);
    twice.push_back(e);
  }
  sets.push_back(half);
  sets.push_back(twice);
  return sets;
}

TEST(ExtractionPeelTest, PeeledQueryMatchesCopyAcrossStreamsPhasesThreads) {
  uint64_t seed = 101;
  for (const StreamSpec& spec : PeelSpecs()) {
    BuiltStream built = spec.Build();
    for (uint32_t threshold : kThresholds) {
      for (size_t threads : kThreads) {
        SCOPED_TRACE(spec.ToString() + " T=" + std::to_string(threshold) +
                     " threads=" + std::to_string(threads));
        SpanningForestSketch sketch(spec.n, built.max_rank, seed,
                                    Params(threshold, threads));
        sketch.Process(built.stream);
        for (const auto& peel : PeelSets(built, sketch, seed)) {
          ExpectSameDecode(sketch.Query(threads, peel),
                           PeelByCopy(sketch, peel, threads));
        }
        ++seed;
      }
    }
  }
}

TEST(ExtractionPeelTest, ActiveSubsetMatchesCopy) {
  // The vertex-subsampled shape of VcQuerySketch: state only for a seeded
  // half of the vertices; the stream and the peel set stay inside it.
  StreamSpec spec;
  spec.family = Family::kExpander;
  spec.n = 96;
  spec.k = 4;
  spec.churn = Churn::kWithChurn;
  spec.decoys = 192;
  BuiltStream built = spec.Build();
  Rng rng(7);
  std::vector<bool> active(spec.n);
  for (size_t v = 0; v < spec.n; ++v) active[v] = rng.Below(2) == 0;
  auto inside = [&](const Hyperedge& e) {
    for (VertexId v : e) {
      if (!active[v]) return false;
    }
    return true;
  };
  DynamicStream sub;
  for (const StreamUpdate& u : built.stream.updates()) {
    if (inside(u.edge)) sub.Push(u.edge, u.delta);
  }
  std::vector<Hyperedge> peel;
  for (const Hyperedge& e : built.final_graph.Edges()) {
    if (inside(e) && rng.Below(3) != 0) peel.push_back(e);
  }
  ASSERT_FALSE(peel.empty());
  for (uint32_t threshold : kThresholds) {
    for (size_t threads : kThreads) {
      SCOPED_TRACE("T=" + std::to_string(threshold) +
                   " threads=" + std::to_string(threads));
      SpanningForestSketch sketch(spec.n, 2, /*seed=*/9,
                                  Params(threshold, threads), &active);
      sketch.Process(sub);
      ExpectSameDecode(sketch.Query(threads, peel),
                       PeelByCopy(sketch, peel, threads));
    }
  }
}

// A star around vertex 0 with `c` spokes, so vertex 0's counter is c; a
// ring over the leaves keeps the rest of the graph connected.
BuiltStream StarWithRing(uint32_t n, uint32_t c) {
  BuiltStream built;
  built.final_graph = Hypergraph(n);
  for (VertexId v = 1; v <= c; ++v) built.final_graph.AddEdge({0, v});
  for (VertexId v = 1; v + 1 < n; ++v) {
    built.final_graph.AddEdge({v, v + 1});
  }
  for (const Hyperedge& e : built.final_graph.Edges()) {
    built.stream.Push(e, +1);
  }
  return built;
}

TEST(ExtractionPeelTest, PhaseFlipsExactlyPastTheThreshold) {
  // Vertex 0 holds c = 3 buffered spokes under T = 6. Peeling d edges at
  // vertex 0 leaves it sparse at c + d = T and escalates it at T + 1 --
  // whether the peeled edges cancel buffered keys (spokes) or add new
  // ones (non-edges).
  constexpr uint32_t kN = 16, kC = 3, kT = 6;
  BuiltStream built = StarWithRing(kN, kC);
  for (size_t threads : kThreads) {
    SpanningForestSketch sketch(kN, 2, /*seed=*/21, Params(kT, threads));
    sketch.Process(built.stream);
    ASSERT_FALSE(sketch.VertexEscalated(0));
    for (uint32_t d : {kT - kC, kT - kC + 1}) {
      for (bool cancel : {true, false}) {
        SCOPED_TRACE("d=" + std::to_string(d) + " cancel=" +
                     std::to_string(cancel) +
                     " threads=" + std::to_string(threads));
        std::vector<Hyperedge> peel;
        for (uint32_t i = 0; i < d; ++i) {
          // Spokes 1..c cancel buffered keys; 8.. are absent edges.
          const VertexId leaf = cancel && i < kC ? 1 + i : 8 + i;
          peel.push_back(Hyperedge{0, leaf});
        }
        SpanningForestSketch copy = sketch;
        copy.RemoveHyperedges(peel);
        EXPECT_EQ(copy.VertexEscalated(0), kC + d > kT);
        ExpectSameDecode(sketch.Query(threads, peel),
                         PeelByCopy(sketch, peel, threads));
      }
    }
  }
}

TEST(ExtractionPeelTest, CancelledKeyLeavesTheDecode) {
  // Peeling the only edge into vertex 5 cancels its buffered key at both
  // endpoints: the residual has vertex 5 isolated, and the peeled decode
  // must agree with the copy on that.
  BuiltStream built;
  built.final_graph = Hypergraph(8);
  for (VertexId v = 0; v + 1 < 5; ++v) built.final_graph.AddEdge({v, v + 1});
  built.final_graph.AddEdge({4, 5});
  built.final_graph.AddEdge({6, 7});
  for (const Hyperedge& e : built.final_graph.Edges()) {
    built.stream.Push(e, +1);
  }
  const std::vector<Hyperedge> peel = {Hyperedge{4, 5}};
  for (uint32_t threshold : kThresholds) {
    SpanningForestSketch sketch(8, 2, /*seed=*/23, Params(threshold, 1));
    sketch.Process(built.stream);
    auto peeled = sketch.Query(1, peel);
    ASSERT_TRUE(peeled.ok());
    EXPECT_FALSE(peeled.value().HasEdge(Hyperedge{4, 5}));
    ExpectSameDecode(peeled, PeelByCopy(sketch, peel, 1));
  }
}

TEST(ExtractionPeelTest, EmptyPeelIsThePlainQuery) {
  StreamSpec spec;
  spec.family = Family::kExpander;
  spec.n = 64;
  spec.k = 3;
  BuiltStream built = spec.Build();
  SpanningForestSketch sketch(spec.n, 2, /*seed=*/25, Params(4, 1));
  sketch.Process(built.stream);
  ExpectSameDecode(sketch.Query(1, {}), sketch.Query(1));
  ExpectSameDecode(sketch.Query(1, {}), PeelByCopy(sketch, {}, 1));
}

TEST(ExtractionPeelTest, ConcurrentPeeledQueriesOnOneSketchAgree) {
  // Overlay and scratch are per call: several threads decoding the same
  // const sketch with different peel sets must each match the serial
  // answer (tsan checks the sharing).
  StreamSpec spec;
  spec.family = Family::kExpander;
  spec.n = 64;
  spec.k = 3;
  spec.churn = Churn::kWithChurn;
  spec.decoys = 128;
  BuiltStream built = spec.Build();
  SpanningForestSketch sketch(spec.n, 2, /*seed=*/27, Params(4, 2));
  sketch.Process(built.stream);
  const auto sets = PeelSets(built, sketch, 27);
  std::vector<QueryResult<Hypergraph>> want;
  for (const auto& peel : sets) want.push_back(sketch.Query(0, peel));
  std::vector<std::thread> workers;
  std::vector<std::vector<Hypergraph>> got(4);
  for (size_t w = 0; w < got.size(); ++w) {
    workers.emplace_back([&, w] {
      for (int rep = 0; rep < 3; ++rep) {
        for (const auto& peel : sets) {
          auto q = sketch.Query(0, peel);
          if (q.ok()) got[w].push_back(q.value());
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& answers : got) {
    ASSERT_EQ(answers.size(), 3 * sets.size());
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_TRUE(answers[i] == want[i % sets.size()].value());
    }
  }
}

// ---------- the three former copy sites against their copy oracles ----

TEST(ExtractionPeelTest, KSkeletonMatchesCopyForEveryK) {
  for (const StreamSpec& spec : PeelSpecs()) {
    BuiltStream built = spec.Build();
    for (uint32_t threshold : kThresholds) {
      for (size_t k = 1; k <= 4; ++k) {
        SCOPED_TRACE(spec.ToString() + " T=" + std::to_string(threshold) +
                     " k=" + std::to_string(k));
        KSkeletonSketch sketch(spec.n, built.max_rank, k, /*seed=*/31 + k,
                               Params(threshold, k % 2 == 0 ? 4 : 1));
        sketch.Process(built.stream);
        ExpectSameDecode(sketch.Query(), PeelByCopy(sketch, {}));
        // A nonempty pre-peel (the light-recovery shape).
        std::vector<Hyperedge> pre;
        const auto& edges = built.final_graph.Edges();
        for (size_t i = 0; i < edges.size(); i += 3) pre.push_back(edges[i]);
        ExtractStats stats;
        auto peeled = sketch.Extract(&stats, pre);
        auto want = PeelByCopy(sketch, pre);
        ASSERT_EQ(peeled.ok(), want.ok());
        if (!peeled.ok()) continue;
        EXPECT_TRUE(*peeled == want.value());
        EXPECT_EQ(stats.rounds_run, want.stats().rounds_run);
        EXPECT_EQ(stats.sample_attempts, want.stats().sample_attempts);
        EXPECT_EQ(stats.decode_attempts, want.stats().decode_attempts);
        EXPECT_EQ(stats.edges_found, want.stats().edges_found);
      }
    }
  }
}

TEST(ExtractionPeelTest, TwoEdgeConnectMatchesCopy) {
  for (const StreamSpec& spec : PeelSpecs()) {
    BuiltStream built = spec.Build();
    for (uint32_t threshold : kThresholds) {
      for (size_t threads : kThreads) {
        SCOPED_TRACE(spec.ToString() + " T=" + std::to_string(threshold) +
                     " threads=" + std::to_string(threads));
        apps::TwoEdgeConnect app(spec.n, built.max_rank, /*seed=*/41,
                                 Params(threshold, threads));
        app.Process(built.stream);
        auto got = app.Query();
        auto want = testkit::TwoEdgeConnectByCopy(app);
        ASSERT_EQ(got.ok(), want.ok());
        if (!got.ok()) continue;
        EXPECT_TRUE(got.value().skeleton == want.value().skeleton);
        EXPECT_EQ(got.value().bridges, want.value().bridges);
        EXPECT_EQ(got.value().num_components, want.value().num_components);
        EXPECT_EQ(got.value().two_edge_connected,
                  want.value().two_edge_connected);
        EXPECT_EQ(got.stats().sample_attempts, want.stats().sample_attempts);
        EXPECT_EQ(got.stats().decode_attempts, want.stats().decode_attempts);
        EXPECT_EQ(got.stats().edges_found, want.stats().edges_found);
      }
    }
  }
}

void ExpectSameRecovery(const Result<LightRecoveryResult>& got,
                        const Result<LightRecoveryResult>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (!got.ok()) return;
  EXPECT_EQ(got->layers, want->layers);
  EXPECT_TRUE(got->light == want->light);
  EXPECT_EQ(got->residual_nonempty, want->residual_nonempty);
}

TEST(ExtractionPeelTest, LightRecoveryMatchesCopy) {
  // Small cut-degenerate and not-so-degenerate inputs, with and without a
  // pre-subtracted set (the sparsifier's per-level call).
  std::vector<StreamSpec> specs = PeelSpecs();
  for (StreamSpec& spec : specs) spec.n = std::min<uint32_t>(spec.n, 24);
  for (const StreamSpec& spec : specs) {
    BuiltStream built = spec.Build();
    for (uint32_t threshold : {0u, 4u}) {
      SCOPED_TRACE(spec.ToString() + " T=" + std::to_string(threshold));
      LightRecoverySketch sketch(spec.n, built.max_rank, /*k=*/2,
                                 /*seed=*/51, Params(threshold, 1));
      sketch.Process(built.stream);
      ExpectSameRecovery(sketch.Recover(), testkit::LightRecoverByCopy(sketch));
      std::vector<Hyperedge> pre;
      const auto& edges = built.final_graph.Edges();
      for (size_t i = 0; i < edges.size(); i += 4) pre.push_back(edges[i]);
      ExpectSameRecovery(sketch.Recover(pre),
                         testkit::LightRecoverByCopy(sketch, pre));
    }
  }
}

}  // namespace
}  // namespace gms
