// Unit tests for the testkit itself: StreamSpec serialization and build
// determinism, Wilson intervals, the differential oracles (including the
// fault-injection hook), the delta-debugging shrinker, and the fuzz corpus
// codec. The shrinker demo here is the ISSUE's acceptance scenario: inject
// a lost-update bug, hand the failing churn stream to ShrinkStream, and
// get back a repro of at most a handful of edges.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "graph/traversal.h"
#include "testkit/corpus.h"
#include "testkit/oracle.h"
#include "testkit/shrink.h"
#include "testkit/stream_spec.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {
namespace testkit {
namespace {

// ---------- StreamSpec ----------

TEST(StreamSpecTest, ToStringParseRoundTripsEveryGridSpec) {
  for (const StreamSpec& spec : DefaultSpecGrid()) {
    const std::string line = spec.ToString();
    Result<StreamSpec> parsed = StreamSpec::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line << " :: " << parsed.status().ToString();
    EXPECT_EQ(*parsed, spec) << line;
  }
}

TEST(StreamSpecTest, ParseRejectsGarbage) {
  EXPECT_FALSE(StreamSpec::Parse("").ok());
  EXPECT_FALSE(StreamSpec::Parse("gms-spec-v2;family=path;n=4").ok());
  EXPECT_FALSE(StreamSpec::Parse("gms-spec-v1;family=flat_torus;n=4").ok());
  EXPECT_FALSE(StreamSpec::Parse("gms-spec-v1;family=path;n=banana").ok());
  EXPECT_FALSE(StreamSpec::Parse("gms-spec-v1;familia=path").ok());
}

TEST(StreamSpecTest, BuildIsDeterministicAndValid) {
  for (const StreamSpec& spec : DefaultSpecGrid()) {
    BuiltStream a = spec.Build();
    BuiltStream b = spec.Build();
    ASSERT_TRUE(a.stream.Validate()) << spec.ToString();
    EXPECT_EQ(a.stream.updates(), b.stream.updates()) << spec.ToString();
    EXPECT_EQ(a.max_rank, b.max_rank);
    // The stream's final graph is the family's final graph.
    Hypergraph mat = a.stream.Materialize(spec.n);
    EXPECT_EQ(mat.NumEdges(), a.final_graph.NumEdges()) << spec.ToString();
    for (const Hyperedge& e : a.final_graph.Edges()) {
      EXPECT_TRUE(mat.HasEdge(e)) << spec.ToString();
    }
  }
}

TEST(StreamSpecTest, WithTrialIsDeterministicAndSeedDistinct) {
  StreamSpec base;
  base.family = Family::kErdosRenyi;
  base.n = 16;
  EXPECT_EQ(base.WithTrial(3), base.WithTrial(3));
  EXPECT_NE(base.WithTrial(3), base.WithTrial(4));
  std::set<uint64_t> gseeds;
  for (uint64_t t = 0; t < 64; ++t) gseeds.insert(base.WithTrial(t).gseed);
  EXPECT_EQ(gseeds.size(), 64u) << "trial derivation collided";
}

TEST(StreamSpecTest, ChurnSchedulesShareTheFinalGraph) {
  for (Churn churn : {Churn::kInsertOnly, Churn::kWithChurn,
                      Churn::kDeleteDown}) {
    StreamSpec spec;
    spec.family = Family::kRandomUniform;
    spec.n = 14;
    spec.m = 20;
    spec.rank = 3;
    spec.churn = churn;
    spec.decoys = 8;
    BuiltStream built = spec.Build();
    ASSERT_TRUE(built.stream.Validate()) << spec.ToString();
    Hypergraph mat = built.stream.Materialize(spec.n);
    EXPECT_EQ(mat.NumEdges(), built.final_graph.NumEdges()) << spec.ToString();
  }
}

// ---------- Wilson intervals ----------

TEST(WilsonTest, ZeroTrialsIsVacuous) {
  WilsonInterval w = Wilson(0, 0);
  EXPECT_EQ(w.lo, 0.0);
  EXPECT_EQ(w.hi, 1.0);
}

TEST(WilsonTest, PerfectRecordStillAdmitsHighRates) {
  WilsonInterval w = Wilson(32, 32);
  EXPECT_NEAR(w.lo, 0.8928, 1e-3);  // 32/32 does not prove p > 0.9
  EXPECT_EQ(w.hi, 1.0);
  EXPECT_TRUE(w.Contains(0.95));
}

TEST(WilsonTest, TotalFailureExcludesHighRates) {
  WilsonInterval w = Wilson(0, 100);
  EXPECT_LT(w.hi, 0.05);
  EXPECT_FALSE(w.Contains(0.5));
}

TEST(WilsonTest, CenteredCaseContainsTruth) {
  EXPECT_TRUE(Wilson(5, 10).Contains(0.5));
  EXPECT_TRUE(Wilson(9, 10).Contains(0.9));
  EXPECT_FALSE(Wilson(2, 100).Contains(0.5));
}

TEST(WilsonTest, SweepConsistency) {
  SweepResult r;
  r.trials = 32;
  r.successes = 32;
  EXPECT_TRUE(r.ConsistentWith(0.99));
  r.successes = 16;
  EXPECT_FALSE(r.ConsistentWith(0.99));
}

// ---------- Differential oracles ----------

TEST(OracleTest, ComponentsAgreesOnCleanStreams) {
  StreamSpec spec;
  spec.family = Family::kPath;
  spec.n = 20;
  for (uint64_t seed : {1, 2, 3, 5, 8}) {
    OracleOutcome out = RunOracle(OracleKind::kComponents, spec, seed);
    ASSERT_TRUE(out.applicable);
    EXPECT_TRUE(out.Succeeded()) << out.detail;
  }
}

TEST(OracleTest, FaultHookSurfacesLostUpdateAsDisagreement) {
  StreamSpec spec;
  spec.family = Family::kPath;
  spec.n = 20;
  OracleOptions opt;
  const Hyperedge target({9, 10});
  opt.fault.drop_update = [&](const StreamUpdate& u) {
    return u.edge == target;
  };
  OracleOutcome out = RunOracle(OracleKind::kComponents, spec, 7, opt);
  ASSERT_TRUE(out.applicable);
  EXPECT_FALSE(out.agreed);
  EXPECT_FALSE(out.decode_failure);
  // The detail line is a self-contained repro: oracle, seed, and spec.
  EXPECT_NE(out.detail.find("components"), std::string::npos) << out.detail;
  EXPECT_NE(out.detail.find("gms-spec-v1"), std::string::npos) << out.detail;
}

TEST(OracleTest, VcOracleSkipsHypergraphFamilies) {
  StreamSpec spec;
  spec.family = Family::kHyperCycle;
  spec.n = 12;
  spec.rank = 3;
  OracleOutcome out = RunOracle(OracleKind::kVcQuery, spec, 1);
  EXPECT_FALSE(out.applicable);
}

TEST(OracleTest, SweepCollectsFailureRepros) {
  StreamSpec spec;
  spec.family = Family::kCycle;
  spec.n = 12;
  OracleOptions opt;
  const Hyperedge target({3, 4});
  opt.fault.drop_update = [&](const StreamUpdate& u) {
    return u.edge == target;
  };
  SweepResult sweep = RunSweep(OracleKind::kComponents, spec, 8, opt);
  EXPECT_EQ(sweep.trials, 8u);
  // Dropping a cycle edge never changes the component count ... of the
  // TRUE graph; the sketch sees a path instead of a cycle, which is still
  // one component, so this fault is INVISIBLE to the components oracle.
  EXPECT_EQ(sweep.successes, 8u) << (sweep.failures.empty()
                                         ? ""
                                         : sweep.failures.front());
  // The spanning-graph oracle also cannot see it (a path is a valid
  // spanning subgraph), but the L0 oracle samples the lost edge with
  // positive probability; across seeds somebody notices. This asymmetry is
  // why the sweep matrix runs EVERY oracle over every family.
  SweepResult l0 = RunSweep(OracleKind::kL0Sampler, spec, 8, opt);
  EXPECT_EQ(l0.trials, 8u);
}

// ---------- Shrinker ----------

// The acceptance scenario: a decoder bug (simulated by a dropped update on
// the sketch side) makes the components oracle disagree on a 23-edge path
// stream with 16 decoy insert+delete pairs. The shrinker must reduce that
// to a repro of at most 16 edges -- in fact it lands on exactly one.
TEST(ShrinkTest, MinimizesInjectedDecoderBugToOneEdge) {
  StreamSpec spec;
  spec.family = Family::kPath;
  spec.n = 24;
  spec.churn = Churn::kWithChurn;
  spec.decoys = 16;
  BuiltStream built = spec.Build();
  ASSERT_GT(built.stream.size(), 50u);  // worth shrinking

  OracleOptions opt;
  const Hyperedge target({11, 12});
  opt.fault.drop_update = [&](const StreamUpdate& u) {
    return u.edge == target;
  };
  FailurePredicate still_fails = [&](size_t n, const DynamicStream& cand) {
    Hypergraph truth = cand.Materialize(n);
    OracleOutcome out = RunOracleOnStream(
        OracleKind::kComponents, n, 2, cand, truth, {}, /*sketch_seed=*/7,
        opt);
    return out.applicable && !out.Succeeded();
  };

  ShrinkResult shrunk = ShrinkStream(spec.n, built.stream, still_fails);
  EXPECT_FALSE(shrunk.budget_exhausted);
  EXPECT_LE(shrunk.distinct_edges, 16u);  // the ISSUE's acceptance bound
  EXPECT_EQ(shrunk.distinct_edges, 1u);   // what the passes actually achieve
  EXPECT_EQ(shrunk.stream.size(), 1u);
  EXPECT_EQ(shrunk.stream.updates()[0].edge, target);
  EXPECT_EQ(shrunk.n, 13u);  // tightened to max vertex id + 1
  EXPECT_TRUE(still_fails(shrunk.n, shrunk.stream));
  EXPECT_TRUE(shrunk.stream.Validate());
}

TEST(ShrinkTest, RespectsPredicateBudget) {
  StreamSpec spec;
  spec.family = Family::kPath;
  spec.n = 16;
  BuiltStream built = spec.Build();
  size_t calls = 0;
  // Contrived always-failing predicate: counts invocations. An
  // always-failing input converges in a handful of calls (each ddmin chunk
  // removal succeeds), so exhausting the budget needs one smaller than
  // even that: 2 covers only the input re-check plus one chunk probe.
  FailurePredicate pred = [&](size_t, const DynamicStream&) {
    ++calls;
    return true;
  };
  ShrinkResult shrunk = ShrinkStream(spec.n, built.stream, pred,
                                     /*max_predicate_calls=*/2);
  EXPECT_TRUE(shrunk.budget_exhausted);
  EXPECT_LE(shrunk.predicate_calls, 2u);
  EXPECT_EQ(calls, shrunk.predicate_calls);
  // Whatever was reached is still a valid failing stream.
  EXPECT_TRUE(shrunk.stream.Validate());
}

TEST(ShrinkTest, ChurnFlattensToNetEffect) {
  // A stream whose failure depends only on one edge's presence shrinks
  // through its insert+delete+reinsert churn to a single insert.
  DynamicStream stream;
  const Hyperedge e({0, 1});
  const Hyperedge decoy({2, 3});
  stream.Push(e, +1);
  stream.Push(decoy, +1);
  stream.Push(e, -1);
  stream.Push(decoy, -1);
  stream.Push(e, +1);
  ASSERT_TRUE(stream.Validate());
  FailurePredicate pred = [&](size_t n, const DynamicStream& cand) {
    return cand.Materialize(n).HasEdge(e);
  };
  ShrinkResult shrunk = ShrinkStream(4, stream, pred);
  EXPECT_EQ(shrunk.stream.size(), 1u);
  EXPECT_EQ(shrunk.stream.updates()[0].edge, e);
  EXPECT_EQ(shrunk.stream.updates()[0].delta, +1);
}

// ---------- Fuzz corpus codec ----------

TEST(CorpusTest, EncodeDecodeRoundTripsGridStreams) {
  size_t checked = 0;
  for (const StreamSpec& spec : DefaultSpecGrid()) {
    BuiltStream built = spec.Build();
    if (spec.n > 31 || built.max_rank > 4 ||
        built.stream.size() > kMaxFuzzUpdates) {
      continue;
    }
    std::vector<uint8_t> bytes =
        EncodeFuzzStream(spec.n, built.max_rank, built.stream);
    DecodedFuzzStream dec = DecodeFuzzStream(bytes);
    EXPECT_EQ(dec.n, spec.n) << spec.ToString();
    EXPECT_EQ(dec.max_rank, built.max_rank) << spec.ToString();
    EXPECT_EQ(dec.updates, built.stream.updates()) << spec.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 20u);  // the grid is mostly encodable by design
}

TEST(CorpusTest, DecodeIsTotalAndBounded) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.Below(200));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Below(256));
    DecodedFuzzStream dec = DecodeFuzzStream(bytes);
    EXPECT_GE(dec.n, 2u);
    EXPECT_LE(dec.n, 31u);
    EXPECT_GE(dec.max_rank, 2u);
    EXPECT_LE(dec.max_rank, 4u);
    EXPECT_LE(dec.updates.size(), kMaxFuzzUpdates);
    for (const StreamUpdate& u : dec.updates) {
      EXPECT_GE(u.edge.size(), 2u);
      EXPECT_LE(u.edge.size(), dec.max_rank);
      for (VertexId v : u.edge) EXPECT_LT(v, dec.n);
    }
  }
}

TEST(CorpusTest, WireSeedCorpusCoversEveryFrameType) {
  std::vector<CorpusEntry> entries = WireSeedCorpus();
  std::set<std::string> names;
  std::set<wire::FrameType> valid_types;
  for (const CorpusEntry& entry : entries) {
    EXPECT_TRUE(names.insert(entry.name).second)
        << "duplicate corpus name " << entry.name;
    Result<wire::FrameType> peek = wire::PeekFrameType(
        std::span<const uint8_t>(entry.bytes.data(), entry.bytes.size()));
    if (!peek.ok()) continue;  // deliberately corrupted entries
    Result<wire::Frame> frame = wire::ParseFrame(
        std::span<const uint8_t>(entry.bytes.data(), entry.bytes.size()),
        *peek);
    if (frame.ok()) valid_types.insert(*peek);
    // Entry names lead with the frame-type name.
    EXPECT_EQ(entry.name.rfind(wire::FrameTypeName(*peek), 0), 0u)
        << entry.name;
  }
  EXPECT_EQ(valid_types.size(), 6u)
      << "corpus must include a valid frame of every sketch type";
}

TEST(CorpusTest, StreamSeedCorpusIsNonTrivial) {
  std::vector<CorpusEntry> entries = StreamSeedCorpus();
  EXPECT_GE(entries.size(), 12u);
  for (const CorpusEntry& entry : entries) {
    DecodedFuzzStream dec = DecodeFuzzStream(entry.bytes);
    EXPECT_FALSE(dec.updates.empty()) << entry.name;
  }
}

TEST(CorpusTest, GeneratedCorporaAreDeterministic) {
  std::vector<CorpusEntry> a = WireSeedCorpus();
  std::vector<CorpusEntry> b = WireSeedCorpus();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].bytes, b[i].bytes) << a[i].name;
  }
}

}  // namespace
}  // namespace testkit
}  // namespace gms
