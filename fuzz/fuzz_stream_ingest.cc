// Structure-aware harness for stream ingestion: bytes decode (totally --
// every input is valid) to a bounded dynamic stream via
// testkit::DecodeFuzzStream, which is then pushed through every sketch
// type. The decoded stream deliberately bypasses DynamicStream::Validate:
// multiplicities may go negative or above one, which a LINEAR sketch must
// tolerate without crashing (queries may fail, decode may fail, but
// ingestion is just coordinate arithmetic).
//
// Invariants checked per input:
//   - ingestion and every query return without crashing,
//   - processing is order-invariant (reversed stream -> equal state),
//   - serialize -> deserialize round trips to equal state,
//   - extracted edges decode into the codec domain.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/edge_codec.h"
#include "sketch/l0_sampler.h"
#include "sparsify/sparsifier_sketch.h"
#include "testkit/corpus.h"
#include "util/check.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"

namespace {

using gms::testkit::DecodedFuzzStream;

// Throughput matters here (10k inputs per smoke run on one core), and the
// ingestion/extraction code paths do not get longer with more Borůvka
// rounds or heavier configs -- so every sketch is built as small as the
// API allows.
gms::ForestSketchParams TinyForestParams() {
  gms::ForestSketchParams p;
  p.config = gms::SketchConfig::Light();
  p.rounds = 2;
  return p;
}

gms::VcQueryParams SmallVcParams() {
  gms::VcQueryParams p;
  p.k = 1;
  p.explicit_r = 2;
  p.forest = TinyForestParams();
  return p;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  DecodedFuzzStream in =
      gms::testkit::DecodeFuzzStream(std::span<const uint8_t>(data, size));
  const uint64_t seed = 1 + (size > 2 ? data[2] : 0);
  std::span<const gms::StreamUpdate> updates(in.updates);

  // The VC and sparsifier stacks cost an order of magnitude more to build
  // than they add in decode coverage (their ingestion is the same L0 cell
  // arithmetic as the forest sketch), so run them on a deterministic
  // quarter of inputs to keep the 10k-iteration smoke budget fast.
  uint64_t digest = 0;
  for (size_t i = 0; i < size; ++i) digest = digest * 131 + data[i];
  const bool heavy = digest % 4 == 0;

  {
    gms::SpanningForestSketch forest(in.n, in.max_rank, seed,
                                     TinyForestParams());
    forest.Process(updates);

    // Linearity: the state is a sum over updates, so order cannot matter.
    gms::SpanningForestSketch reversed(in.n, in.max_rank, seed,
                                       TinyForestParams());
    std::vector<gms::StreamUpdate> rev(in.updates.rbegin(),
                                       in.updates.rend());
    reversed.Process(std::span<const gms::StreamUpdate>(rev));
    GMS_CHECK_MSG(forest.StateEquals(reversed),
                  "forest ingestion is order-dependent");

    std::vector<uint8_t> bytes;
    forest.Serialize(&bytes);
    gms::Result<gms::SpanningForestSketch> redo =
        gms::SpanningForestSketch::Deserialize(bytes);
    GMS_CHECK(redo.ok());
    GMS_CHECK(forest.StateEquals(*redo));

    gms::Result<gms::Hypergraph> g = forest.ExtractSpanningGraph();
    if (g.ok()) {
      GMS_CHECK(g->NumVertices() == in.n);
      gms::EdgeCodec codec(in.n, in.max_rank);
      for (const gms::Hyperedge& e : g->Edges()) {
        GMS_CHECK(e.size() <= in.max_rank);
        GMS_CHECK(codec.Encode(e) < codec.DomainSize());
      }
    }
  }
  {
    gms::KSkeletonSketch skeleton(in.n, in.max_rank, 2, seed + 1,
                                  TinyForestParams());
    skeleton.Process(updates);
    std::vector<uint8_t> bytes;
    skeleton.Serialize(&bytes);
    gms::Result<gms::KSkeletonSketch> redo =
        gms::KSkeletonSketch::Deserialize(bytes);
    GMS_CHECK(redo.ok());
    GMS_CHECK(skeleton.StateEquals(*redo));
    (void)skeleton.Extract();
  }
  {
    gms::L0Sampler sampler(gms::EdgeCodec(in.n, in.max_rank).DomainSize(),
                           gms::SketchConfig::Light(), seed + 2);
    gms::EdgeCodec codec(in.n, in.max_rank);
    for (const gms::StreamUpdate& u : in.updates) {
      sampler.Update(codec.Encode(u.edge), u.delta);
    }
    gms::Result<gms::SparseEntry> sample = sampler.Sample();
    if (sample.ok()) {
      GMS_CHECK(sample->index < codec.DomainSize());
      GMS_CHECK(codec.Decode(sample->index).ok());
    }
  }
  if (heavy) {
    gms::HyperVcQuerySketch vc(in.n, in.max_rank, SmallVcParams(), seed + 3);
    vc.Process(updates);
    auto snap = vc.Query();
    if (snap.ok()) (void)snap.value().Disconnects({0});
  }
  if (heavy) {
    // The graph-only VC sketch ingests the 2-uniform sub-stream.
    gms::VcQuerySketch vc(in.n, SmallVcParams(), seed + 4);
    for (const gms::StreamUpdate& u : in.updates) {
      if (u.edge.IsGraphEdge()) vc.Update(u.edge.AsEdge(), u.delta);
    }
    auto snap = vc.Query();
    if (snap.ok()) (void)snap.value().Disconnects({0});
  }
  if (heavy) {
    gms::SparsifierParams p;
    p.levels = 2;
    p.k = 2;
    p.forest = TinyForestParams();
    gms::HypergraphSparsifierSketch sp(in.n, in.max_rank, p, seed + 5);
    sp.Process(updates);
    (void)sp.ExtractSparsifier();
  }
  return 0;
}
