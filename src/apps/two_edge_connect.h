// 2-edge-connectivity composed from two independent spanning-graph
// sketches by forest peeling (DESIGN.md §14), the exemplar layering from
// GraphStreamingCC's TwoEdgeConnect: query the first sketch for a
// spanning graph F1, then query the second sketch with F1 LINEARLY peeled
// (a per-query overlay; no copy) for F2 -- a spanning graph of G - F1.
// H = F1 u F2 is a 2-skeleton of G (Definition 11 at k = 2): every cut of
// H has size min(cut_G, 2) whp, so G is 2-edge-connected iff H is, and
// the bridges of H are exactly the bridges of G (a G-cut of size 1
// survives into H as the same single hyperedge).
//
// The two sketches must be INDEPENDENT (distinct derived seeds): peeling
// F1 out of the sketch that produced it is the adaptive reuse Section 4.2
// warns about (see tests/adaptive_reuse_test.cc).
#ifndef GMS_APPS_TWO_EDGE_CONNECT_H_
#define GMS_APPS_TWO_EDGE_CONNECT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "stream/stream.h"

namespace gms {
namespace apps {

/// Everything one TwoEdgeConnect query decodes.
struct TwoEdgeConnectAnswer {
  /// The 2-skeleton certificate F1 u F2 (<= 2(n-1) hyperedges).
  Hypergraph skeleton;
  size_t num_components = 0;
  /// Bridges of the certificate = bridges of G (whp), in skeleton order.
  std::vector<Hyperedge> bridges;
  bool connected = false;
  /// connected && bridges.empty().
  bool two_edge_connected = false;
};

class TwoEdgeConnect {
 public:
  using Params = SpanningForestSketch::Params;

  /// Layer seeds derive from `seed` (Mix64-forked), so one public seed
  /// reproduces both sketches.
  TwoEdgeConnect(size_t n, size_t max_rank, uint64_t seed,
                 const Params& params = Params());

  size_t n() const { return layer1_.n(); }
  size_t max_rank() const { return layer1_.max_rank(); }

  void Update(const Hyperedge& e, int delta);
  /// Batched ingestion through the shared ingestion plane (stream/
  /// ingest_plane.h): encode + PrepareCoord + gutter routing happen ONCE
  /// per update, fanning each prepared batch out to both forest layers.
  /// With engine.threads > 1 the layers keep their own parallel paths
  /// instead. Bit-identical to ProcessIndependent for every setting.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);
  /// The pre-plane baseline (each layer re-encodes the updates itself);
  /// the comparison target for the determinism suite and the prepare_once
  /// bench rows.
  void ProcessIndependent(std::span<const StreamUpdate> updates);

  /// Ingest-plane hooks (stream/ingest_plane.h): both layers share the
  /// (n, max_rank) codec domain; every update fans out to both.
  const EdgeCodec& codec() const { return layer1_.codec(); }
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch) {
    layer1_.ApplyUpdateBatch(v, batch);
    layer2_.ApplyUpdateBatch(v, batch);
  }

  /// The unified non-destructive query: decode F1, decode F2 from layer 2
  /// with F1 as the peel set, report bridges of F1 u F2. The sketch itself
  /// is unchanged and never copied; stats sum both layer extractions.
  QueryResult<TwoEdgeConnectAnswer> Query() const;

  size_t MemoryBytes() const {
    return layer1_.MemoryBytes() + layer2_.MemoryBytes();
  }

  /// Zero both layers (the empty-stream measurement); for bench reps.
  void Clear();

  /// The raw layers, for frame-strength determinism checks and space
  /// accounting.
  const SpanningForestSketch& layer1() const { return layer1_; }
  const SpanningForestSketch& layer2() const { return layer2_; }

 private:
  Params params_;
  SpanningForestSketch layer1_;
  SpanningForestSketch layer2_;
};

}  // namespace apps
}  // namespace gms

#endif  // GMS_APPS_TWO_EDGE_CONNECT_H_
