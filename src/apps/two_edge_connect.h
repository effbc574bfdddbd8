// 2-edge-connectivity as a query on one k-skeleton sketch at k = 2
// (DESIGN.md §14). The skeleton H = F1 u F2 (Definition 11) decodes F1
// from layer 1 and F2 from layer 2 with F1 linearly peeled, so every cut
// of H has size min(cut_G, 2) whp: G is 2-edge-connected iff H is, and the
// bridges of H are exactly the bridges of G (a G-cut of size 1 survives
// into H as the same single hyperedge). The app adds only the bridge step;
// ingest, state and peeling are KSkeletonSketch's.
#ifndef GMS_APPS_TWO_EDGE_CONNECT_H_
#define GMS_APPS_TWO_EDGE_CONNECT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/k_skeleton.h"
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

/// The bridge step: components and bridges of a decoded 2-skeleton.
TwoEdgeConnectAnswer AnswerFromSkeleton(Hypergraph skeleton);

class TwoEdgeConnect {
 public:
  using Params = KSkeletonSketch::Params;

  /// The k = 2 skeleton sketch seeded with `seed`.
  TwoEdgeConnect(size_t n, size_t max_rank, uint64_t seed,
                 const Params& params = Params());

  size_t n() const { return skeleton_.n(); }
  size_t max_rank() const { return skeleton_.max_rank(); }

  void Update(const Hyperedge& e, int delta) { skeleton_.Update(e, delta); }
  /// At threads <= 1 the skeleton is an ingest plane's single consumer
  /// (one encode + gutter pass feeds every layer); otherwise its own
  /// Process shards the layers. Both land bit-identical state.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);

  /// Ingest-plane hooks (stream/ingest_plane.h), forwarded to the skeleton.
  const EdgeCodec& codec() const { return skeleton_.codec(); }
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch) {
    skeleton_.ApplyUpdateBatch(v, batch);
  }

  /// The skeleton's query plus the bridge step. Non-destructive; stats sum
  /// both layer extractions.
  QueryResult<TwoEdgeConnectAnswer> Query() const;

  size_t MemoryBytes() const { return skeleton_.MemoryBytes(); }

  /// Zero the skeleton (the empty-stream measurement); for bench reps.
  void Clear() { skeleton_.Clear(); }

  const KSkeletonSketch& skeleton() const { return skeleton_; }
  /// The skeleton's first forest layer, whose decode is F1.
  const SpanningForestSketch& layer1() const { return skeleton_.layer(0); }

 private:
  size_t threads_;
  KSkeletonSketch skeleton_;
};

}  // namespace apps
}  // namespace gms

#endif  // GMS_APPS_TWO_EDGE_CONNECT_H_
