#include "apps/two_edge_connect.h"

#include <utility>

#include "graph/traversal.h"
#include "stream/ingest_plane.h"
#include "util/random.h"

namespace gms {
namespace apps {

TwoEdgeConnect::TwoEdgeConnect(size_t n, size_t max_rank, uint64_t seed,
                               const Params& params)
    : params_(params),
      layer1_(n, max_rank, Mix64(seed ^ 0x2ec1a9b7d64f8c31ULL), params),
      layer2_(n, max_rank, Mix64(seed ^ 0x9d3f60b1e8c45a77ULL), params) {}

void TwoEdgeConnect::Update(const Hyperedge& e, int delta) {
  // Encode once; the layers share one codec domain.
  const u128 index = layer1_.codec().Encode(e);
  layer1_.UpdateEncoded(e, index, delta);
  layer2_.UpdateEncoded(e, index, delta);
}

void TwoEdgeConnect::Process(std::span<const StreamUpdate> updates) {
  if (updates.empty()) return;
  if (params_.engine.threads > 1) {
    // The per-layer column paths parallelize within a layer;
    // keep them when the caller asked for workers.
    ProcessIndependent(updates);
    return;
  }
  IngestPlane plane;
  plane.Add(&layer1_);
  plane.Add(&layer2_);
  plane.Process(updates);
}

void TwoEdgeConnect::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

void TwoEdgeConnect::ProcessIndependent(std::span<const StreamUpdate> updates) {
  layer1_.Process(updates);
  layer2_.Process(updates);
}

void TwoEdgeConnect::Clear() {
  layer1_.Clear();
  layer2_.Clear();
}

QueryResult<TwoEdgeConnectAnswer> TwoEdgeConnect::Query() const {
  ExtractStats stats;
  QueryResult<Hypergraph> f1 = layer1_.Query();
  AccumulateExtractStats(f1.stats(), &stats);
  if (!f1.ok()) return QueryResult<TwoEdgeConnectAnswer>(f1.status());

  // Peel: decode an independent sketch of the same stream with F1 as its
  // peel set, so it measures G - F1 and its spanning graph F2 completes
  // the 2-skeleton. Nothing is copied or mutated.
  QueryResult<Hypergraph> f2 = layer2_.Query(0, f1.value().Edges());
  AccumulateExtractStats(f2.stats(), &stats);
  if (!f2.ok()) return QueryResult<TwoEdgeConnectAnswer>(f2.status());

  TwoEdgeConnectAnswer answer;
  answer.skeleton = std::move(f1).value();
  answer.skeleton.AddAll(f2.value());
  answer.num_components = NumComponents(answer.skeleton);
  answer.bridges = BridgeHyperedges(answer.skeleton);
  answer.connected = answer.num_components == 1;
  answer.two_edge_connected = answer.connected && answer.bridges.empty();
  return QueryResult<TwoEdgeConnectAnswer>(std::move(answer),
                                           std::move(stats));
}

}  // namespace apps
}  // namespace gms
