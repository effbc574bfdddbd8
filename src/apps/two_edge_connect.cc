#include "apps/two_edge_connect.h"

#include <utility>

#include "graph/traversal.h"
#include "stream/ingest_plane.h"

namespace gms {
namespace apps {

TwoEdgeConnect::TwoEdgeConnect(size_t n, size_t max_rank, uint64_t seed,
                               const Params& params)
    : threads_(params.threads),
      skeleton_(n, max_rank, /*k=*/2, seed, params) {}

void TwoEdgeConnect::Process(std::span<const StreamUpdate> updates) {
  if (threads_ > 1) return skeleton_.Process(updates);
  IngestPlane plane;
  plane.Add(&skeleton_);
  plane.Process(updates);
}

void TwoEdgeConnect::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

TwoEdgeConnectAnswer AnswerFromSkeleton(Hypergraph skeleton) {
  TwoEdgeConnectAnswer answer;
  answer.skeleton = std::move(skeleton);
  answer.num_components = NumComponents(answer.skeleton);
  answer.bridges = BridgeHyperedges(answer.skeleton);
  answer.connected = answer.num_components == 1;
  answer.two_edge_connected = answer.connected && answer.bridges.empty();
  return answer;
}

QueryResult<TwoEdgeConnectAnswer> TwoEdgeConnect::Query() const {
  QueryResult<Hypergraph> skeleton = skeleton_.Query();
  if (!skeleton.ok()) {
    return QueryResult<TwoEdgeConnectAnswer>(skeleton.status());
  }
  ExtractStats stats = skeleton.stats();
  return QueryResult<TwoEdgeConnectAnswer>(
      AnswerFromSkeleton(std::move(skeleton).value()), std::move(stats));
}

}  // namespace apps
}  // namespace gms
