#include "testkit/peel_reference.h"

#include <utility>

#include "exact/strength.h"
#include "graph/traversal.h"

namespace gms {
namespace testkit {

QueryResult<Hypergraph> PeelByCopy(const SpanningForestSketch& sketch,
                                   std::span<const Hyperedge> peeled,
                                   size_t threads) {
  SpanningForestSketch residual = sketch;
  residual.RemoveHyperedges(
      std::vector<Hyperedge>(peeled.begin(), peeled.end()));
  return residual.Query(threads);
}

QueryResult<Hypergraph> PeelByCopy(const KSkeletonSketch& sketch,
                                   std::span<const Hyperedge> peeled) {
  Hypergraph skeleton(sketch.n());
  const std::vector<Hyperedge> pre(peeled.begin(), peeled.end());
  std::vector<Hyperedge> accumulated;
  ExtractStats stats;
  for (size_t i = 0; i < sketch.k(); ++i) {
    SpanningForestSketch layer = sketch.layer(i);
    layer.RemoveHyperedges(pre);
    layer.RemoveHyperedges(accumulated);
    QueryResult<Hypergraph> forest = layer.Query();
    AccumulateExtractStats(forest.stats(), &stats);
    if (!forest.ok()) return QueryResult<Hypergraph>(forest.status());
    for (const auto& e : forest.value().Edges()) {
      if (skeleton.AddEdge(e)) accumulated.push_back(e);
    }
  }
  return QueryResult<Hypergraph>(std::move(skeleton), std::move(stats));
}

QueryResult<apps::TwoEdgeConnectAnswer> TwoEdgeConnectByCopy(
    const apps::TwoEdgeConnect& app) {
  ExtractStats stats;
  QueryResult<Hypergraph> f1 = app.layer1().Query();
  AccumulateExtractStats(f1.stats(), &stats);
  if (!f1.ok()) return QueryResult<apps::TwoEdgeConnectAnswer>(f1.status());
  QueryResult<Hypergraph> f2 = PeelByCopy(app.layer2(), f1.value().Edges());
  AccumulateExtractStats(f2.stats(), &stats);
  if (!f2.ok()) return QueryResult<apps::TwoEdgeConnectAnswer>(f2.status());

  apps::TwoEdgeConnectAnswer answer;
  answer.skeleton = std::move(f1).value();
  answer.skeleton.AddAll(f2.value());
  answer.num_components = NumComponents(answer.skeleton);
  answer.bridges = BridgeHyperedges(answer.skeleton);
  answer.connected = answer.num_components == 1;
  answer.two_edge_connected = answer.connected && answer.bridges.empty();
  return QueryResult<apps::TwoEdgeConnectAnswer>(std::move(answer),
                                                 std::move(stats));
}

Result<LightRecoveryResult> LightRecoverByCopy(
    const LightRecoverySketch& sketch,
    const std::vector<Hyperedge>& pre_subtract) {
  LightRecoveryResult out;
  out.light = Hypergraph(sketch.n());
  KSkeletonSketch work = sketch.skeleton();
  work.RemoveHyperedges(pre_subtract);
  for (size_t iter = 0; iter < sketch.n() + 1; ++iter) {
    auto skeleton = PeelByCopy(work, {});
    if (!skeleton.ok()) return skeleton.status();
    if (skeleton.value().NumEdges() == 0) return out;
    std::vector<Hyperedge> layer = LightLayer(skeleton.value(), sketch.k());
    if (layer.empty()) {
      out.residual_nonempty = true;
      return out;
    }
    work.RemoveHyperedges(layer);
    for (const auto& e : layer) out.light.AddEdge(e);
    out.layers.push_back(std::move(layer));
  }
  return Status::DecodeFailure("light-edge peeling exceeded n iterations");
}

}  // namespace testkit
}  // namespace gms
