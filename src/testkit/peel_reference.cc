#include "testkit/peel_reference.h"

#include <utility>

#include "exact/strength.h"

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
    QueryResult<Hypergraph> forest = [&] {
      // With nothing to remove (layer 1 of an unpeeled skeleton) the copy
      // would hold the layer's own state: decode the layer in place.
      if (pre.empty() && accumulated.empty()) return sketch.layer(i).Query();
      SpanningForestSketch layer = sketch.layer(i);
      layer.RemoveHyperedges(pre);
      layer.RemoveHyperedges(accumulated);
      return layer.Query();
    }();
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
  QueryResult<Hypergraph> skeleton = PeelByCopy(app.skeleton(), {});
  if (!skeleton.ok()) {
    return QueryResult<apps::TwoEdgeConnectAnswer>(skeleton.status());
  }
  ExtractStats stats = skeleton.stats();
  return QueryResult<apps::TwoEdgeConnectAnswer>(
      apps::AnswerFromSkeleton(std::move(skeleton).value()), std::move(stats));
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
