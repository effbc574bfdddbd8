#include "apps/approx_min_cut.h"

#include <algorithm>
#include <utility>

#include "exact/hypergraph_mincut.h"
#include "graph/traversal.h"
#include "stream/ingest_plane.h"
#include "util/check.h"

namespace gms {
namespace apps {

ApproxMinCut::ApproxMinCut(size_t n, size_t max_rank, size_t k_cap,
                           uint64_t seed, const Params& params)
    : threads_(params.threads),
      skeleton_(n, max_rank, k_cap, seed, params) {}

void ApproxMinCut::Process(std::span<const StreamUpdate> updates) {
  if (threads_ > 1) return skeleton_.Process(updates);
  IngestPlane plane;
  plane.Add(&skeleton_);
  plane.Process(updates);
}

void ApproxMinCut::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

QueryResult<MinCutEstimate> ApproxMinCut::Query() const {
  QueryResult<Hypergraph> skeleton = skeleton_.Query();
  if (!skeleton.ok()) return QueryResult<MinCutEstimate>(skeleton.status());
  const std::vector<uint32_t> comp = ConnectedComponents(skeleton.value());
  HypergraphCut cut;
  if (std::all_of(comp.begin(), comp.end(),
                  [&](uint32_t c) { return c == comp[0]; })) {
    cut = HypergraphMinCut(skeleton.value());
  } else {
    // G is disconnected whp: cut 0 around vertex 0's component, without
    // the O(n m log m) min cut.
    for (uint32_t c : comp) cut.side.push_back(c == comp[0]);
  }
  MinCutEstimate est;
  est.value = std::min(static_cast<size_t>(cut.value + 0.5), k_cap());
  est.exact = est.value < k_cap();
  est.resolved_k = k_cap();
  est.shore = std::move(cut.side);
  return QueryResult<MinCutEstimate>(std::move(est), skeleton.stats());
}

const KSkeletonSketch& ApproxMinCut::level(size_t i) const {
  GMS_CHECK_MSG(i == 0, "ApproxMinCut: one level, the skeleton");
  return skeleton_;
}

}  // namespace apps
}  // namespace gms
