#include "apps/approx_min_cut.h"

#include <utility>

#include "exact/hypergraph_mincut.h"
#include "stream/ingest_plane.h"
#include "util/check.h"
#include "util/random.h"

namespace gms {
namespace apps {

ApproxMinCut::ApproxMinCut(size_t n, size_t max_rank, size_t k_cap,
                           uint64_t seed, const Params& params)
    : k_cap_(k_cap), params_(params) {
  GMS_CHECK_MSG(k_cap >= 1, "ApproxMinCut: k_cap must be >= 1");
  std::vector<size_t> ks;
  for (size_t k = 1; k < k_cap; k *= 2) ks.push_back(k);
  ks.push_back(k_cap);
  levels_.reserve(ks.size());
  for (size_t i = 0; i < ks.size(); ++i) {
    levels_.emplace_back(n, max_rank, ks[i],
                         Mix64(seed ^ (0x5851f42d4c957f2dULL * (i + 1))),
                         params);
  }
}

void ApproxMinCut::Update(const Hyperedge& e, int delta) {
  const u128 index = codec().Encode(e);
  for (auto& level : levels_) level.UpdateEncoded(e, index, delta);
}

void ApproxMinCut::Process(std::span<const StreamUpdate> updates) {
  if (updates.empty()) return;
  if (params_.engine.threads > 1) {
    // The per-level column paths parallelize within a rung;
    // keep them when the caller asked for workers.
    ProcessIndependent(updates);
    return;
  }
  IngestPlane plane;
  for (auto& level : levels_) plane.Add(&level);
  plane.Process(updates);
}

void ApproxMinCut::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

void ApproxMinCut::ProcessIndependent(std::span<const StreamUpdate> updates) {
  for (auto& level : levels_) level.Process(updates);
}

void ApproxMinCut::Clear() {
  for (auto& level : levels_) level.Clear();
}

QueryResult<MinCutEstimate> ApproxMinCut::Query() const {
  ExtractStats stats;
  for (const KSkeletonSketch& level : levels_) {
    QueryResult<Hypergraph> skel = level.Query();
    AccumulateExtractStats(skel.stats(), &stats);
    if (!skel.ok()) return QueryResult<MinCutEstimate>(skel.status());
    const HypergraphCut cut = HypergraphMinCut(skel.value());
    const size_t cut_value = static_cast<size_t>(cut.value + 0.5);
    if (cut_value < level.k()) {
      // Below the level's preservation threshold the skeleton cut is a
      // GENUINE minimum cut of G: |delta_H(S)| >= min(|delta_G(S)|, k)
      // forces |delta_G(S)| = cut_value (connectivity_query.h, MinCut).
      MinCutEstimate est;
      est.value = cut_value;
      est.exact = true;
      est.resolved_k = level.k();
      est.shore = cut.side;
      return QueryResult<MinCutEstimate>(std::move(est), std::move(stats));
    }
  }
  // Every level saturated: lambda(G) >= k_cap whp.
  MinCutEstimate est;
  est.value = k_cap_;
  est.exact = false;
  est.resolved_k = k_cap_;
  return QueryResult<MinCutEstimate>(std::move(est), std::move(stats));
}

size_t ApproxMinCut::MemoryBytes() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.MemoryBytes();
  return total;
}

}  // namespace apps
}  // namespace gms
