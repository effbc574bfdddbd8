#include "vertexconn/hyper_vc_query.h"

#include "graph/traversal.h"
#include "wire/wire.h"

namespace gms {

HyperVcQuerySketch::HyperVcQuerySketch(size_t n, size_t max_rank,
                                       const Params& params, uint64_t seed)
    : params_(params),
      forests_(n, max_rank, params.k, params.ResolveR(n), seed, params.forest,
               params.threads) {}

QueryResult<HyperVcUnionSnapshot> HyperVcQuerySketch::Query() const {
  ExtractStats stats;
  auto h = forests_.BuildUnionHypergraph(&stats);
  if (!h.ok()) return QueryResult<HyperVcUnionSnapshot>(h.status());
  return QueryResult<HyperVcUnionSnapshot>(
      HyperVcUnionSnapshot(std::move(*h), n(), params_.k), std::move(stats));
}

Result<bool> HyperVcUnionSnapshot::Disconnects(
    const std::vector<VertexId>& s) const {
  auto distinct = NormalizeQuerySet(s, n_, k_);
  if (!distinct.ok()) return distinct.status();
  return !IsConnectedExcluding(h_, *distinct);
}

void HyperVcQuerySketch::Serialize(std::vector<uint8_t>* out) const {
  WriteSubsampledFrame(wire::FrameType::kHyperVcQuery, forests_,
                       params_.forest, out);
}

Result<HyperVcQuerySketch> HyperVcQuerySketch::Deserialize(
    std::span<const uint8_t> bytes) {
  auto frame = ReadSubsampledFrame(bytes, wire::FrameType::kHyperVcQuery);
  if (!frame.ok()) return frame.status();
  return HyperVcQuerySketch(std::move(frame->params),
                            std::move(frame->forests));
}

size_t HyperVcQuerySketch::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

}  // namespace gms
