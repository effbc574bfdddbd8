#include "stream/ingest_plane.h"

#include <algorithm>

namespace gms {

void IngestPlane::Process(std::span<const StreamUpdate> updates) {
  if (consumers_.empty() || updates.empty()) return;
  gutters_.resize(n_);
  const EdgeCodec& codec = *codec_;
  for (const StreamUpdate& u : updates) {
    GMS_CHECK_MSG(u.edge.size() <= codec.max_rank(),
                  "hyperedge exceeds max_rank");
    const uint64_t route = RouteMask(u.edge);
    if (route == 0) continue;  // no consumer wants it
    const PreparedCoord pc = PrepareCoord(codec.Encode(u.edge));
    const int64_t head = static_cast<int64_t>(u.edge.size()) - 1;
    for (size_t pos = 0; pos < u.edge.size(); ++pos) {
      // Section 4.1 incidence coefficients; the edge is sorted, so the
      // minimum endpoint is position 0.
      const int64_t coeff = (pos == 0 ? head : -1) * u.delta;
      const VertexId v = u.edge[pos];
      std::vector<VertexUpdate>& gutter = gutters_[v];
      if (gutter.empty()) {
        if (gutter.capacity() == 0) gutter.reserve(kGutterCapacity);
        touched_.push_back(v);
      }
      gutter.push_back(VertexUpdate{pc, route, coeff});
      if (gutter.size() >= kGutterCapacity) {
        ApplyBatch(v, gutter);
        gutter.clear();
      }
    }
  }
  // End-of-chunk flush in increasing vertex order, releasing every buffer
  // this call touched.
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (const VertexId v : touched_) {
    std::vector<VertexUpdate>& gutter = gutters_[v];
    if (!gutter.empty()) ApplyBatch(v, gutter);
    std::vector<VertexUpdate>().swap(gutter);
  }
  touched_.clear();
}

}  // namespace gms
