#include "vertexconn/vc_estimator.h"

#include <algorithm>
#include <cmath>

#include "exact/vertex_connectivity.h"
#include "util/check.h"

namespace gms {

size_t VcEstimatorParams::ResolveR(size_t n) const {
  if (explicit_r > 0) return explicit_r;
  GMS_CHECK(epsilon > 0);
  double paper_r = 160.0 * static_cast<double>(k) * static_cast<double>(k) /
                   epsilon *
                   std::log(static_cast<double>(std::max<size_t>(n, 2)));
  size_t r = static_cast<size_t>(std::ceil(r_multiplier * paper_r));
  return std::max<size_t>(r, 1);
}

VcEstimator::VcEstimator(size_t n, const VcEstimatorParams& params,
                         uint64_t seed)
    : params_(params),
      forests_(n, /*max_rank=*/2, params.k, params.ResolveR(n), seed,
               params.forest, params.threads) {}

Result<size_t> VcEstimator::EstimateKappa() const {
  auto h = forests_.BuildUnionGraph();
  if (!h.ok()) return h.status();
  return VertexConnectivity(*h);
}

Result<bool> VcEstimator::IsAtLeastK() const {
  auto h = forests_.BuildUnionGraph();
  if (!h.ok()) return h.status();
  return IsKVertexConnected(*h, params_.k);
}

}  // namespace gms
