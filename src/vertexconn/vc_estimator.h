// Vertex-connectivity estimation (Section 3.2, Theorems 6 and 8).
//
// With R = 160 k^2 eps^-1 ln n vertex-subsampled spanning forests, the
// union H satisfies (Corollary 7): if G is (1+eps)k-vertex-connected then H
// is k-vertex-connected whp; and since H is a subgraph of G, H being
// k-connected certifies G is. Post-processing runs an exact vertex-
// connectivity algorithm on H.
#ifndef GMS_VERTEXCONN_VC_ESTIMATOR_H_
#define GMS_VERTEXCONN_VC_ESTIMATOR_H_

#include <cstdint>

#include "vertexconn/vc_query_sketch.h"

namespace gms {

struct VcEstimatorParams {
  size_t k = 2;          // the connectivity threshold being tested
  double epsilon = 1.0;  // gap parameter
  /// Multiplier on the paper's R = 160 k^2 eps^-1 ln n.
  double r_multiplier = 1.0;
  size_t explicit_r = 0;
  /// Worker threads sharding the R sketches (see
  /// util/parallel.h; outputs are bit-identical for every setting).
  size_t threads = 1;
  /// Per-subsample forest params; forest.threads must stay 1.
  ForestSketchParams forest;

  size_t ResolveR(size_t n) const;
};

class VcEstimator {
 public:
  VcEstimator(size_t n, const VcEstimatorParams& params, uint64_t seed);

  void Update(const Edge& e, int delta) {
    forests_.Update(Hyperedge(e), delta);
  }
  void Process(const DynamicStream& stream) { forests_.Process(stream); }

  /// kappa(H), computed exactly on the assembled union graph. Guarantees:
  /// kappa(H) <= kappa(G) always (H is a subgraph); kappa(H) >= k whp when
  /// kappa(G) >= (1+eps)k.
  Result<size_t> EstimateKappa() const;

  /// The Theorem 8 decision: distinguishes kappa(G) >= (1+eps)k (returns
  /// true whp) from kappa(G) < k (returns false always).
  Result<bool> IsAtLeastK() const;

  /// The assembled union graph (for inspection / benchmarking).
  Result<Graph> UnionGraph() const { return forests_.BuildUnionGraph(); }

  size_t R() const { return forests_.R(); }
  size_t MemoryBytes() const { return forests_.MemoryBytes(); }

 private:
  VcEstimatorParams params_;
  SubsampledForestUnion forests_;
};

}  // namespace gms

#endif  // GMS_VERTEXCONN_VC_ESTIMATOR_H_
