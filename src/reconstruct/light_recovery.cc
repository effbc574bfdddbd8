#include "reconstruct/light_recovery.h"

#include "exact/strength.h"
#include "util/check.h"

namespace gms {

LightRecoverySketch::LightRecoverySketch(size_t n, size_t max_rank, size_t k,
                                         uint64_t seed,
                                         const ForestSketchParams& params)
    : n_(n), k_(k), skeleton_(n, max_rank, k + 1, seed, params) {}

Result<LightRecoveryResult> LightRecoverySketch::Recover() const {
  return Recover({});
}

Result<LightRecoveryResult> LightRecoverySketch::Recover(
    const std::vector<Hyperedge>& pre_subtract) const {
  LightRecoveryResult out;
  out.light = Hypergraph(n_);
  // Everything peeled so far: pre_subtract, then each recovered layer E_i.
  std::vector<Hyperedge> peeled = pre_subtract;
  // At most n nonempty layers (each removal splits components; Section
  // 4.2.1), so cap the loop there.
  for (size_t iter = 0; iter < n_ + 1; ++iter) {
    auto skeleton = skeleton_.Extract(/*stats=*/nullptr, peeled);
    if (!skeleton.ok()) return skeleton.status();
    if (skeleton->NumEdges() == 0) return out;  // residual empty: done
    // E_i = light edges of the residual, read off the skeleton (Lemma 12);
    // LightLayer uses the Gomory-Hu fast path on 2-uniform skeletons.
    std::vector<Hyperedge> layer = LightLayer(*skeleton, k_);
    if (layer.empty()) {
      // Residual is entirely (k+1)-heavy: light_k fully recovered, but the
      // graph itself has more edges than the sketch can reconstruct.
      out.residual_nonempty = true;
      return out;
    }
    peeled.insert(peeled.end(), layer.begin(), layer.end());
    for (const auto& e : layer) out.light.AddEdge(e);
    out.layers.push_back(std::move(layer));
  }
  return Status::DecodeFailure("light-edge peeling exceeded n iterations");
}

}  // namespace gms
