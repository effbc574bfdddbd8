// Light-edge recovery (Section 4.2.1, Theorem 15): from ONE (k+1)-skeleton
// sketch B(G), recover
//   E_i = { e : lambda_e(G - E_1 - ... - E_{i-1}) <= k },  light_k = U E_i.
//
// The peeling reuses the single sketch across iterations -- sound here
// (unlike adaptive k-skeleton construction, Section 4.2's cautionary tale)
// because each E_i is a deterministic function of the input graph, so the
// union bound ranges over FIXED events. Each iteration extracts a
// (k+1)-skeleton S_i of the residual and keeps the edges with
// lambda_e(S_i) <= k, which by Lemma 12 are exactly the residual's light
// edges (and every such edge is necessarily present in S_i).
//
// If G is k-cut-degenerate, light_k(G) = E and this sketch reconstructs
// the entire hypergraph in O(kn polylog n) space.
#ifndef GMS_RECONSTRUCT_LIGHT_RECOVERY_H_
#define GMS_RECONSTRUCT_LIGHT_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "graph/hypergraph.h"
#include "stream/stream.h"

namespace gms {

struct LightRecoveryResult {
  std::vector<std::vector<Hyperedge>> layers;  // E_1, E_2, ...
  Hypergraph light;  // union of the layers
  /// True if a final skeleton extraction found leftover (non-light) edges,
  /// i.e. the graph was NOT k-cut-degenerate-recoverable in full.
  bool residual_nonempty = false;
};

class LightRecoverySketch {
 public:
  using Params = ForestSketchParams;

  /// Recovers light_k of hypergraphs on n vertices with hyperedges of
  /// cardinality <= max_rank. Internally a (k+1)-layer skeleton sketch.
  LightRecoverySketch(size_t n, size_t max_rank, size_t k, uint64_t seed,
                      const Params& params = Params());

  size_t n() const { return n_; }
  size_t k() const { return k_; }
  uint64_t seed() const { return skeleton_.seed(); }
  /// Resolved Borůvka rounds of the underlying skeleton's forest sketches.
  int rounds() const { return skeleton_.rounds(); }
  /// The underlying (k+1)-skeleton sketch (for the copy-path oracles in
  /// testkit/).
  const KSkeletonSketch& skeleton() const { return skeleton_; }

  void Update(const Hyperedge& e, int delta) { skeleton_.Update(e, delta); }
  void Process(std::span<const StreamUpdate> updates) {
    skeleton_.Process(updates);
  }
  /// KSkeletonSketch::ProcessPrepared on the underlying skeleton (the
  /// sparsifier's levels all share one (n, max_rank) domain).
  void ProcessPrepared(std::span<const StreamUpdate> updates,
                       std::span<const PreparedCoord> prepared,
                       std::span<const uint32_t> routed) {
    skeleton_.ProcessPrepared(updates, prepared, routed);
  }
  void Process(const DynamicStream& stream) { skeleton_.Process(stream); }

  /// Run the peeling. Each iteration extracts the skeleton with every
  /// layer recovered so far as its peel set (KSkeletonSketch::Query's
  /// `peeled`), so no skeleton is copied and the sketch is unchanged.
  Result<LightRecoveryResult> Recover() const;

  /// As Recover(), but on G - pre_subtract: `pre_subtract` (e.g. the edges
  /// recovered at other sampling levels of the Section 5 sparsifier) joins
  /// the peel set from the first iteration.
  Result<LightRecoveryResult> Recover(
      const std::vector<Hyperedge>& pre_subtract) const;

  /// Serving hook (src/serve/): true iff the underlying skeleton's
  /// measurement state changed since construction / the last Clear().
  bool SnapshotDirty() const { return skeleton_.SnapshotDirty(); }

  size_t MemoryBytes() const { return skeleton_.MemoryBytes(); }

  /// Bit-identity of the underlying skeleton state (determinism suite).
  bool StateEquals(const LightRecoverySketch& other) const {
    return skeleton_.StateEquals(other.skeleton_);
  }

  /// Cell-wise field addition (delegates to the underlying skeleton; valid
  /// iff the other sketch carries the same measurement).
  Status MergeFrom(const LightRecoverySketch& other) {
    if (k_ != other.k_) {
      return Status::InvalidArgument(
          "LightRecoverySketch::MergeFrom: seed/shape mismatch (different "
          "measurement)");
    }
    return skeleton_.MergeFrom(other.skeleton_);
  }

  /// Zero the underlying skeleton (the empty-stream measurement).
  void Clear() { skeleton_.Clear(); }

  /// A sketch of the SAME measurement with zero state (the clone a
  /// stream slice is sketched into before MergeFrom); the parent's cells are
  /// never copied.
  LightRecoverySketch CloneEmpty() const {
    return LightRecoverySketch(*this, CloneEmptyTag{});
  }

  /// Raw skeleton cells for COMPOSITE frames (the sparsifier packs all its
  /// level rows into one frame).
  void AppendCells(wire::Writer* w) const { skeleton_.AppendCells(w); }
  Status ReadCells(wire::Reader* r) { return skeleton_.ReadCells(r); }

 private:
  LightRecoverySketch(const LightRecoverySketch& other, CloneEmptyTag)
      : n_(other.n_), k_(other.k_), skeleton_(other.skeleton_.CloneEmpty()) {}

  size_t n_;
  size_t k_;
  KSkeletonSketch skeleton_;
};

}  // namespace gms

#endif  // GMS_RECONSTRUCT_LIGHT_RECOVERY_H_
