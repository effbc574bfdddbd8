// Global min cut as a query on one k-skeleton sketch at k = k_cap
// (DESIGN.md §14). A k-skeleton preserves every cut up to size k
// (Definition 11), so the skeleton's exact min cut, capped at k_cap, is
// min(lambda(G), k_cap) whp -- and when that value lands BELOW k_cap it is
// exactly lambda(G) with a genuine minimum-cut shore (|delta_H(S)| >=
// min(|delta_G(S)|, k) forces |delta_G(S)| = value). When G is better
// connected than the budget the answer saturates at k_cap (exact = false;
// the value is then a certified lower bound). Space O(n * k_cap * polylog).
#ifndef GMS_APPS_APPROX_MIN_CUT_H_
#define GMS_APPS_APPROX_MIN_CUT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "stream/stream.h"

namespace gms {
namespace apps {

struct MinCutEstimate {
  /// min(lambda(G), k_cap) whp; 0 when G is disconnected.
  size_t value = 0;
  /// True when value < k_cap: `value` is exactly lambda(G) and `shore` is
  /// a genuine minimum-cut side. False means every cut of G has size
  /// >= k_cap (value == k_cap is a certified lower bound, not the cut).
  bool exact = false;
  /// The skeleton's k that resolved the answer: always k_cap.
  size_t resolved_k = 0;
  /// A minimum-cut shore of the skeleton (meaningful when `exact`;
  /// in_s[v] = true puts v on the S side).
  std::vector<bool> shore;
};

class ApproxMinCut {
 public:
  using Params = KSkeletonSketch::Params;

  /// The k = k_cap skeleton sketch (k_cap >= 1) seeded with `seed`.
  ApproxMinCut(size_t n, size_t max_rank, size_t k_cap, uint64_t seed,
               const Params& params = Params());

  size_t n() const { return skeleton_.n(); }
  size_t max_rank() const { return skeleton_.max_rank(); }
  size_t k_cap() const { return skeleton_.k(); }

  void Update(const Hyperedge& e, int delta) { skeleton_.Update(e, delta); }
  /// At threads <= 1 the skeleton is an ingest plane's single consumer
  /// (one encode + gutter pass feeds every layer); otherwise its own
  /// Process shards the layers. Both land bit-identical state.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);

  /// Ingest-plane hooks (stream/ingest_plane.h), forwarded to the skeleton.
  const EdgeCodec& codec() const { return skeleton_.codec(); }
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch) {
    skeleton_.ApplyUpdateBatch(v, batch);
  }

  /// Extract the skeleton and run one exact min cut on it. Non-destructive.
  QueryResult<MinCutEstimate> Query() const;

  size_t MemoryBytes() const { return skeleton_.MemoryBytes(); }

  /// Zero the skeleton (the empty-stream measurement); for bench reps.
  void Clear() { skeleton_.Clear(); }

  const KSkeletonSketch& skeleton() const { return skeleton_; }
  /// The answer's levels, for per-level tracing (perfbench cuts_road):
  /// one level, the skeleton.
  size_t num_levels() const { return 1; }
  const KSkeletonSketch& level(size_t i) const;

 private:
  size_t threads_;
  KSkeletonSketch skeleton_;
};

}  // namespace apps
}  // namespace gms

#endif  // GMS_APPS_APPROX_MIN_CUT_H_
