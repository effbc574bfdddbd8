// Global min cut via k-skeleton doubling search (DESIGN.md §14). A
// k-skeleton preserves every cut up to size k (Definition 11), so the
// skeleton's exact min cut equals min(lambda(G), k) whp -- and when that
// value lands BELOW the level's k, it is exactly lambda(G) with a genuine
// minimum-cut shore. The app maintains independent skeleton sketches at
// k = 1, 2, 4, ..., k_cap and queries them in ascending order, stopping
// at the first level that resolves: small cuts (the common case for the
// paper's workloads) pay only the cheap shallow extractions, and the
// deepest level caps the answer at k_cap when G is better connected than
// the budget (exact = false; the value is then a certified lower bound).
//
// The Goel-Kapralov-Post sparsification connection (PAPERS.md): the
// skeleton ladder is a single-pass cut sparsifier specialized to the
// global min cut -- space O(n * k_cap * polylog) against the exact
// offline Queyranne algorithm the testkit oracle checks it with.
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
  /// The level (its k) that resolved the answer.
  size_t resolved_k = 0;
  /// A shore achieving `value` on the resolving skeleton (meaningful when
  /// `exact`; in_s[v] = true puts v on the S side).
  std::vector<bool> shore;
};

class ApproxMinCut {
 public:
  using Params = KSkeletonSketch::Params;

  /// Levels k = 1, 2, 4, ... capped at k_cap (k_cap >= 1); level seeds
  /// derive from `seed`, so one public seed reproduces the ladder.
  ApproxMinCut(size_t n, size_t max_rank, size_t k_cap, uint64_t seed,
               const Params& params = Params());

  size_t n() const { return levels_.front().n(); }
  size_t max_rank() const { return levels_.front().max_rank(); }
  size_t k_cap() const { return k_cap_; }
  size_t num_levels() const { return levels_.size(); }

  void Update(const Hyperedge& e, int delta);
  /// Batched ingestion through the shared ingestion plane (stream/
  /// ingest_plane.h): encode + PrepareCoord + gutter routing happen ONCE
  /// per update and every prepared batch fans out to the whole k = 1, 2,
  /// 4, ..., k_cap ladder -- instead of one full pass per rung. With
  /// engine.threads > 1 the levels keep their own parallel paths instead.
  /// Bit-identical to ProcessIndependent for every setting.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);
  /// The pre-plane baseline (each level re-encodes the updates itself);
  /// the comparison target for the determinism suite and the prepare_once
  /// bench rows.
  void ProcessIndependent(std::span<const StreamUpdate> updates);

  /// Ingest-plane hooks (stream/ingest_plane.h): all levels share one
  /// codec domain; every update fans out to every level.
  const EdgeCodec& codec() const { return levels_.front().codec(); }
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch) {
    for (auto& level : levels_) level.ApplyUpdateBatch(v, batch);
  }

  /// The doubling search: extract skeletons in ascending k, compute each
  /// one's exact min cut, and return at the first level whose answer is
  /// below its own k (that answer is lambda(G) whp). Non-destructive.
  QueryResult<MinCutEstimate> Query() const;

  size_t MemoryBytes() const;

  /// Zero every level (the empty-stream measurement); for bench reps.
  void Clear();

  /// The raw ladder rungs, for frame-strength determinism checks.
  const KSkeletonSketch& level(size_t i) const { return levels_[i]; }

 private:
  size_t k_cap_;
  Params params_;
  std::vector<KSkeletonSketch> levels_;
};

}  // namespace apps
}  // namespace gms

#endif  // GMS_APPS_APPROX_MIN_CUT_H_
