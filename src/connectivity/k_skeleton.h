// k-skeleton sketches (Definition 11, Theorem 14): k independent
// spanning-graph sketches A^1..A^k. F_i is extracted as a spanning graph of
// G - F_1 - ... - F_{i-1}, obtained by LINEARLY subtracting the already-
// extracted layers from sketch A^i -- the independence of the k sketches is
// what makes the union-bound argument valid (Section 4.2 discusses at
// length why reusing one sketch adaptively is unsound; see
// tests/adaptive_reuse_test.cc for an empirical demonstration).
#ifndef GMS_CONNECTIVITY_K_SKELETON_H_
#define GMS_CONNECTIVITY_K_SKELETON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"

namespace gms {

class KSkeletonSketch {
 public:
  using Params = SpanningForestSketch::Params;

  /// Sketch from which a k-skeleton of a hypergraph on n vertices (edges of
  /// cardinality <= max_rank) can be extracted.
  KSkeletonSketch(size_t n, size_t max_rank, size_t k, uint64_t seed,
                  const Params& params = Params());

  size_t n() const { return n_; }
  size_t k() const { return k_; }
  size_t max_rank() const { return layers_[0].max_rank(); }
  uint64_t seed() const { return seed_; }
  /// Resolved Borůvka rounds of the per-layer forest sketches.
  int rounds() const { return layers_[0].rounds(); }
  /// Layer i's forest sketch A^i (for the copy-path oracles in testkit/).
  const SpanningForestSketch& layer(size_t i) const { return layers_[i]; }

  void Update(const Hyperedge& e, int delta);

  /// As Update with the coordinate fully prepared by the caller (all k
  /// layers share one (n, max_rank) domain and the preparation is
  /// shape-independent, so containers of skeleton sketches -- e.g. the
  /// sparsifier's levels -- encode and prepare each update exactly once).
  void UpdatePrepared(const Hyperedge& e, const PreparedCoord& pc, int delta);

  /// Batched ingestion: encodes each update once and shards the k
  /// independent layers across params.threads workers (bit-identical to the
  /// serial path; each layer is owned by one worker).
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);

  /// Ingest-plane hooks (stream/ingest_plane.h): the shared codec, the
  /// trivial routing mask (every layer receives every update), and the
  /// batch fan-out to all k layers.
  const EdgeCodec& codec() const { return layers_[0].codec(); }
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch) {
    for (auto& layer : layers_) layer.ApplyUpdateBatch(v, batch);
  }

  /// Linear subtraction of a known edge set from ALL layers, in place.
  /// Queries never need this: Query's `peeled` argument decodes the
  /// residual without touching the sketch.
  void RemoveHyperedges(const std::vector<Hyperedge>& edges);

  /// The non-destructive decode: F_1 u ... u F_k where F_i spans
  /// G - F_1 - ... - F_{i-1}, plus the extraction-engine counters summed
  /// over the k layer decodes, in layer order. Layer i decodes
  /// G - F_1 - ... - F_{i-1} through its peeled Query
  /// (SpanningForestSketch::Query's `peeled`), so nothing is copied and
  /// the sketch is unchanged. A nonempty `peeled` multiset is subtracted
  /// from every layer first: the skeleton of G - peeled (the light-edge
  /// recovery of Theorem 15 peels its recovered layers this way; those
  /// sets are deterministic functions of the input graph).
  QueryResult<Hypergraph> Query(std::span<const Hyperedge> peeled = {}) const;

  /// Serving hook (src/serve/): true iff any layer's measurement state
  /// changed since construction / the last Clear().
  bool SnapshotDirty() const;

  size_t MemoryBytes() const;

  /// Bit-identity of all per-layer states (for the determinism suite).
  bool StateEquals(const KSkeletonSketch& other) const;

  /// Cell-wise field addition of another sketch of the SAME measurement
  /// (equal seed, n, max_rank, k, and params). Mismatches return
  /// InvalidArgument and leave the state untouched.
  Status MergeFrom(const KSkeletonSketch& other);

  /// A sketch of the SAME measurement with zero state: the serving-delta
  /// clone. Layers allocate zeroed arenas directly -- the parent's
  /// cells are never copied.
  KSkeletonSketch CloneEmpty() const {
    return KSkeletonSketch(*this, CloneEmptyTag{});
  }

  /// Zero every layer (the empty-stream measurement).
  void Clear();

  /// Append one wire frame (wire::FrameType::kKSkeleton) to *out: the
  /// header reconstructs all k layer shapes from the seed; the payload
  /// concatenates the layers' raw cells.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parse a frame produced by Serialize. Truncation, corruption, and shape
  /// mismatches return Status; never aborts.
  static Result<KSkeletonSketch> Deserialize(std::span<const uint8_t> bytes);

  /// Measured serialized-frame size in bytes.
  size_t SpaceBytes() const;

  /// Raw layer cells for COMPOSITE frames (the sparsifier's levels pack
  /// many skeleton sketches into one frame).
  void AppendCells(wire::Writer* w) const;
  Status ReadCells(wire::Reader* r);

 private:
  KSkeletonSketch(const KSkeletonSketch& other, CloneEmptyTag);

  size_t n_;
  size_t k_;
  uint64_t seed_;
  Params params_;
  std::vector<SpanningForestSketch> layers_;
};

}  // namespace gms

#endif  // GMS_CONNECTIVITY_K_SKELETON_H_
