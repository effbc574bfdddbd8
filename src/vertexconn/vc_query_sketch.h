// Vertex-connectivity query sketches (Section 3.1, Theorem 4).
//
// For i = 1..R (paper: R = 16 k^2 ln n), G_i keeps each vertex with
// probability 1/k; the sketch maintains a spanning-forest sketch of each
// G_i (an edge enters sketch i iff both endpoints were kept). At query
// time H = T_1 u ... u T_R is assembled once, and by Lemma 3, for ANY set
// S of at most k vertices, H \ S is connected iff G \ S is connected whp.
// Total space O(kn polylog n): each G_i has ~n/k sketched vertices.
#ifndef GMS_VERTEXCONN_VC_QUERY_SKETCH_H_
#define GMS_VERTEXCONN_VC_QUERY_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"
#include "stream/stream.h"
#include "wire/wire.h"

namespace gms {

/// Total kept (vertex, subsample) pairs over R subsamples drawn from
/// `seed`, replaying the exact constructor draw order. O(n * r) time, O(n)
/// space: the shape-implied size of a subsampled sketch WITHOUT
/// constructing it.
uint64_t CountKeptVertices(uint64_t seed, size_t n, size_t k, size_t r);

/// Validate a removal-query set: every id must be < n (InvalidArgument
/// otherwise), duplicates are dropped, and the DISTINCT count must be <= k.
/// Returns the deduplicated set. Shared by the graph and hypergraph
/// Theorem 4 query sketches.
Result<std::vector<VertexId>> NormalizeQuerySet(const std::vector<VertexId>& s,
                                                size_t n, size_t k);

/// Shared substrate for Theorems 4 and 8 and the Section 4.1 hypergraph
/// remark: R vertex-subsampled spanning-forest sketches of one rank plus
/// assembly of the union graph H. A hyperedge enters sketch i iff
/// subsample i kept ALL of its vertices (induced semantics; for rank 2,
/// both endpoints). VcQuerySketch and VcEstimator hold a rank-2 union,
/// HyperVcQuerySketch a rank-r one.
class SubsampledForestUnion {
 public:
  /// keep probability 1/k; R independent subsamples. `threads` workers
  /// shard the R sketches for batched ingestion and union-graph extraction
  /// (each sketch is owned by exactly one worker; results are bit-identical
  /// to the serial path for every thread count). params.threads must be 1:
  /// each subsample sketch runs on the one worker that owns it.
  SubsampledForestUnion(size_t n, size_t max_rank, size_t k,
                        size_t r_subgraphs, uint64_t seed,
                        const ForestSketchParams& params,
                        size_t threads = 1);

  size_t n() const { return n_; }
  size_t max_rank() const { return sketches_[0].max_rank(); }
  size_t k() const { return k_; }
  size_t R() const { return sketches_.size(); }
  uint64_t seed() const { return seed_; }
  /// Resolved Borůvka rounds of the per-subsample forest sketches.
  int rounds() const { return sketches_[0].rounds(); }

  /// Linear update, routed to every subsample that kept ALL of e's
  /// vertices.
  void Update(const Hyperedge& e, int delta);

  /// Batched ingestion: each update's codec index is encoded once and
  /// fanned out to the sketches that kept all its vertices, with the R
  /// sketches sharded across the worker pool; each sketch ingests its
  /// updates through the forest write kernel (SpanningForestSketch::
  /// ProcessPrepared).
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream) {
    Process(std::span<const StreamUpdate>(stream.updates()));
  }

  /// Ingest-plane hooks (stream/ingest_plane.h). The shared (n, max_rank)
  /// codec lets the plane prepare each update once for all R sketches.
  const EdgeCodec& codec() const { return sketches_[0].codec(); }
  /// Bit i = subsample i kept ALL of e's vertices (the exact serial routing
  /// predicate, evaluated once per update and carried in the entry).
  uint64_t PlaneRouteMask(const Hyperedge& e) const;
  /// Fan a vertex batch out to every subsample whose routing bit is set.
  /// An entry's bit i implies v was kept in subsample i, so the inner
  /// sketches' active-vertex CHECK holds by construction.
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch);
  /// The route word carries one bit per subsample; R > 64 cannot join a
  /// plane and ingests on its own.
  bool PlaneSupported() const { return sketches_.size() <= 64; }
  /// Route-word width for the shared ingestion plane (stream/
  /// ingest_plane.h): one packed bit per subsample.
  size_t PlaneRouteBits() const { return sketches_.size(); }

  /// H = union of one extracted spanning forest per subsample; the R
  /// per-sketch extractions fan out across the pool (each worker reuses its
  /// thread-local extraction scratch across the sketches it owns), and H is
  /// assembled serially in sketch order (deterministic). When `stats` is
  /// non-null it receives the extraction-engine counters summed over all R
  /// extractions, in sketch order. BuildUnionGraph needs a rank-2 union.
  Result<Graph> BuildUnionGraph(ExtractStats* stats = nullptr) const;
  Result<Hypergraph> BuildUnionHypergraph(ExtractStats* stats = nullptr) const;

  /// Bit-identity of all per-sketch states (for the determinism suite).
  bool StateEquals(const SubsampledForestUnion& other) const;

  /// Serving hook (src/serve/): true iff any subsample sketch's measurement
  /// state changed since construction / the last Clear().
  bool SnapshotDirty() const;

  /// Vertices kept in no subsample (invisible to H; with the paper's R a
  /// vertex is uncovered with probability <= n^{-(16k-1)}).
  size_t NumUncovered() const;

  size_t MemoryBytes() const;

  /// Cell-wise field addition of another union of the SAME measurement
  /// (equal seed, n, max_rank, k, R, and forest params -- the kept_
  /// bitmaps then coincide by construction). Mismatches return
  /// InvalidArgument and leave the state untouched.
  Status MergeFrom(const SubsampledForestUnion& other);

  /// Zero every subsample sketch (the empty-stream measurement).
  void Clear();

  /// A union of the SAME measurement with zero state (the clone a stream
  /// slice is sketched into before MergeFrom); the parent's cells are never
  /// copied.
  SubsampledForestUnion CloneEmpty() const {
    return SubsampledForestUnion(*this, CloneEmptyTag{});
  }

  /// Raw cells of all R sketches, in order (the Theorem 4 frame payload;
  /// the header's seed, n, max_rank, k, R and params rebuild every shape
  /// and kept_ bitmap).
  void AppendCells(wire::Writer* w) const;
  Status ReadCells(wire::Reader* r);

 private:
  SubsampledForestUnion(const SubsampledForestUnion& other, CloneEmptyTag);

  /// The R decodes behind BuildUnionGraph / BuildUnionHypergraph: entry i
  /// is subsample i's spanning forest.
  Result<std::vector<std::vector<Hyperedge>>> DecodeForests(
      ExtractStats* stats) const;

  size_t n_;
  size_t k_;
  uint64_t seed_;
  size_t threads_;
  std::vector<std::vector<bool>> kept_;  // kept_[i][v]
  std::vector<SpanningForestSketch> sketches_;
};

struct VcQueryParams {
  size_t k = 2;  // max queried separator size
  /// Multiplier on the paper's R = 16 k^2 ln n (1.0 = paper constants;
  /// benchmarks sweep this to locate the empirical success threshold).
  double r_multiplier = 1.0;
  /// If nonzero, overrides R entirely.
  size_t explicit_r = 0;
  /// Worker threads sharding the R sketches during Process/Query (see
  /// util/parallel.h; outputs are bit-identical for every setting).
  size_t threads = 1;
  /// Per-subsample forest params; forest.threads must stay 1.
  ForestSketchParams forest;

  size_t ResolveR(size_t n) const;

  class Builder;
};

/// Fluent construction: VcQueryParams::Builder().K(3).RMultiplier(0.5)
///     .Threads(4).Build(). Build() validates the VC knobs here and
/// the embedded forest params through ForestSketchParams::Builder.
class VcQueryParams::Builder {
 public:
  Builder() = default;
  /// Copy-with: seed the builder from existing params, override a few
  /// knobs, Build(). (Re-)validates everything, including untouched fields.
  explicit Builder(const VcQueryParams& from) : p_(from) {}

  Builder& K(size_t k) {
    p_.k = k;
    return *this;
  }
  Builder& RMultiplier(double r_multiplier) {
    p_.r_multiplier = r_multiplier;
    return *this;
  }
  Builder& ExplicitR(size_t r) {
    p_.explicit_r = r;
    return *this;
  }
  Builder& Forest(const ForestSketchParams& forest) {
    p_.forest = forest;
    return *this;
  }
  Builder& Threads(size_t threads) {
    p_.threads = threads;
    return *this;
  }
  VcQueryParams Build() const {
    GMS_CHECK_MSG(p_.k >= 1, "VcQueryParams: k must be >= 1");
    GMS_CHECK_MSG(p_.explicit_r > 0 || p_.r_multiplier > 0.0,
                  "VcQueryParams: r_multiplier must be positive unless "
                  "explicit_r overrides R");
    GMS_CHECK_MSG(p_.threads >= 1, "VcQueryParams: threads must be >= 1");
    ForestSketchParams::Builder(p_.forest).Build();
    return p_;
  }

 private:
  VcQueryParams p_;
};

/// The Theorem 4 frames (kVcQuery, kHyperVcQuery) share one layout: a
/// header of n, max_rank (kHyperVcQuery only; kVcQuery is rank 2), k, R,
/// seed and the forest params with rounds resolved, then every subsample's
/// cells in order. R travels resolved so r_multiplier never has to
/// round-trip a double.
void WriteSubsampledFrame(wire::FrameType type,
                          const SubsampledForestUnion& forests,
                          const ForestSketchParams& forest,
                          std::vector<uint8_t>* out);

/// A Theorem 4 frame read back: the union with its cells, and the params
/// its owner is rebuilt with (k, explicit_r = R, the frame's forest params).
struct SubsampledFrame {
  VcQueryParams params;
  SubsampledForestUnion forests;
};

/// Parse a Theorem 4 frame of `type` and rebuild its union. The frame is
/// checked before anything is constructed: shape ranges, the n * R cap,
/// and a walk of every subsample's cell section against its replayed kept
/// count. Truncation, corruption and hostile shapes return Status; never
/// aborts.
Result<SubsampledFrame> ReadSubsampledFrame(std::span<const uint8_t> bytes,
                                            wire::FrameType type);

/// The value type VcQuerySketch::Query() returns: the assembled union graph
/// H plus the removal-query logic, detached from the sketch. Lemma 3: for
/// ANY S with |S| <= k, H \ S is connected iff G \ S is connected whp, so
/// every query this snapshot can answer is answered from H alone -- the
/// sketch can keep ingesting (or be merged, cleared, destroyed) without
/// invalidating a snapshot already handed out.
class VcUnionSnapshot {
 public:
  VcUnionSnapshot() = default;
  VcUnionSnapshot(Graph h, size_t n, size_t k)
      : h_(std::move(h)), n_(n), k_(k) {}

  /// Whether removing S disconnects the graph (Lemma 3 semantics: the
  /// surviving vertices fail to be mutually connected). S is deduplicated
  /// and range-checked: out-of-range vertex ids are InvalidArgument, and
  /// |S| counts DISTINCT vertices against k.
  Result<bool> Disconnects(const std::vector<VertexId>& s) const;

  /// kappa(G) >= t? Exact vertex connectivity of H, valid for t <= k + 1:
  /// kappa(H) >= t iff no (t-1)-subset disconnects H, and Lemma 3 covers
  /// every removal set of size <= k. t > k + 1 is InvalidArgument (the
  /// sketch was not built to certify that much connectivity).
  Result<bool> VertexConnectivityAtLeast(size_t t) const;

  const Graph& union_graph() const { return h_; }
  size_t n() const { return n_; }
  size_t k() const { return k_; }

 private:
  Graph h_;
  size_t n_ = 0;
  size_t k_ = 0;
};

/// Theorem 4: after one pass over a dynamic edge stream, answers "does
/// removing S (|S| <= k) disconnect the graph?" for any query set S chosen
/// AFTER the stream.
class VcQuerySketch {
 public:
  using Params = VcQueryParams;

  VcQuerySketch(size_t n, const Params& params, uint64_t seed);

  void Update(const Edge& e, int delta) {
    forests_.Update(Hyperedge(e), delta);
  }
  void Process(std::span<const StreamUpdate> updates) {
    forests_.Process(updates);
  }
  void Process(const DynamicStream& stream) { forests_.Process(stream); }

  /// The unified non-destructive query: assemble H on a CONST sketch and
  /// return it as a detached snapshot (plus the extraction counters summed
  /// over the R per-subsample decodes). Query repeatedly on the snapshot;
  /// the sketch itself never changes, so ingestion can continue.
  QueryResult<VcUnionSnapshot> Query() const;

  /// Serving hook (src/serve/): true iff any subsample sketch's measurement
  /// state changed since construction / the last Clear().
  bool SnapshotDirty() const { return forests_.SnapshotDirty(); }

  /// Ingest-plane hooks (stream/ingest_plane.h), forwarded to the
  /// R-subsample union so the serving layer can register this sketch on a
  /// shared plane directly.
  const EdgeCodec& codec() const { return forests_.codec(); }
  uint64_t PlaneRouteMask(const Hyperedge& e) const {
    return forests_.PlaneRouteMask(e);
  }
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch) {
    forests_.ApplyUpdateBatch(v, batch);
  }
  bool PlaneSupported() const { return forests_.PlaneSupported(); }
  size_t PlaneRouteBits() const { return forests_.PlaneRouteBits(); }

  size_t n() const { return forests_.n(); }
  size_t R() const { return forests_.R(); }
  size_t k() const { return params_.k; }
  uint64_t seed() const { return forests_.seed(); }
  size_t MemoryBytes() const { return forests_.MemoryBytes(); }

  /// Cell-wise field addition of another sketch of the SAME measurement
  /// (equal seed, n, and params). Mismatches return InvalidArgument and
  /// leave the state untouched.
  Status MergeFrom(const VcQuerySketch& other) {
    return forests_.MergeFrom(other.forests_);
  }

  /// Zero every subsample sketch.
  void Clear() { forests_.Clear(); }

  /// A sketch of the SAME measurement with zero state (the serving-delta
  /// clone); the parent's cells are never copied.
  VcQuerySketch CloneEmpty() const {
    return VcQuerySketch(params_, forests_.CloneEmpty());
  }

  /// Append one wire frame (wire::FrameType::kVcQuery, the layout of
  /// WriteSubsampledFrame) to *out. The header reconstructs all R subsample
  /// shapes and kept-bitmaps from the seed; the payload concatenates the
  /// sketches' raw cells.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parse a frame produced by Serialize. Truncation, corruption, and shape
  /// mismatches return Status; never aborts.
  static Result<VcQuerySketch> Deserialize(std::span<const uint8_t> bytes);

  /// Measured serialized-frame size in bytes.
  size_t SpaceBytes() const;

  bool StateEquals(const VcQuerySketch& other) const {
    return forests_.StateEquals(other.forests_);
  }

 private:
  VcQuerySketch(VcQueryParams params, SubsampledForestUnion forests)
      : params_(std::move(params)), forests_(std::move(forests)) {}

  VcQueryParams params_;
  SubsampledForestUnion forests_;
};

}  // namespace gms

#endif  // GMS_VERTEXCONN_VC_QUERY_SKETCH_H_
