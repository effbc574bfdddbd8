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
#include "stream/stream.h"
#include "util/random.h"

namespace gms {

/// One subsample's kept-bitmap: n Bernoulli(1/k) draws from `rng`, in vertex
/// order. The draw order is wire contract -- a (seed, n, k, R) header
/// reconstructs the exact bitmaps by replaying R rounds of this followed by
/// one rng.Fork() each, so every caller (constructors AND deserializers)
/// must route through this helper.
std::vector<bool> DrawKeptBitmap(Rng& rng, size_t n, size_t k);

/// Total kept (vertex, subsample) pairs over R subsamples drawn from
/// `seed`, replaying the exact constructor draw order. O(n * r) time, O(n)
/// space: lets deserializers compute the shape-implied payload size of a
/// subsampled sketch WITHOUT constructing it.
uint64_t CountKeptVertices(uint64_t seed, size_t n, size_t k, size_t r);

/// As CountKeptVertices, but per subsample: entry i is the kept count of
/// subsample i's bitmap. Hybrid forest cell sections are variable-length,
/// so deserializers skim each subsample's section against ITS active count
/// instead of one total product.
std::vector<uint64_t> KeptVertexCounts(uint64_t seed, size_t n, size_t k,
                                       size_t r);

/// Deserialization cap on n * R for subsampled sketches. Reconstruction
/// replays one Bernoulli draw and allocates ~8 bytes of dense-index state
/// per (subsample, vertex) pair regardless of how many vertices were kept,
/// so this product -- not the payload size -- is what bounds a hostile
/// frame's cost. 2^31 pairs keeps the worst case at seconds of replay.
inline constexpr uint64_t kMaxDeserializeSubsampleDraws = uint64_t{1} << 31;

/// Validate a removal-query set: every id must be < n (InvalidArgument
/// otherwise), duplicates are dropped, and the DISTINCT count must be <= k.
/// Returns the deduplicated set. Shared by the graph and hypergraph
/// Theorem 4 query sketches.
Result<std::vector<VertexId>> NormalizeQuerySet(const std::vector<VertexId>& s,
                                                size_t n, size_t k);

/// Shared substrate for Theorems 4 and 8: R vertex-subsampled spanning-
/// forest sketches plus assembly of the union graph H.
class SubsampledForestUnion {
 public:
  /// keep probability 1/k; R independent subsamples. `engine` workers
  /// shard the R sketches for batched ingestion and union-graph extraction
  /// (each sketch is owned by exactly one worker; results are bit-identical
  /// to the serial path for every thread count).
  SubsampledForestUnion(size_t n, size_t k, size_t r_subgraphs, uint64_t seed,
                        const ForestSketchParams& params,
                        const EngineParams& engine = EngineParams());

  size_t n() const { return n_; }
  size_t k() const { return k_; }
  size_t R() const { return sketches_.size(); }
  size_t threads() const { return engine_.threads; }
  uint64_t seed() const { return seed_; }
  /// Resolved Borůvka rounds of the per-subsample forest sketches.
  int rounds() const { return sketches_[0].rounds(); }

  void Update(const Edge& e, int delta);

  /// Batched ingestion: each update's codec index is encoded once and
  /// fanned out to the sketches that kept both endpoints, with the R
  /// sketches sharded across the worker pool.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);

  /// Ingest-plane hooks (stream/ingest_plane.h). The shared (n, 2) codec
  /// lets the plane prepare each update once for all R sketches.
  const EdgeCodec& codec() const { return sketches_[0].codec(); }
  /// Bit i = subsample i kept BOTH endpoints (the exact serial routing
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
  /// extractions, in sketch order.
  Result<Graph> BuildUnionGraph(ExtractStats* stats = nullptr) const;

  /// Bit-identity of all per-sketch states (for the determinism suite).
  bool StateEquals(const SubsampledForestUnion& other) const;

  /// Serving hook (src/serve/): true iff any subsample sketch's measurement
  /// state changed since construction / the last Clear().
  bool SnapshotDirty() const;

  /// covered[v]: v was kept in at least one subsample (vertices never
  /// covered are invisible to H; with the paper's R this happens with
  /// probability <= n^{-(16k-1)}).
  const std::vector<bool>& covered() const { return covered_; }
  size_t NumUncovered() const;

  size_t MemoryBytes() const;

  /// Cell-wise field addition of another union of the SAME measurement
  /// (equal seed, n, k, R, and forest params -- the kept_ bitmaps then
  /// coincide by construction). Mismatches return InvalidArgument and leave
  /// the state untouched.
  Status MergeFrom(const SubsampledForestUnion& other);

  /// Zero every subsample sketch (the empty-stream measurement).
  void Clear();

  /// A union of the SAME measurement with zero state (the clone a stream
  /// slice is sketched into before MergeFrom); the parent's cells are never
  /// copied.
  SubsampledForestUnion CloneEmpty() const {
    return SubsampledForestUnion(*this, CloneEmptyTag{});
  }

  /// Raw cells of all R sketches, in order, for COMPOSITE frames; the
  /// container header's (seed, n, k, R, params) reconstructs every shape
  /// and kept_ bitmap.
  void AppendCells(wire::Writer* w) const;
  Status ReadCells(wire::Reader* r);

 private:
  SubsampledForestUnion(const SubsampledForestUnion& other, CloneEmptyTag);

  size_t n_;
  size_t k_;
  uint64_t seed_;
  EngineParams engine_;
  std::vector<std::vector<bool>> kept_;  // kept_[i][v]
  std::vector<bool> covered_;
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
  EngineParams engine;
  ForestSketchParams forest;

  size_t ResolveR(size_t n) const;

  class Builder;
};

/// Fluent construction: VcQueryParams::Builder().K(3).RMultiplier(0.5)
///     .Engine(...).Build(). Build() validates the VC knobs here and
/// funnels the embedded engine/forest params through the shared
/// ValidateEngineParams / ForestSketchParams::Builder validation.
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
  Builder& Engine(const EngineParams& engine) {
    p_.engine = engine;
    return *this;
  }
  Builder& Forest(const ForestSketchParams& forest) {
    p_.forest = forest;
    return *this;
  }
  /// Shortcuts into the embedded engine (the two knobs every thread-sweep
  /// test and bench overrides).
  Builder& Threads(size_t threads) {
    p_.engine.threads = threads;
    return *this;
  }
  Builder& Mode(IngestMode mode) {
    p_.engine.mode = mode;
    return *this;
  }
  VcQueryParams Build() const {
    GMS_CHECK_MSG(p_.k >= 1, "VcQueryParams: k must be >= 1");
    GMS_CHECK_MSG(p_.explicit_r > 0 || p_.r_multiplier > 0.0,
                  "VcQueryParams: r_multiplier must be positive unless "
                  "explicit_r overrides R");
    ValidateEngineParams(p_.engine);
    ForestSketchParams::Builder().Config(p_.forest.config)
        .Rounds(p_.forest.rounds)
        .Engine(p_.forest.engine)
        .Build();
    return p_;
  }

 private:
  VcQueryParams p_;
};

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

  void Update(const Edge& e, int delta) { forests_.Update(e, delta); }
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
  uint64_t seed() const { return seed_; }
  size_t MemoryBytes() const { return forests_.MemoryBytes(); }

  /// Cell-wise field addition of another sketch of the SAME measurement
  /// (equal seed, n, and params). Mismatches return InvalidArgument and
  /// leave the state untouched.
  Status MergeFrom(const VcQuerySketch& other);

  /// Zero every subsample sketch.
  void Clear();

  /// A sketch of the SAME measurement with zero state (the serving-delta
  /// clone); the parent's cells are never copied.
  VcQuerySketch CloneEmpty() const {
    return VcQuerySketch(*this, CloneEmptyTag{});
  }

  /// Append one wire frame (wire::FrameType::kVcQuery) to *out. The header
  /// reconstructs all R subsample shapes and kept-bitmaps from the seed;
  /// the payload concatenates the sketches' raw cells.
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
  VcQuerySketch(const VcQuerySketch& other, CloneEmptyTag)
      : params_(other.params_),
        seed_(other.seed_),
        forests_(other.forests_.CloneEmpty()) {}

  VcQueryParams params_;
  uint64_t seed_;
  SubsampledForestUnion forests_;
};

}  // namespace gms

#endif  // GMS_VERTEXCONN_VC_QUERY_SKETCH_H_
