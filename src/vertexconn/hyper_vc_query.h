// Hypergraph vertex-removal queries: the Section 4.1 remark made concrete.
//
// The paper notes that substituting the hypergraph spanning-graph sketch
// (Theorem 13) for Theorem 2 makes the Section 3 vertex-connectivity
// constructions "go through for hypergraphs unchanged". This class is that
// construction, on the same SubsampledForestUnion as VcQuerySketch with
// the rank raised: R vertex-subsampled sub-hypergraphs G_i (a hyperedge
// belongs to G_i iff ALL its vertices were kept -- induced semantics), one
// spanning-graph sketch per G_i, and queries on the union H of the decoded
// spanning graphs: removing S (|S| <= k) disconnects G iff it disconnects
// H, whp (Lemma 3's proof is oblivious to edge cardinality).
//
// Note on estimation: only the QUERY structure generalizes cleanly. Under
// induced semantics a removed vertex kills whole hyperedges, so exact
// kappa becomes a colored-cut problem with no known max-flow formulation;
// exact ground truth is exponential (VertexConnectivityBrute) and the
// Theorem 8 postprocessing step would inherit that cost.
#ifndef GMS_VERTEXCONN_HYPER_VC_QUERY_H_
#define GMS_VERTEXCONN_HYPER_VC_QUERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/hypergraph.h"
#include "stream/stream.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {

/// The value type HyperVcQuerySketch::Query() returns: the assembled union
/// hypergraph H plus the removal-query logic, detached from the sketch (see
/// VcUnionSnapshot; Lemma 3's proof is oblivious to edge cardinality).
/// There is no VertexConnectivityAtLeast here: under induced semantics
/// exact hypergraph kappa has no known max-flow formulation (header note).
class HyperVcUnionSnapshot {
 public:
  HyperVcUnionSnapshot() = default;
  HyperVcUnionSnapshot(Hypergraph h, size_t n, size_t k)
      : h_(std::move(h)), n_(n), k_(k) {}

  /// Does removing S (|S| <= k) disconnect the hypergraph? Induced
  /// semantics: hyperedges touching S are gone. S is deduplicated and
  /// range-checked like VcUnionSnapshot::Disconnects.
  Result<bool> Disconnects(const std::vector<VertexId>& s) const;

  const Hypergraph& union_graph() const { return h_; }
  size_t n() const { return n_; }
  size_t k() const { return k_; }

 private:
  Hypergraph h_;
  size_t n_ = 0;
  size_t k_ = 0;
};

/// The rank-r Theorem 4 sketch: one rank-r SubsampledForestUnion (the
/// construction VcQuerySketch holds at rank 2) under its own kHyperVcQuery
/// frame.
class HyperVcQuerySketch {
 public:
  using Params = VcQueryParams;

  HyperVcQuerySketch(size_t n, size_t max_rank, const Params& params,
                     uint64_t seed);

  size_t n() const { return forests_.n(); }
  size_t k() const { return params_.k; }
  size_t R() const { return forests_.R(); }
  size_t max_rank() const { return forests_.max_rank(); }
  uint64_t seed() const { return forests_.seed(); }

  /// Ingest, merge and state calls forward to the union: a hyperedge
  /// reaches every subsample that kept ALL of its vertices, batched ingest
  /// is bit-identical to serial Update for every engine setting, and
  /// MergeFrom refuses a different measurement (seed, n, max_rank, k, R or
  /// forest params) without touching the state.
  void Update(const Hyperedge& e, int delta) { forests_.Update(e, delta); }
  void Process(std::span<const StreamUpdate> updates) {
    forests_.Process(updates);
  }
  void Process(const DynamicStream& stream) { forests_.Process(stream); }
  bool SnapshotDirty() const { return forests_.SnapshotDirty(); }
  size_t MemoryBytes() const { return forests_.MemoryBytes(); }
  bool StateEquals(const HyperVcQuerySketch& other) const {
    return forests_.StateEquals(other.forests_);
  }
  Status MergeFrom(const HyperVcQuerySketch& other) {
    return forests_.MergeFrom(other.forests_);
  }
  void Clear() { forests_.Clear(); }
  /// A sketch of the SAME measurement with zero state (the serving-delta
  /// clone); the parent's cells are never copied.
  HyperVcQuerySketch CloneEmpty() const {
    return HyperVcQuerySketch(params_, forests_.CloneEmpty());
  }

  /// The unified non-destructive query: assemble H on a CONST sketch and
  /// return it as a detached snapshot (plus the extraction counters summed
  /// over the R decodes). Query repeatedly on the snapshot; the sketch
  /// itself never changes, so ingestion can continue.
  QueryResult<HyperVcUnionSnapshot> Query() const;

  /// One kHyperVcQuery frame (WriteSubsampledFrame). Deserialize returns
  /// Status on truncation, corruption and shape mismatches; never aborts.
  void Serialize(std::vector<uint8_t>* out) const;
  static Result<HyperVcQuerySketch> Deserialize(
      std::span<const uint8_t> bytes);
  /// Measured serialized-frame size in bytes.
  size_t SpaceBytes() const;

 private:
  HyperVcQuerySketch(VcQueryParams params, SubsampledForestUnion forests)
      : params_(std::move(params)), forests_(std::move(forests)) {}

  VcQueryParams params_;
  SubsampledForestUnion forests_;
};

}  // namespace gms

#endif  // GMS_VERTEXCONN_HYPER_VC_QUERY_H_
