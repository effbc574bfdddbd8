// Hypergraph vertex-removal queries: the Section 4.1 remark made concrete.
//
// The paper notes that substituting the hypergraph spanning-graph sketch
// (Theorem 13) for Theorem 2 makes the Section 3 vertex-connectivity
// constructions "go through for hypergraphs unchanged". This class is that
// construction: R vertex-subsampled sub-hypergraphs G_i (a hyperedge
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

class HyperVcQuerySketch {
 public:
  using Params = VcQueryParams;

  HyperVcQuerySketch(size_t n, size_t max_rank, const Params& params,
                     uint64_t seed);

  size_t n() const { return n_; }
  size_t k() const { return params_.k; }
  size_t R() const { return sketches_.size(); }
  size_t max_rank() const { return sketches_[0].max_rank(); }
  uint64_t seed() const { return seed_; }

  /// Linear update; the hyperedge is routed to every subsample that kept
  /// ALL of its vertices.
  void Update(const Hyperedge& e, int delta);

  /// Batched ingestion: one codec encode per update, R sketches sharded
  /// across params.engine.threads workers (bit-identical to the serial path).
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);

  /// The unified non-destructive query: assemble H on a CONST sketch and
  /// return it as a detached snapshot (plus the extraction counters summed
  /// over the R decodes). Query repeatedly on the snapshot; the sketch
  /// itself never changes, so ingestion can continue.
  QueryResult<HyperVcUnionSnapshot> Query() const;

  /// Serving hook (src/serve/): true iff any subsample sketch's measurement
  /// state changed since construction / the last Clear().
  bool SnapshotDirty() const;

  size_t MemoryBytes() const;

  /// Bit-identity of all per-sketch states (for the determinism suite).
  bool StateEquals(const HyperVcQuerySketch& other) const;

  /// Cell-wise field addition of another sketch of the SAME measurement
  /// (equal seed, n, max_rank, k, R, and forest params). Mismatches return
  /// InvalidArgument, state untouched.
  Status MergeFrom(const HyperVcQuerySketch& other);

  /// Zero every subsample sketch.
  void Clear();

  /// A sketch of the SAME measurement with zero state (the clone a
  /// stream slice is sketched into before MergeFrom); the parent's cells are
  /// never copied.
  HyperVcQuerySketch CloneEmpty() const {
    return HyperVcQuerySketch(*this, CloneEmptyTag{});
  }

  /// Append one wire frame (wire::FrameType::kHyperVcQuery) to *out; the
  /// header reconstructs all shapes and kept-bitmaps from the seed.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parse a frame produced by Serialize. Truncation, corruption, and shape
  /// mismatches return Status; never aborts.
  static Result<HyperVcQuerySketch> Deserialize(
      std::span<const uint8_t> bytes);

  /// Measured serialized-frame size in bytes.
  size_t SpaceBytes() const;

 private:
  HyperVcQuerySketch(const HyperVcQuerySketch& other, CloneEmptyTag);

  /// The decode behind Query(): R parallel decodes, then a deterministic
  /// serial union.
  Result<Hypergraph> BuildUnionHypergraph(ExtractStats* stats) const;

  size_t n_;
  VcQueryParams params_;
  uint64_t seed_;
  std::vector<std::vector<bool>> kept_;
  std::vector<SpanningForestSketch> sketches_;
};

}  // namespace gms

#endif  // GMS_VERTEXCONN_HYPER_VC_QUERY_H_
