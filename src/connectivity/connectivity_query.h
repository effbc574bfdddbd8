// High-level dynamic-stream query objects built on the spanning-graph and
// k-skeleton sketches: connectivity, component counting, and k-edge-
// connectivity for graphs AND hypergraphs (the paper's "first dynamic graph
// algorithm for determining hypergraph connectivity", Section 4.1).
#ifndef GMS_CONNECTIVITY_CONNECTIVITY_QUERY_H_
#define GMS_CONNECTIVITY_CONNECTIVITY_QUERY_H_

#include <cstdint>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "exact/hypergraph_mincut.h"

namespace gms {

/// Single-pass connectivity / component counting over a dynamic hyperedge
/// stream using one spanning-graph sketch (O(n polylog n) space).
class ConnectivityQuery {
 public:
  ConnectivityQuery(size_t n, size_t max_rank, uint64_t seed,
                    const SpanningForestSketch::Params& params =
                        SpanningForestSketch::Params());

  void Update(const Hyperedge& e, int delta) { sketch_.Update(e, delta); }
  void Process(const DynamicStream& stream) { sketch_.Process(stream); }

  /// Is the sketched hypergraph connected? (One-sided whp guarantee: a
  /// "true" answer is always correct since the witness is an actual
  /// spanning subgraph; "false" may be a sampler failure with small
  /// probability.)
  Result<bool> IsConnected() const;

  Result<size_t> NumComponents() const;

  /// Are u and v in the same connected component? (Same one-sidedness as
  /// IsConnected: "true" is witnessed by actual edges.)
  Result<bool> SameComponent(VertexId u, VertexId v) const;

  /// The witness spanning subgraph itself.
  Result<Hypergraph> SpanningGraph() const {
    return sketch_.ExtractSpanningGraph();
  }

  size_t MemoryBytes() const { return sketch_.MemoryBytes(); }

 private:
  SpanningForestSketch sketch_;
};

/// Dynamic k-edge-connectivity: a hypergraph is k-edge-connected iff its
/// k-skeleton is (Definition 11); the skeleton's min cut equals
/// min(k, mincut(G)) so the sketch also reports min(k, edge connectivity).
class EdgeConnectivityQuery {
 public:
  EdgeConnectivityQuery(size_t n, size_t max_rank, size_t k, uint64_t seed,
                        const SpanningForestSketch::Params& params =
                            SpanningForestSketch::Params());

  void Update(const Hyperedge& e, int delta) { sketch_.Update(e, delta); }
  void Process(const DynamicStream& stream) { sketch_.Process(stream); }

  /// min(k, edge connectivity of G), computed exactly on the decoded
  /// skeleton.
  Result<size_t> EdgeConnectivityCapped() const;

  Result<bool> IsKEdgeConnected() const;

  /// A cut achieving the capped value. When value < k, the returned shore
  /// is a GENUINE minimum cut of G: a skeleton cut of size c < k preserves
  /// the corresponding G-cut exactly (|delta_H(S)| >= min(|delta_G(S)|, k)
  /// forces |delta_G(S)| = c). When value == k it is only a witness that
  /// every G-cut has size >= k.
  Result<HypergraphCut> MinCut() const;

  /// The decoded k-skeleton.
  Result<Hypergraph> Skeleton() const { return sketch_.Extract(); }

  size_t k() const { return sketch_.k(); }
  size_t MemoryBytes() const { return sketch_.MemoryBytes(); }

 private:
  KSkeletonSketch sketch_;
};

}  // namespace gms

#endif  // GMS_CONNECTIVITY_CONNECTIVITY_QUERY_H_
