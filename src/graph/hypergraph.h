// Undirected hypergraph with hyperedges of cardinality in [2, r]. Stores the
// hyperedge set plus a per-vertex incidence index. The 2-uniform case is an
// ordinary multigraph-free graph; conversions both ways are provided.
#ifndef GMS_GRAPH_HYPERGRAPH_H_
#define GMS_GRAPH_HYPERGRAPH_H_

#include <unordered_map>
#include <vector>

#include "graph/edge.h"
#include "graph/graph.h"

namespace gms {

class Hypergraph {
 public:
  Hypergraph() = default;
  explicit Hypergraph(size_t n) : incident_(n) {}
  Hypergraph(size_t n, const std::vector<Hyperedge>& edges) : incident_(n) {
    for (const auto& e : edges) AddEdge(e);
  }

  /// Lift a graph into a 2-uniform hypergraph.
  static Hypergraph FromGraph(const Graph& g);

  /// Build from hyperedges the caller guarantees pairwise distinct (a
  /// spanning forest's edges each united components, so none repeats), in
  /// one pass: the index is reserved up front, there is no duplicate
  /// probe, and the edge list is moved in rather than copied. Edges()
  /// keeps the given order, so the result equals AddEdge-ing them in turn.
  static Hypergraph FromDistinctEdges(size_t n, std::vector<Hyperedge> edges);

  size_t NumVertices() const { return incident_.size(); }
  size_t NumEdges() const { return index_.size(); }

  /// Maximum hyperedge cardinality present (0 if edgeless).
  size_t Rank() const;

  /// Adds the hyperedge if absent; returns true if it was inserted.
  bool AddEdge(const Hyperedge& e);
  /// Removes the hyperedge if present; returns true if removed.
  bool RemoveEdge(const Hyperedge& e);
  bool HasEdge(const Hyperedge& e) const { return index_.contains(e); }

  /// All hyperedges, each once, in insertion-compacted order.
  const std::vector<Hyperedge>& Edges() const { return edges_; }

  /// Indices (into Edges()) of hyperedges incident to v.
  const std::vector<uint32_t>& IncidentIndices(VertexId v) const {
    return incident_[v];
  }
  size_t Degree(VertexId v) const { return incident_[v].size(); }

  void AddAll(const Hypergraph& other);

  /// Hypergraph obtained by deleting the listed vertices; a hyperedge
  /// survives (restricted) only if it loses no vertices, matching the
  /// induced-subhypergraph semantics used in Section 3 (a hyperedge of G
  /// belongs to G_i iff all its vertices were sampled).
  Hypergraph InducedExcluding(const std::vector<VertexId>& removed) const;

  /// Restrict to hyperedges entirely within `keep` (same semantics,
  /// complement interface).
  bool operator==(const Hypergraph& other) const;

  /// For 2-uniform hypergraphs: the corresponding Graph. Hyperedges of
  /// cardinality > 2 are CHECK-rejected.
  Graph ToGraph() const;

  /// Number of hyperedges crossing the cut (S, V \ S), where crossing means
  /// intersecting both sides (the paper's delta_G(S)).
  size_t CutSize(const std::vector<bool>& in_s) const;

 private:
  std::vector<Hyperedge> edges_;
  std::unordered_map<Hyperedge, uint32_t, HyperedgeHasher> index_;
  std::vector<std::vector<uint32_t>> incident_;
};

}  // namespace gms

#endif  // GMS_GRAPH_HYPERGRAPH_H_
