// Global minimum cut of a weighted hypergraph via Queyranne's
// pendant-pair algorithm (the hypergraph generalization of Stoer-Wagner,
// cf. Klimmek-Wagner / Mak-Wong). A hyperedge crosses a cut (S, V\S) if it
// intersects both sides and then contributes its weight once -- exactly the
// delta_G(S) of the paper. Includes a 2^(n-1) brute force for validation.
//
// Cost. n - 1 maximum-adjacency phases. Each phase picks the max-key vertex
// from a lazy-deletion max-heap on (key, smallest id) that gets one push per
// key raise, falling back to a cursor over the ascending live vertices once
// only key-0 vertices remain; it then contracts the last vertex into the
// one before it by rewriting only the hyperedges incident to it. With m
// hyperedges, p = sum |e| pins and rank r, a phase raises at most p * r
// keys, so it is O(n + m + p r log(p r)), and the whole call is
// O(n * (n + m + p r log(p r))) time and O(n + m + p r) memory, allocated
// per call. For a rank-2 graph with m = O(n) that is O(n^2 log n); the
// replaced O(n^3) kernel, which re-projected every edge and scanned for
// the max key, is kept as a test oracle in testkit/exact_reference.h.
#ifndef GMS_EXACT_HYPERGRAPH_MINCUT_H_
#define GMS_EXACT_HYPERGRAPH_MINCUT_H_

#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"

namespace gms {

struct HypergraphCut {
  double value = 0;
  std::vector<bool> side;  // one shore of an optimal cut
};

/// Weighted global min cut; weights must be >= 0, n >= 2. Disconnected
/// hypergraphs yield value 0.
HypergraphCut HypergraphMinCut(size_t n, const std::vector<Hyperedge>& edges,
                               const std::vector<double>& weights);

/// Unit weights.
HypergraphCut HypergraphMinCut(const Hypergraph& g);

/// Exhaustive enumeration of all 2^(n-1)-1 cuts (n <= 24).
HypergraphCut HypergraphMinCutBrute(size_t n,
                                    const std::vector<Hyperedge>& edges,
                                    const std::vector<double>& weights);
HypergraphCut HypergraphMinCutBrute(const Hypergraph& g);

}  // namespace gms

#endif  // GMS_EXACT_HYPERGRAPH_MINCUT_H_
