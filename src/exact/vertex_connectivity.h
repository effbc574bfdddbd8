// Exact vertex connectivity: node-split max-flow for pairwise vertex
// connectivity (Even-Tarjan), the global kappa(G) loop, a k-connectivity
// decision procedure with capped flows, and an exponential brute force used
// to validate everything on small instances. These implement the
// "run any vertex connectivity algorithm on H in postprocessing" step of
// Theorem 8 and serve as the ground truth for Section 3's sketches.
//
// Cost. Each call builds one node-split network in CSR form, O(n + m log
// Delta), and reuses it for every pair of its schedule. A pair capped at c
// paths costs at most c + 1 BFS passes of O(n + m) with no allocation, and
// its flow is capped further at min(deg s, deg t). With n vertices, m
// edges and a schedule of at most (c + 1) * n pairs:
//   IsKVertexConnected(g, k)   O(k^2 * n * (n + m)) worst case (c = k);
//                              O(n) when the min-degree check rejects;
//   VertexConnectivity(g)      O(kappa * delta * n * (n + m)), delta the
//                              min degree (the first pairs run uncapped);
//   MinimumVertexCut(g)        as VertexConnectivity, plus one pair;
//   VertexDisjointPaths        one network build plus one pair.
// Workspaces live for one call, so concurrent calls on one const Graph
// are safe. The replaced per-pair Dinic kernels are kept as test oracles in
// testkit/exact_reference.h.
#ifndef GMS_EXACT_VERTEX_CONNECTIVITY_H_
#define GMS_EXACT_VERTEX_CONNECTIVITY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/hypergraph.h"

namespace gms {

/// Maximum number of vertex-disjoint u-v paths for NON-adjacent u, v
/// (= the minimum u-v vertex cut, by Menger). Flows are capped at `limit`
/// when given (the return value is then min(true value, limit)).
int64_t VertexDisjointPaths(const Graph& g, VertexId u, VertexId v,
                            int64_t limit = -1);

/// Global vertex connectivity kappa(G). Complete graphs give n-1;
/// disconnected graphs give 0. O(n) max-flow computations via the
/// Even-Tarjan pair schedule.
size_t VertexConnectivity(const Graph& g);

/// Decision version: kappa(G) >= k? Flows capped at k, so much faster than
/// computing kappa exactly for small k.
bool IsKVertexConnected(const Graph& g, size_t k);

/// A minimum vertex cut (empty optional when the graph is complete, which
/// has no vertex cut). For disconnected graphs returns an empty vector.
std::optional<std::vector<VertexId>> MinimumVertexCut(const Graph& g);

/// Brute force over all vertex subsets of size < n - 1; exponential, for
/// cross-validation on tiny graphs (n <= ~18).
size_t VertexConnectivityBrute(const Graph& g);

/// Hypergraph vertex connectivity under induced-subhypergraph semantics
/// (removing S also removes every hyperedge touching S, as in Section 3's
/// vertex subsampling). Computed by exhaustive search: under these
/// semantics a removed vertex invalidates whole hyperedges, which breaks
/// the max-flow formulation (the minimum "hitting" separator is a colored
/// cut), so no polynomial exact routine is provided -- the sketch-side
/// query (Theorem 4's hypergraph analogue) never needs one.
size_t VertexConnectivityBrute(const Hypergraph& g);

}  // namespace gms

#endif  // GMS_EXACT_VERTEX_CONNECTIVITY_H_
