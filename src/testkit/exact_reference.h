// Reference oracles for the exact post-processing kernels in src/exact/.
//
// These are the straightforward versions the production kernels replaced,
// kept verbatim as differential oracles for tests, fuzz harnesses and
// benches (nothing in the library calls them):
//
//   HypergraphMinCutReference    Queyranne / Klimmek-Wagner pendant pairs,
//                                re-projecting every hyperedge and scanning
//                                linearly for the max key in each phase:
//                                O(n^3 + n * p log r) for p pins, rank r.
//   VertexDisjointPathsReference One Dinic max flow on a freshly built
//                                node-split network.
//   IsKVertexConnectedReference  Even-Tarjan pair schedule with a freshly
//   VertexConnectivityReference  built Dinic node-split network per pair.
//
// The production kernels run the same pair schedules and the same
// maximum-adjacency phases, so they must return the same answers; for the
// min cut under exact (e.g. unit or dyadic) weights, the same (value,
// side) bit for bit.
#ifndef GMS_TESTKIT_EXACT_REFERENCE_H_
#define GMS_TESTKIT_EXACT_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exact/hypergraph_mincut.h"
#include "graph/graph.h"
#include "graph/hypergraph.h"

namespace gms {
namespace testkit {

/// Weighted global hypergraph min cut; weights >= 0, n >= 2.
HypergraphCut HypergraphMinCutReference(size_t n,
                                        const std::vector<Hyperedge>& edges,
                                        const std::vector<double>& weights);

/// Unit weights.
HypergraphCut HypergraphMinCutReference(const Hypergraph& g);

/// Vertex-disjoint u-v paths for non-adjacent u != v, capped at `limit`
/// when limit >= 0, by Dinic on the node-split network.
int64_t VertexDisjointPathsReference(const Graph& g, VertexId u, VertexId v,
                                     int64_t limit = -1);

/// kappa(G) >= k, by capped Dinic flows over the Even-Tarjan schedule.
bool IsKVertexConnectedReference(const Graph& g, size_t k);

/// kappa(G); complete graphs give n - 1, disconnected graphs 0.
size_t VertexConnectivityReference(const Graph& g);

}  // namespace testkit
}  // namespace gms

#endif  // GMS_TESTKIT_EXACT_REFERENCE_H_
