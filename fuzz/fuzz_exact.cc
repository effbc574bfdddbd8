// Harness for the exact post-processing kernels: bytes decode (totally, via
// testkit::DecodeFuzzExactInput) to a weighted hypergraph on n <= 16
// vertices with dyadic weights; its rank-2 hyperedges form a graph.
//
// Invariants checked per input, production kernel vs. testkit reference:
//   - VertexConnectivity equals the reference (and brute force for n <= 9),
//   - IsKVertexConnected(g, t) equals the reference and t <= kappa for
//     every t in [0, n + 1],
//   - VertexDisjointPaths equals the reference's Dinic flow for every
//     non-adjacent pair,
//   - MinimumVertexCut returns nothing (complete graph), an empty cut
//     (disconnected), or kappa vertices whose removal disconnects g,
//   - HypergraphMinCut returns the reference's (value, side) bit for bit,
//     weighted and with unit weights, the side achieves the value, and the
//     value is the brute-force minimum for n <= 9.
#include <cstddef>
#include <cstdint>
#include <span>

#include "exact/cut_eval.h"
#include "exact/hypergraph_mincut.h"
#include "exact/vertex_connectivity.h"
#include "graph/traversal.h"
#include "testkit/corpus.h"
#include "testkit/exact_reference.h"
#include "util/check.h"

namespace {

constexpr size_t kBruteMaxN = 9;

void CheckVertexKernels(const gms::Graph& g) {
  const size_t n = g.NumVertices();
  const size_t kappa = gms::VertexConnectivity(g);
  GMS_CHECK_MSG(kappa == gms::testkit::VertexConnectivityReference(g),
                "VertexConnectivity disagrees with the reference");
  if (n <= kBruteMaxN) {
    GMS_CHECK_MSG(kappa == gms::VertexConnectivityBrute(g),
                  "VertexConnectivity disagrees with brute force");
  }
  for (size_t t = 0; t <= n + 1; ++t) {
    const bool fast = gms::IsKVertexConnected(g, t);
    GMS_CHECK_MSG(fast == gms::testkit::IsKVertexConnectedReference(g, t),
                  "IsKVertexConnected disagrees with the reference");
    GMS_CHECK_MSG(fast == (t <= kappa), "IsKVertexConnected != (t <= kappa)");
  }
  for (gms::VertexId s = 0; s < n; ++s) {
    for (gms::VertexId t = s + 1; t < n; ++t) {
      if (g.HasEdge(s, t)) continue;
      GMS_CHECK_MSG(gms::VertexDisjointPaths(g, s, t) ==
                        gms::testkit::VertexDisjointPathsReference(g, s, t),
                    "VertexDisjointPaths disagrees with the reference");
    }
  }
  const auto cut = gms::MinimumVertexCut(g);
  if (!gms::IsConnected(g)) {
    GMS_CHECK(cut.has_value() && cut->empty());
  } else if (!cut.has_value()) {
    GMS_CHECK_MSG(g.NumEdges() == n * (n - 1) / 2,
                  "no vertex cut reported for an incomplete graph");
  } else {
    GMS_CHECK_MSG(cut->size() == kappa, "minimum vertex cut of wrong size");
    GMS_CHECK_MSG(!gms::IsConnectedExcluding(g, *cut),
                  "minimum vertex cut does not disconnect");
  }
}

void CheckMinCut(size_t n, const std::vector<gms::Hyperedge>& edges,
                 const std::vector<double>& weights) {
  const gms::HypergraphCut fast = gms::HypergraphMinCut(n, edges, weights);
  const gms::HypergraphCut ref =
      gms::testkit::HypergraphMinCutReference(n, edges, weights);
  GMS_CHECK_MSG(fast.value == ref.value && fast.side == ref.side,
                "HypergraphMinCut (value, side) differs from the reference");
  GMS_CHECK_MSG(
      gms::WeightedCutValue({edges, weights}, fast.side) == fast.value,
      "min cut side does not achieve its value");
  if (n <= kBruteMaxN) {
    GMS_CHECK_MSG(
        fast.value == gms::HypergraphMinCutBrute(n, edges, weights).value,
        "HypergraphMinCut disagrees with brute force");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const gms::testkit::FuzzExactInput in =
      gms::testkit::DecodeFuzzExactInput(std::span<const uint8_t>(data, size));
  gms::Graph g(in.n);
  for (const gms::Hyperedge& e : in.edges) {
    if (e.IsGraphEdge()) g.AddEdge(e.AsEdge());
  }
  CheckVertexKernels(g);
  CheckMinCut(in.n, in.edges, in.weights);
  CheckMinCut(in.n, in.edges, std::vector<double>(in.edges.size(), 1.0));
  return 0;
}
