// Quickstart: sketch a dynamic graph stream in one pass, then answer
// connectivity, k-edge-connectivity, and vertex-removal questions -- the
// three headline capabilities of the library.
//
//   $ ./quickstart
#include <cstdio>

#include "apps/approx_min_cut.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"
#include "vertexconn/vc_query_sketch.h"

using namespace gms;

int main() {
  std::printf("graphsketch quickstart\n");
  std::printf("----------------------\n");

  // A graph with a planted 2-vertex separator, streamed with heavy churn:
  // half again as many edges are inserted and later deleted.
  const size_t n = 64;
  auto planted = PlantedSeparator(n, /*k=*/2, /*seed=*/7);
  DynamicStream stream =
      DynamicStream::WithChurn(planted.graph, planted.graph.NumEdges() / 2,
                               /*seed=*/8);
  std::printf("input: n=%zu, m=%zu, stream of %zu updates (%zu deletions)\n",
              n, planted.graph.NumEdges(), stream.size(),
              (stream.size() - planted.graph.NumEdges()) / 2);

  // --- 1. Connectivity from O(n polylog n) space (Theorem 2). ---
  SpanningForestSketch connectivity(n, /*max_rank=*/2, /*seed=*/1);
  connectivity.Process(stream);
  auto forest = connectivity.Query();
  std::printf("\n[1] connectivity sketch: %s (space %.1f KiB)\n",
              forest.ok() ? (IsConnected(forest.value()) ? "CONNECTED"
                                                         : "disconnected")
                          : forest.status().ToString().c_str(),
              connectivity.MemoryBytes() / 1024.0);

  // --- 2. k-edge-connectivity via a k-skeleton (Theorem 14). ---
  apps::ApproxMinCut edge_conn(n, 2, /*k_cap=*/4, /*seed=*/2);
  edge_conn.Process(stream);
  auto lambda = edge_conn.Query();
  if (lambda.ok()) {
    std::printf("[2] k-skeleton sketch:   min(4, edge connectivity) = %zu\n",
                lambda.value().value);
  }

  // --- 3. Vertex-removal queries (Theorem 4). ---
  const VcQueryParams params =
      VcQueryParams::Builder()
          .K(2)
          .RMultiplier(0.5)  // fraction of the paper's 16 k^2 ln n
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Build();
  VcQuerySketch vc(n, params, /*seed=*/3);
  vc.Process(stream);
  auto vc_snap = vc.Query();
  if (!vc_snap.ok()) {
    std::printf("[3] query failed\n");
    return 1;
  }
  auto hit = vc_snap.value().Disconnects(planted.separator);
  std::printf(
      "[3] vertex-removal sketch (R=%zu forests, %.1f KiB):\n"
      "    removing the planted separator {%u, %u}  -> %s\n",
      vc.R(), vc.MemoryBytes() / 1024.0, planted.separator[0],
      planted.separator[1],
      hit.ok() && *hit ? "DISCONNECTS (correct!)" : "stays connected");
  std::vector<VertexId> decoy = {planted.side_a[0], planted.side_b[0]};
  auto miss = vc_snap.value().Disconnects(decoy);
  std::printf("    removing a non-separator pair {%u, %u} -> %s\n", decoy[0],
              decoy[1],
              miss.ok() && !*miss ? "stays connected (correct!)"
                                  : "DISCONNECTS");

  std::printf(
      "\nAll three answers came from linear sketches maintained in one "
      "pass\nover an insert+delete stream -- no edge was ever stored "
      "explicitly.\n");
  return 0;
}
