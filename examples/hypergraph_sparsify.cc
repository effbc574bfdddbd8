// Scenario: sparsifying a co-authorship-style hypergraph for cut analysis.
//
// Publications are hyperedges over their author sets; the hypergraph
// evolves as records are added and retracted. We maintain the Section 5
// sparsifier sketch over the stream and, at the end, extract a weighted
// sparsifier, compare its cuts against ground truth, and run a min-cut
// analysis (the "community split" question) on the small sparsifier
// instead of the big graph -- the load-balancing / partitioning use case
// the paper's introduction cites.
//
//   $ ./hypergraph_sparsify
#include <cstdio>

#include "exact/hypergraph_mincut.h"
#include "graph/generators.h"
#include "sparsify/sparsifier_sketch.h"
#include "sparsify/verify.h"
#include "stream/stream.h"

using namespace gms;

int main() {
  std::printf("hypergraph_sparsify: streaming cut sparsification\n\n");

  // Synthetic co-authorship data: two communities with dense internal
  // collaboration and exactly 3 cross-community papers.
  const size_t n = 15;
  auto planted = PlantedHypergraphCut(n, /*r=*/3, /*cut_size=*/3,
                                      /*edges_per_side=*/25, /*seed=*/1);
  const Hypergraph& record_db = planted.hypergraph;
  std::printf("input: %zu authors, %zu publications (rank <= 3)\n", n,
              record_db.NumEdges());

  // Stream with retraction churn: 40 records inserted then retracted.
  DynamicStream stream = DynamicStream::WithChurn(record_db, 40, 3, 2);
  std::printf("stream: %zu updates including retractions\n\n", stream.size());

  SparsifierParams params;
  params.k = 8;        // ~ eps^-2 (ln n + r) at eps ~ 1
  params.levels = 8;
  params.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch sketch(n, 3, params, 3);
  sketch.Process(stream);
  std::printf("sketch state: %.1f KiB, peeling threshold k=%zu, %zu levels\n",
              sketch.MemoryBytes() / 1024.0, sketch.k(), sketch.levels());

  auto out = sketch.Query();
  if (!out.ok()) {
    std::printf("extraction failed: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("\nsparsifier: %zu weighted hyperedges (%.0f%% of input)\n",
              out.value().sparsifier.size(),
              100.0 * static_cast<double>(out.value().sparsifier.size()) /
                  static_cast<double>(record_db.NumEdges()));
  std::printf("level profile |F_i|: ");
  for (size_t s : out.value().level_sizes) std::printf("%zu ", s);
  std::printf("\n");

  // Exhaustive verification (n is small enough to enumerate all cuts).
  auto report = VerifySparsifier(record_db, out.value().sparsifier, 1.0);
  std::printf(
      "\ncut fidelity over all %zu cuts: max err %.3f, avg err %.3f, "
      "zero-mismatches %zu\n",
      report.stats.cuts_checked, report.stats.max_rel_error,
      report.stats.avg_rel_error, report.stats.zero_mismatches);

  // Downstream analysis on the sparsifier: find the community split.
  auto sparse_cut = HypergraphMinCut(n, out.value().sparsifier.edges,
                                     out.value().sparsifier.weights);
  auto exact_cut = HypergraphMinCut(record_db);
  std::printf(
      "\nmin-cut analysis:\n  exact min cut      = %.0f (planted %zu)\n"
      "  sparsifier min cut = %.1f\n",
      exact_cut.value, planted.planted_cut_size, sparse_cut.value);
  size_t agree = 0;
  for (size_t v = 0; v < n; ++v) {
    agree += (sparse_cut.side[v] == planted.in_s[v] ||
              sparse_cut.side[v] == !planted.in_s[v])
                 ? 1
                 : 0;
  }
  // Count agreement up to complementation.
  size_t match = 0, match_flip = 0;
  for (size_t v = 0; v < n; ++v) {
    match += sparse_cut.side[v] == planted.in_s[v] ? 1 : 0;
    match_flip += sparse_cut.side[v] != planted.in_s[v] ? 1 : 0;
  }
  std::printf("  community recovery: %zu/%zu authors on the planted side\n",
              std::max(match, match_flip), n);
  (void)agree;
  return 0;
}
