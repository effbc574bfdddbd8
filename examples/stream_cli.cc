// A command-line stream processor: reads a dynamic hyperedge stream in the
// gms text format from stdin (or a demo stream if stdin is a TTY), sketches
// it in one pass, and prints a full analysis -- connectivity, components,
// capped edge connectivity, and a light-edge decomposition.
//
//   $ ./stream_cli < my_stream.txt
//   $ printf 'n 4\n+ 0 1\n+ 1 2\n+ 2 3\n- 1 2\n' | ./stream_cli
#include <cstdio>
#include <iostream>
#include <unistd.h>

#include "apps/approx_min_cut.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "reconstruct/light_recovery.h"
#include "stream/io.h"

using namespace gms;

int main() {
  ParsedStream input;
  if (isatty(STDIN_FILENO)) {
    std::printf("(no stdin: analyzing a built-in demo stream)\n");
    Hypergraph demo = RandomHypergraph(32, 64, 2, 3, 7);
    input.n = 32;
    input.stream = DynamicStream::WithChurn(demo, 20, 3, 8);
  } else {
    auto parsed = ReadStream(std::cin);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    input = std::move(*parsed);
  }

  size_t max_rank = 2;
  for (const auto& u : input.stream) {
    max_rank = std::max(max_rank, u.edge.size());
  }
  std::printf("stream: n=%zu, %zu updates, max hyperedge rank %zu\n\n",
              input.n, input.stream.size(), max_rank);

  // One pass, three sketches.
  SpanningForestSketch conn(input.n, max_rank, 1);
  apps::ApproxMinCut econn(input.n, max_rank, /*k_cap=*/4, 2);
  ForestSketchParams light_params;
  light_params.config = SketchConfig::Light();
  LightRecoverySketch light(input.n, max_rank, /*k=*/2, 3, light_params);
  for (const auto& u : input.stream) {
    conn.Update(u.edge, u.delta);
    econn.Update(u.edge, u.delta);
    light.Update(u.edge, u.delta);
  }

  auto forest = conn.Query();
  if (forest.ok()) {
    const size_t components = NumComponents(forest.value());
    std::printf("components:            %zu (%s)\n", components,
                components == 1 ? "connected" : "disconnected");
  } else {
    std::printf("components:            %s\n",
                forest.status().ToString().c_str());
  }
  auto lambda = econn.Query();
  if (lambda.ok()) {
    std::printf("edge connectivity:     %zu%s\n", lambda.value().value,
                lambda.value().exact ? "" : " (>= 4, capped)");
  }
  auto rec = light.Recover();
  if (rec.ok()) {
    std::printf(
        "light-edge structure:  %zu edges with lambda_e <= 2 recovered in "
        "%zu layers%s\n",
        rec->light.NumEdges(), rec->layers.size(),
        rec->residual_nonempty ? "; a >2-connected core remains" : "");
    if (rec->light.NumEdges() > 0 && rec->light.NumEdges() <= 24) {
      std::printf("  recovered:");
      for (const auto& e : rec->light.Edges()) {
        std::printf(" %s", e.ToString().c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("\nsketch state: %.1f KiB total for all three structures\n",
              (conn.MemoryBytes() + econn.MemoryBytes() +
               light.MemoryBytes()) /
                  1024.0);
  return 0;
}
