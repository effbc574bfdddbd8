// Experiment E1 (Theorems 2 and 13): spanning-graph sketches for graphs and
// hypergraphs. Regenerates: decode success rate across graph families,
// sizes, and stream types; space per vertex; update throughput.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"
#include "util/timer.h"

namespace gms {
namespace {

bool ForestTrial(const Hypergraph& h, size_t max_rank, bool churn,
                 uint64_t seed, size_t* achieved_decoys = nullptr) {
  SpanningForestSketch sketch(h.NumVertices(), max_rank, seed * 77 + 1);
  DynamicStream stream =
      churn ? DynamicStream::WithChurn(h, h.NumEdges(), std::max<size_t>(
                                           2, std::min<size_t>(max_rank, 3)),
                                       seed, achieved_decoys)
            : DynamicStream::InsertOnly(h, seed);
  if (!churn && achieved_decoys != nullptr) *achieved_decoys = 0;
  sketch.Process(stream);
  auto span = sketch.Query();
  if (!span.ok()) return false;
  return ConnectedComponents(span.value()) == ConnectedComponents(h);
}

void GraphFamilies() {
  Table table({"family", "n", "m", "stream", "decoys", "success",
               "bytes/vertex", "updates/s"});
  struct Case {
    const char* name;
    Hypergraph h;
  };
  for (size_t n : {64, 256, 1024}) {
    std::vector<Case> cases;
    cases.push_back({"path", Hypergraph::FromGraph(PathGraph(n))});
    cases.push_back({"star", Hypergraph::FromGraph(StarGraph(n))});
    cases.push_back(
        {"G(n,2lnn/n)",
         Hypergraph::FromGraph(ErdosRenyi(
             n, 2.0 * std::log(static_cast<double>(n)) / n, n))});
    cases.push_back(
        {"2xHam", Hypergraph::FromGraph(UnionOfHamiltonianCycles(n, 2, n))});
    for (auto& c : cases) {
      for (bool churn : {false, true}) {
        size_t trials = n <= 256 ? 10 : 4;
        // The rejection sampler may place fewer decoys than requested on
        // dense inputs; report what the churn rows actually contained.
        size_t achieved_decoys = 0;
        double success = bench::SuccessRate(trials, n * 13, [&](uint64_t s) {
          return ForestTrial(c.h, 2, churn, s, &achieved_decoys);
        });
        // One instrumented run for space / throughput.
        SpanningForestSketch sketch(n, 2, 5);
        DynamicStream stream = DynamicStream::InsertOnly(c.h, 6);
        Timer timer;
        sketch.Process(stream);
        double secs = timer.Seconds();
        table.AddRow(
            {c.name, Table::Fmt(uint64_t{n}), Table::Fmt(c.h.NumEdges()),
             churn ? "churn" : "insert", Table::Fmt(achieved_decoys),
             Table::Fmt(success, 2), bench::Kb(sketch.MemoryBytes() / n),
             bench::Rate(static_cast<double>(stream.size()) /
                         std::max(secs, 1e-9))});
      }
    }
  }
  table.Print("Graph spanning forests (Theorem 2)");
}

void HypergraphFamilies() {
  Table table(
      {"family", "n", "m", "r", "stream", "decoys", "success", "bytes/vertex"});
  for (size_t n : {32, 128}) {
    struct HCase {
      const char* name;
      Hypergraph h;
      size_t r;
    };
    std::vector<HCase> cases;
    cases.push_back({"hypercycle", HyperCycle(n, 3), 3});
    cases.push_back(
        {"random r=3", RandomUniformHypergraph(n, 2 * n, 3, n + 1), 3});
    cases.push_back(
        {"random r=4", RandomUniformHypergraph(n, 2 * n, 4, n + 2), 4});
    cases.push_back({"mixed 2..4", RandomHypergraph(n, 2 * n, 2, 4, n + 3), 4});
    for (auto& c : cases) {
      for (bool churn : {false, true}) {
        size_t achieved_decoys = 0;
        double success = bench::SuccessRate(6, n * 31, [&](uint64_t s) {
          return ForestTrial(c.h, c.r, churn, s, &achieved_decoys);
        });
        SpanningForestSketch sketch(n, c.r, 7);
        sketch.Process(DynamicStream::InsertOnly(c.h, 8));
        table.AddRow({c.name, Table::Fmt(uint64_t{n}),
                      Table::Fmt(c.h.NumEdges()), Table::Fmt(uint64_t{c.r}),
                      churn ? "churn" : "insert", Table::Fmt(achieved_decoys),
                      Table::Fmt(success, 2),
                      bench::Kb(sketch.MemoryBytes() / n)});
      }
    }
  }
  table.Print("Hypergraph spanning graphs (Theorem 13)");
}

void SpaceScaling() {
  Table table({"n", "cells/vertex", "bytes/vertex", "bytes_total",
               "polylog check: bytes/(vertex*log^3 n)"});
  for (size_t n : {64, 128, 256, 512, 1024, 2048}) {
    SpanningForestSketch sketch(n, 2, 1);
    double log_n = std::log2(static_cast<double>(n));
    double normalized = static_cast<double>(sketch.MemoryBytes()) /
                        (static_cast<double>(n) * log_n * log_n * log_n);
    table.AddRow({Table::Fmt(uint64_t{n}), Table::Fmt(sketch.CellsPerVertex()),
                  bench::Kb(sketch.MemoryBytes() / n),
                  bench::Kb(sketch.MemoryBytes()), Table::Fmt(normalized, 2)});
  }
  table.Print("Space scaling: O(n polylog n) total (Theorem 2)");
  std::printf(
      "\nExpected shape: the normalized column stays roughly flat (the "
      "sketch is\nn x polylog(n) cells), while bytes_total grows "
      "near-linearly in n.\n");
}

}  // namespace
}  // namespace gms

int main() {
  gms::bench::Banner(
      "E1: spanning-graph sketches (Theorems 2 & 13)",
      "O(n polylog n)-space linear sketches that decode a spanning "
      "forest/graph of a dynamic (hyper)graph stream whp.");
  gms::GraphFamilies();
  gms::HypergraphFamilies();
  gms::SpaceScaling();
  return 0;
}
