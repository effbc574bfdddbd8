// Experiment E10 (Theorems 19/20): hypergraph sparsification. Regenerates:
// max/avg cut error vs the peeling threshold k (the eps knob), compression
// ratios, hyperedge-rank sweeps, graphs as the 2-uniform case, and the
// level-size profile of the recursive half-sampling.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "graph/generators.h"
#include "sparsify/benczur_karger.h"
#include "sparsify/sparsifier_sketch.h"
#include "sparsify/verify.h"

namespace gms {
namespace {

void ErrorVsK() {
  Table table({"input", "n", "m", "k", "max_err", "avg_err", "compress",
               "space"});
  struct Case {
    const char* name;
    Hypergraph h;
    size_t rank;
  };
  std::vector<Case> cases;
  cases.push_back({"K14 (graph)", Hypergraph::FromGraph(CompleteGraph(14)),
                   2});
  cases.push_back({"hyper r=3", RandomUniformHypergraph(14, 80, 3, 1), 3});
  for (auto& c : cases) {
    for (size_t k : {2, 4, 8, 16}) {
      const size_t trials = 3;
      double max_err = 0, avg_err = 0, compress = 0;
      size_t bytes = 0, ok_trials = 0;
      for (uint64_t t = 0; t < trials; ++t) {
        SparsifierParams p;
        p.k = k;
        p.levels = 9;
        p.forest.config = SketchConfig::Light();
        HypergraphSparsifierSketch sketch(c.h.NumVertices(), c.rank, p,
                                          900 + 37 * k + t);
        sketch.Process(DynamicStream::InsertOnly(c.h, k + t));
        auto out = sketch.Query();
        if (!out.ok()) continue;
        auto report = VerifySparsifier(c.h, out.value().sparsifier, 1.0);
        max_err += report.stats.max_rel_error;
        avg_err += report.stats.avg_rel_error;
        compress += report.compression;
        bytes = sketch.MemoryBytes();
        ++ok_trials;
      }
      if (ok_trials == 0) {
        table.AddRow({c.name, Table::Fmt(c.h.NumVertices()),
                      Table::Fmt(c.h.NumEdges()), Table::Fmt(uint64_t{k}),
                      "fail", "-", "-", "-"});
        continue;
      }
      double d = static_cast<double>(ok_trials);
      table.AddRow(
          {c.name, Table::Fmt(c.h.NumVertices()), Table::Fmt(c.h.NumEdges()),
           Table::Fmt(uint64_t{k}), Table::Fmt(max_err / d, 3),
           Table::Fmt(avg_err / d, 3), Table::Fmt(compress / d, 2),
           bench::Kb(bytes)});
    }
  }
  table.Print("Cut error vs peeling threshold k ~ eps^-2 (Lemma 18)");
  std::printf(
      "\nExpected shape: max_err falls as k grows (k ~ eps^-2 (log n + r) "
      "buys eps);\ncompression rises toward 1.0 as k approaches the "
      "graph's connectivity --\nthe usual accuracy/size trade-off of "
      "Benczur-Karger-style sampling.\n");
}

void RankSweep() {
  Table table({"r", "n", "m", "k", "max_err", "zero_mismatch", "compress"});
  for (size_t r : {2, 3, 4}) {
    Hypergraph h = RandomUniformHypergraph(13, 70, r, 10 + r);
    SparsifierParams p;
    p.k = 8;
    p.levels = 8;
    p.forest.config = SketchConfig::Light();
    HypergraphSparsifierSketch sketch(13, r, p, 20 + r);
    sketch.Process(DynamicStream::InsertOnly(h, r));
    auto out = sketch.Query();
    if (!out.ok()) continue;
    auto report = VerifySparsifier(h, out.value().sparsifier, 1.0);
    table.AddRow({Table::Fmt(uint64_t{r}), "13", Table::Fmt(h.NumEdges()),
                  "8", Table::Fmt(report.stats.max_rel_error, 3),
                  Table::Fmt(report.stats.zero_mismatches),
                  Table::Fmt(report.compression, 2)});
  }
  table.Print("Hyperedge-rank sweep at fixed k (exhaustive cut check)");
  std::printf(
      "\nExpected shape: errors stay comparable across r once k includes "
      "the +r term\nof Lemma 18's k = O(eps^-2 (log n + r)); zero_mismatch "
      "= 0 always (a\nsparsifier never connects what was disconnected).\n");
}

void LevelProfile() {
  Hypergraph h = Hypergraph::FromGraph(CompleteGraph(16));
  SparsifierParams p;
  p.k = 6;
  p.levels = 10;
  p.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch sketch(16, 2, p, 33);
  sketch.Process(DynamicStream::InsertOnly(h, 3));
  auto out = sketch.Query();
  if (!out.ok()) {
    std::printf("level profile: extraction failed\n");
    return;
  }
  Table table({"level i", "|F_i|", "weight 2^i"});
  const std::vector<size_t>& sizes = out.value().level_sizes;
  for (size_t i = 0; i < sizes.size(); ++i) {
    table.AddRow({Table::Fmt(uint64_t{i}), Table::Fmt(sizes[i]),
                  Table::Fmt(uint64_t{1} << i)});
  }
  table.Print("Per-level light sets F_i on K16 (Section 5 algorithm)");
  std::printf(
      "\nExpected shape: |F_i| shrinks geometrically -- each level "
      "half-samples the\nresidual heavy part until nothing heavy "
      "remains%s.\n",
      out.value().truncated ? " (TRUNCATED: level budget too small)" : "");
}

void BaselineComparison() {
  // The streaming sketch vs the offline Benczur-Karger importance sampler
  // it generalizes: cut error and output size at matched effective eps.
  Table table({"input", "method", "setting", "edges_out", "max_err",
               "avg_err"});
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"K14", CompleteGraph(14)});
  cases.push_back({"2 cliques + belt", [] {
                     Graph g(14);
                     for (VertexId base : {VertexId{0}, VertexId{7}}) {
                       for (VertexId i = 0; i < 7; ++i) {
                         for (VertexId j = i + 1; j < 7; ++j) {
                           g.AddEdge(base + i, base + j);
                         }
                       }
                     }
                     g.AddEdge(0, 7);
                     g.AddEdge(6, 13);
                     return g;
                   }()});
  for (auto& c : cases) {
    Hypergraph h = Hypergraph::FromGraph(c.g);
    // Offline BK at eps in {1.0, 0.5}.
    for (double eps : {1.0, 0.5}) {
      double max_err = 0, avg_err = 0, edges = 0;
      const int trials = 3;
      for (int t = 0; t < trials; ++t) {
        BkParams bp;
        bp.epsilon = eps;
        auto s = BenczurKargerSparsify(c.g, bp, 40 + t);
        auto rep = VerifySparsifier(h, s, 1.0);
        max_err += rep.stats.max_rel_error;
        avg_err += rep.stats.avg_rel_error;
        edges += static_cast<double>(s.size());
      }
      table.AddRow({c.name, "BK offline", "eps=" + Table::Fmt(eps, 1),
                    Table::Fmt(edges / trials, 1),
                    Table::Fmt(max_err / trials, 3),
                    Table::Fmt(avg_err / trials, 3)});
    }
    // Streaming sketch at matched k's.
    for (size_t k : {4, 12}) {
      double max_err = 0, avg_err = 0, edges = 0;
      const int trials = 3;
      for (int t = 0; t < trials; ++t) {
        SparsifierParams sp;
        sp.k = k;
        sp.levels = 9;
        sp.forest.config = SketchConfig::Light();
        HypergraphSparsifierSketch sketch(14, 2, sp, 60 + t);
        sketch.Process(DynamicStream::InsertOnly(h, t));
        auto out = sketch.Query();
        if (!out.ok()) continue;
        auto rep = VerifySparsifier(h, out.value().sparsifier, 1.0);
        max_err += rep.stats.max_rel_error;
        avg_err += rep.stats.avg_rel_error;
        edges += static_cast<double>(out.value().sparsifier.size());
      }
      table.AddRow({c.name, "stream sketch", "k=" + Table::Fmt(uint64_t{k}),
                    Table::Fmt(edges / trials, 1),
                    Table::Fmt(max_err / trials, 3),
                    Table::Fmt(avg_err / trials, 3)});
    }
  }
  table.Print("Streaming sketch vs offline Benczur-Karger [6]");
  std::printf(
      "\nExpected shape: at matched error, the offline sampler (which sees "
      "strengths\nexactly and needs the whole graph) produces somewhat "
      "smaller outputs; the\nstreaming sketch pays a constant-factor size "
      "premium for one-pass dynamic\noperation and hypergraph "
      "generality.\n");
}

void EpsilonResolution() {
  Table table({"eps", "resolved_k", "resolved_levels(n=64)",
               "k(reparameterized)"});
  for (double eps : {2.0, 1.0, 0.5, 0.25}) {
    SparsifierParams p;
    p.epsilon = eps;
    p.k_constant = 0.5;
    size_t levels = p.ResolveLevels(64);
    size_t k = p.ResolveK(64, 3, levels);
    p.reparameterize = true;
    size_t k_rep = p.ResolveK(64, 3, levels);
    table.AddRow({Table::Fmt(eps, 2), Table::Fmt(uint64_t{k}),
                  Table::Fmt(uint64_t{levels}), Table::Fmt(uint64_t{k_rep})});
  }
  table.Print("Parameter resolution: k = O(eps^-2 (ln n + r)) (Theorem 20)");
  std::printf(
      "\nNote: Theorem 20's eps <- eps/(2l) re-parameterization inflates k "
      "quadratically\nin the level count -- the paper constants are for "
      "asymptotics, not laptops;\nbenches sweep k directly instead.\n");
}

}  // namespace
}  // namespace gms

int main() {
  gms::bench::Banner(
      "E10: hypergraph sparsification (Theorems 19 & 20)",
      "Nested half-samples + per-level light_k recovery yield a (1+eps) "
      "cut sparsifier from O(eps^-2 n polylog n) space.");
  gms::ErrorVsK();
  gms::RankSweep();
  gms::BaselineComparison();
  gms::LevelProfile();
  gms::EpsilonResolution();
  return 0;
}
