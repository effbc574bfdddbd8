// Experiment E5 (Definition 11 / Theorem 14 / Lemma 12): k-skeleton
// sketches. Regenerates: cut-preservation min(|cut|, k) over enumerated and
// sampled cuts, skeleton sizes vs k, and the capped edge-connectivity
// readout for graphs and hypergraphs.
#include <algorithm>
#include <cstdio>

#include "apps/approx_min_cut.h"
#include "bench_util.h"
#include "connectivity/k_skeleton.h"
#include "exact/stoer_wagner.h"
#include "graph/generators.h"
#include "stream/stream.h"
#include "util/random.h"

namespace gms {
namespace {

// Fraction of sampled cuts where |delta_H(S)| >= min(|delta_G(S)|, k).
double CutPreservationRate(const Hypergraph& g, const Hypergraph& h, size_t k,
                           uint64_t seed, size_t samples = 400) {
  Rng rng(seed);
  size_t n = g.NumVertices(), ok = 0, total = 0;
  std::vector<bool> in_s(n);
  for (size_t t = 0; t < samples; ++t) {
    for (size_t v = 0; v < n; ++v) in_s[v] = rng.Bernoulli(0.5);
    size_t orig = g.CutSize(in_s);
    size_t skel = h.CutSize(in_s);
    ++total;
    ok += (skel >= std::min(orig, k) && skel <= orig) ? 1 : 0;
  }
  return static_cast<double>(ok) / static_cast<double>(total);
}

void SkeletonQuality() {
  Table table({"input", "n", "m", "k", "skeleton_m", "cut_preserved",
               "space"});
  struct Case {
    const char* name;
    Hypergraph h;
    size_t rank;
  };
  std::vector<Case> cases;
  cases.push_back({"K24", Hypergraph::FromGraph(CompleteGraph(24)), 2});
  cases.push_back(
      {"G(48,.2)", Hypergraph::FromGraph(ErdosRenyi(48, 0.2, 1)), 2});
  cases.push_back({"hyper r=3", RandomUniformHypergraph(32, 96, 3, 2), 3});
  for (auto& c : cases) {
    for (size_t k : {1, 2, 4, 6}) {
      KSkeletonSketch sketch(c.h.NumVertices(), c.rank, k, 100 + k);
      sketch.Process(DynamicStream::InsertOnly(c.h, k));
      auto skel = sketch.Query();
      if (!skel.ok()) {
        table.AddRow({c.name, Table::Fmt(c.h.NumVertices()),
                      Table::Fmt(c.h.NumEdges()), Table::Fmt(uint64_t{k}),
                      "decode-fail", "-", "-"});
        continue;
      }
      double preserved =
          CutPreservationRate(c.h, skel.value(), k, 200 + k);
      table.AddRow({c.name, Table::Fmt(c.h.NumVertices()),
                    Table::Fmt(c.h.NumEdges()), Table::Fmt(uint64_t{k}),
                    Table::Fmt(skel.value().NumEdges()),
                    Table::Fmt(preserved, 3),
                    bench::Kb(sketch.MemoryBytes())});
    }
  }
  table.Print("k-skeletons: min(cut, k) preservation (Theorem 14)");
  std::printf(
      "\nExpected shape: cut_preserved = 1.0 throughout; skeleton size "
      "grows ~k*(n-1)\nand space ~k x the single-forest sketch.\n");
}

void EdgeConnectivityReadout() {
  Table table({"input", "exact_lambda", "k", "sketch min(k,lambda)"});
  struct Case {
    const char* name;
    Graph g;
  };
  std::vector<Case> cases;
  cases.push_back({"cycle(32)", CycleGraph(32)});
  cases.push_back({"2xHam(32)", UnionOfHamiltonianCycles(32, 2, 5)});
  cases.push_back({"3xHam(32)", UnionOfHamiltonianCycles(32, 3, 6)});
  cases.push_back({"K16", CompleteGraph(16)});
  for (auto& c : cases) {
    size_t exact = EdgeConnectivity(c.g);
    for (size_t k : {2, 4, 8}) {
      apps::ApproxMinCut q(c.g.NumVertices(), 2, k, 300 + k);
      q.Process(DynamicStream::InsertOnly(c.g, k));
      auto capped = q.Query();
      table.AddRow({c.name, Table::Fmt(exact), Table::Fmt(uint64_t{k}),
                    capped.ok() ? Table::Fmt(capped.value().value) : "fail"});
    }
  }
  table.Print("Dynamic k-edge-connectivity via skeletons");
  std::printf(
      "\nExpected shape: sketch column equals min(k, exact_lambda) in every "
      "row.\n");
}

void PlantedHypergraphCuts() {
  Table table({"n", "r", "planted_cut", "k", "sketch min(k,lambda)"});
  for (size_t cut : {1, 2, 3}) {
    auto planted = PlantedHypergraphCut(24, 3, cut, 30, 40 + cut);
    for (size_t k : {2, 4}) {
      apps::ApproxMinCut q(24, 3, k, 50 + cut * 10 + k);
      q.Process(DynamicStream::InsertOnly(planted.hypergraph, cut));
      auto capped = q.Query();
      table.AddRow({"24", "3", Table::Fmt(uint64_t{cut}),
                    Table::Fmt(uint64_t{k}),
                    capped.ok() ? Table::Fmt(capped.value().value) : "fail"});
    }
  }
  table.Print("Hypergraph planted min cuts recovered (Section 4.1)");
}

}  // namespace
}  // namespace gms

int main() {
  gms::bench::Banner(
      "E5: k-skeleton sketches (Theorem 14, Lemma 12)",
      "k independent spanning-graph sketches preserve every cut up to "
      "min(cut, k), giving dynamic hypergraph k-edge-connectivity.");
  gms::SkeletonQuality();
  gms::EdgeConnectivityReadout();
  gms::PlantedHypergraphCuts();
  return 0;
}
