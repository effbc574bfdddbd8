// Companion to Section 4.2's discussion: what adaptive reuse of ONE sketch
// actually does at laptop scale versus the k-independent construction.
// Charts full-reconstruction rate and ghost edges for both strategies as
// the per-sketch budget shrinks -- making visible that the independent
// construction degrades gracefully and detectably while adaptive reuse has
// no guarantee to degrade FROM.
#include <cstdio>

#include "bench_util.h"
#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "stream/stream.h"

namespace gms {
namespace {

struct PeelStats {
  double full_rate = 0;
  double ghost_avg = 0;
  double recovered_avg = 0;
};

PeelStats AdaptiveStats(const Graph& g, size_t layers,
                        const ForestSketchParams& p, size_t trials) {
  PeelStats out;
  for (uint64_t seed = 0; seed < trials; ++seed) {
    SpanningForestSketch sketch(g.NumVertices(), 2, 1000 + seed, p);
    sketch.Process(DynamicStream::InsertOnly(g, seed));
    Hypergraph recovered(g.NumVertices());
    for (size_t i = 0; i < layers; ++i) {
      auto span = sketch.Query();
      if (!span.ok() || span.value().NumEdges() == 0) break;
      std::vector<Hyperedge> layer = span.value().Edges();
      sketch.RemoveHyperedges(layer);
      for (const auto& e : layer) recovered.AddEdge(e);
    }
    size_t ghosts = 0;
    for (const auto& e : recovered.Edges()) {
      if (!g.HasEdge(e.AsEdge())) ++ghosts;
    }
    out.ghost_avg += static_cast<double>(ghosts);
    out.recovered_avg += static_cast<double>(recovered.NumEdges() - ghosts);
    if (recovered.NumEdges() - ghosts == g.NumEdges() && ghosts == 0) {
      out.full_rate += 1;
    }
  }
  out.full_rate /= static_cast<double>(trials);
  out.ghost_avg /= static_cast<double>(trials);
  out.recovered_avg /= static_cast<double>(trials);
  return out;
}

PeelStats IndependentStats(const Graph& g, size_t layers,
                           const ForestSketchParams& p, size_t trials) {
  PeelStats out;
  for (uint64_t seed = 0; seed < trials; ++seed) {
    KSkeletonSketch sketch(g.NumVertices(), 2, layers, 2000 + seed, p);
    sketch.Process(DynamicStream::InsertOnly(g, seed));
    auto skel = sketch.Query();
    size_t ghosts = 0, real = 0;
    if (skel.ok()) {
      for (const auto& e : skel.value().Edges()) {
        (g.HasEdge(e.AsEdge()) ? real : ghosts) += 1;
      }
    }
    out.ghost_avg += static_cast<double>(ghosts);
    out.recovered_avg += static_cast<double>(real);
    if (real == g.NumEdges() && ghosts == 0) out.full_rate += 1;
  }
  out.full_rate /= static_cast<double>(trials);
  out.ghost_avg /= static_cast<double>(trials);
  out.recovered_avg /= static_cast<double>(trials);
  return out;
}

void Compare() {
  Graph g = CompleteGraph(16);  // 120 edges; 15 layers reconstruct fully
  Table table({"budget", "rounds", "strategy", "full_rate", "avg_recovered",
               "avg_ghosts"});
  struct Budget {
    const char* name;
    ForestSketchParams p;
  };
  std::vector<Budget> budgets;
  {
    Budget b;
    b.name = "default";
    budgets.push_back(b);
  }
  {
    Budget b;
    b.name = "light";
    b.p.config = SketchConfig::Light();
    budgets.push_back(b);
  }
  {
    Budget b;
    b.name = "starved";
    b.p.config = SketchConfig::Light();
    b.p.rounds = 3;
    budgets.push_back(b);
  }
  {
    Budget b;
    b.name = "minimal";
    b.p.config = SketchConfig::Light();
    b.p.config.sparse_capacity = 1;
    b.p.config.rows = 1;
    b.p.rounds = 2;
    budgets.push_back(b);
  }
  const size_t trials = 6, layers = 15;
  for (const auto& b : budgets) {
    auto ad = AdaptiveStats(g, layers, b.p, trials);
    auto in = IndependentStats(g, layers, b.p, trials);
    int rounds = b.p.rounds;
    table.AddRow({b.name, rounds ? Table::Fmt(rounds) : std::string("auto"),
                  "adaptive-reuse", Table::Fmt(ad.full_rate, 2),
                  Table::Fmt(ad.recovered_avg, 1),
                  Table::Fmt(ad.ghost_avg, 1)});
    table.AddRow({b.name, rounds ? Table::Fmt(rounds) : std::string("auto"),
                  "k-independent", Table::Fmt(in.full_rate, 2),
                  Table::Fmt(in.recovered_avg, 1),
                  Table::Fmt(in.ghost_avg, 1)});
  }
  table.Print("Reconstructing K16 by 15 forest peels: one sketch reused vs "
              "15 independent");
  std::printf(
      "\nReading: at comfortable budgets both reconstruct (the exact-"
      "recovery layer is\nrobust to adaptivity at this scale; the paper's "
      "objection is that NO guarantee\nsurvives adaptivity). As the budget "
      "starves, both degrade -- but only the\nindependent construction "
      "retains a per-layer whp statement to degrade from.\n");
}

}  // namespace
}  // namespace gms

int main() {
  gms::bench::Banner(
      "Section 4.2 companion: adaptive sketch reuse",
      "Why Theorem 14 uses k independent sketches, and why Theorem 15 may "
      "reuse one (deterministic peel sets).");
  gms::Compare();
  return 0;
}
