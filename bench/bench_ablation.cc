// Ablation study over the sketch design knobs called out in DESIGN.md:
// s-sparse capacity, hash rows, bucket load, and extra Borůvka rounds --
// charting decode success against space so the default configuration's
// position on the trade-off curve is visible, and isolating which knob
// buys what.
#include <cstdio>

#include "bench_util.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "stream/stream.h"

namespace gms {
namespace {

double ForestSuccess(const SketchConfig& cfg, int rounds, size_t trials) {
  return bench::SuccessRate(trials, 12345, [&](uint64_t seed) {
    Graph g = ErdosRenyi(96, 0.06, seed);
    ForestSketchParams p;
    p.config = cfg;
    p.rounds = rounds;
    SpanningForestSketch sketch(96, 2, seed * 11 + 3, p);
    sketch.Process(DynamicStream::WithChurn(g, 200, seed + 1));
    auto span = sketch.Query();
    return span.ok() &&
           ConnectedComponents(span.value()) == ConnectedComponents(g);
  });
}

void CapacityAblation() {
  Table table({"capacity", "rows", "buckets/cap", "rounds", "success",
               "bytes/vertex"});
  const size_t trials = 10;
  for (int capacity : {1, 2, 3, 4, 6}) {
    SketchConfig cfg;
    cfg.sparse_capacity = capacity;
    cfg.rows = 1;  // no redundancy: per-level decode lives on capacity alone
    // Bare ceil(log2 96) = 7 rounds: no slack to absorb sampler failures.
    double success = ForestSuccess(cfg, 7, trials);
    ForestSketchParams p;
    p.config = cfg;
    p.rounds = 7;
    SpanningForestSketch probe(96, 2, 1, p);
    table.AddRow({Table::Fmt(capacity), Table::Fmt(cfg.rows),
                  Table::Fmt(cfg.buckets_per_capacity), "7",
                  Table::Fmt(success, 2),
                  bench::Kb(probe.MemoryBytes() / 96)});
  }
  table.Print("Ablation: s-sparse capacity (rows=1, bare log2(n) rounds)");
}

void RowsAblation() {
  Table table({"capacity", "rows", "success", "bytes/vertex"});
  const size_t trials = 10;
  for (int rows : {1, 2, 3}) {
    SketchConfig cfg;
    cfg.sparse_capacity = 2;
    cfg.rows = rows;
    double success = ForestSuccess(cfg, 7, trials);
    ForestSketchParams p;
    p.config = cfg;
    p.rounds = 7;
    SpanningForestSketch probe(96, 2, 1, p);
    table.AddRow({Table::Fmt(cfg.sparse_capacity), Table::Fmt(rows),
                  Table::Fmt(success, 2),
                  bench::Kb(probe.MemoryBytes() / 96)});
  }
  table.Print("Ablation: peeling hash rows (capacity=2, bare rounds)");
}

void RoundsAblation() {
  Table table({"rounds", "success", "bytes/vertex"});
  const size_t trials = 10;
  for (int rounds : {3, 5, 7, 9, 11, 15}) {
    SketchConfig cfg = SketchConfig::Light();
    double success = ForestSuccess(cfg, rounds, trials);
    ForestSketchParams p;
    p.config = cfg;
    p.rounds = rounds;
    SpanningForestSketch probe(96, 2, 1, p);
    table.AddRow({Table::Fmt(rounds), Table::Fmt(success, 2),
                  bench::Kb(probe.MemoryBytes() / 96)});
  }
  table.Print("Ablation: Borůvka rounds (Light config; ceil(log2 96)=7)");
  std::printf(
      "\nFinding: the ROUND budget is the only binding knob -- success "
      "collapses below\n~log2(n) rounds (Borůvka cannot finish) and "
      "saturates just above it. Capacity\nand hash rows are robust even at "
      "their minima here: a component's summed\nsampler succeeds with "
      "constant probability per round regardless, and Borůvka\nabsorbs "
      "per-round misses. The Light/Default presets spend their bytes on\n"
      "rounds first, capacity second, rows last -- matching this curve.\n");
}

}  // namespace
}  // namespace gms

int main() {
  gms::bench::Banner(
      "Ablation: sketch design knobs (DESIGN.md section 3)",
      "Decode success vs space for the s-sparse capacity, hash rows, and "
      "Borůvka-round knobs of the forest sketch.");
  gms::CapacityAblation();
  gms::RowsAblation();
  gms::RoundsAblation();
  return 0;
}
