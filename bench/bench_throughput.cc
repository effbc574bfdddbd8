// Cross-cutting timing: stream-update throughput and decode latency of
// every sketch in the library. The paper's algorithms are "low polynomial
// time, typically linear in the number of edges" (Section 1.1); this charts
// the constants. Two sections:
//   1. Serial-vs-parallel engine comparison (VcQuerySketch ingestion and
//      union-graph extraction across a thread sweep), emitted both as a
//      table and machine-readably as BENCH_throughput.json.
//   2. The per-sketch google-benchmark microbenchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel_compare.h"
#include "apps/two_edge_connect.h"
#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/generators.h"
#include "reconstruct/light_recovery.h"
#include "reconstruct/row_reconstruct.h"
#include "sparsify/sparsifier_sketch.h"
#include "stream/ingest_plane.h"
#include "stream/stream.h"
#include "testkit/peel_reference.h"
#include "testkit/stream_spec.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

// ---------- Section 1: parallel-engine throughput ----------

struct EngineRow {
  const char* mode = "column_sharded";
  size_t threads = 1;
  double ingest_secs = 0;
  double ingest_rate = 0;   // updates/s
  double extract_secs = 0;  // Query (BuildUnionGraph)
  ExtractStats stats;       // extraction-engine counters for that finalize
};

// Best-of-3 timing lives in bench_util.h (bench::IngestTiming /
// bench::BestOfThreeIngest) so every bench binary's printed and JSON
// ingest rows flow through the same helper.
using bench::BestOfThreeIngest;
using bench::IngestTiming;

/// The single constructor of an ingest row. The printed table and the
/// JSON emitter both read the fields this fills from ONE IngestTiming, so
/// the two outputs cannot disagree about which rep was reported.
EngineRow MakeIngestRow(const char* mode, size_t threads,
                        const IngestTiming& t, size_t updates) {
  EngineRow row;
  row.mode = mode;
  row.threads = threads;
  row.ingest_secs = t.best_secs;
  row.ingest_rate =
      static_cast<double>(updates) / std::max(t.best_secs, 1e-9);
  return row;
}

/// Serialized-frame size of the benchmarked sketch (bytes on the wire).
struct FrameSizeRow {
  size_t frame_bytes = 0;
  double bytes_per_vertex = 0;
};

/// One VcQuerySketch ingestion + query per (mode, thread-count) cell.
/// The sketch seed is identical across rows, so every row computes the
/// bit-identical state and union graph (the determinism and merge suites
/// assert this); only the wall clock may differ. Column-sharded rows shard
/// the R sketch columns; sharded-merge rows slice the stream into private
/// clones and tree-merge (threads x memory, but scales with stream length
/// instead of column count).
void ParallelEngineSection(std::vector<EngineRow>* rows, size_t* out_n,
                           size_t* out_updates, size_t* out_r,
                           FrameSizeRow* frame_row) {
  // ISSUE scale: n = 2^14, k = 4. R is held at a bench-friendly 16 (the
  // paper's 16 k^2 ln n would be ~2500); rounds fixed low so one row fits
  // in memory comfortably.
  constexpr size_t kN = 1 << 14;
  constexpr size_t kK = 4;
  VcQueryParams params;
  params.k = kK;
  params.explicit_r = 16;
  params.forest.config = SketchConfig::Light();
  params.forest.rounds = 3;

  Graph g = UnionOfHamiltonianCycles(kN, 3, /*seed=*/2);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN / 2, 3);
  *out_n = kN;
  *out_updates = stream.size();

  // Untimed warm-up: the first sketch constructed in the process pays the
  // one-off cost of faulting in ~GBs of fresh arena pages, which would
  // otherwise inflate every later row's "speedup" against the first cell.
  {
    VcQuerySketch warm(kN, params, /*seed=*/4);
    warm.Process(stream);
  }

  struct Cell {
    IngestMode mode;
    const char* name;
    size_t threads;
  };
  const Cell cells[] = {
      {IngestMode::kColumnSharded, "column_sharded", 1},
      {IngestMode::kColumnSharded, "column_sharded", 2},
      {IngestMode::kColumnSharded, "column_sharded", 4},
      {IngestMode::kColumnSharded, "column_sharded", 8},
      {IngestMode::kShardedMerge, "sharded_merge", 1},
      {IngestMode::kShardedMerge, "sharded_merge", 2},
      {IngestMode::kShardedMerge, "sharded_merge", 8},
  };
  Table table(
      {"mode", "threads", "ingest_s", "updates/s", "speedup", "query_s"});
  double serial_rate = 0;
  for (const Cell& cell : cells) {
    const VcQueryParams p = VcQueryParams::Builder(params)
                                .Mode(cell.mode)
                                .Threads(cell.threads)
                                .Build();
    VcQuerySketch sketch(kN, p, /*seed=*/4);
    *out_r = sketch.R();
    IngestTiming timing = BestOfThreeIngest(&sketch, stream);
    EngineRow row = MakeIngestRow(cell.name, cell.threads, timing,
                                  stream.size());
    if (frame_row->frame_bytes == 0) {
      frame_row->frame_bytes = sketch.SpaceBytes();
      frame_row->bytes_per_vertex =
          static_cast<double>(frame_row->frame_bytes) / kN;
    }
    Timer finalize;
    auto snap = sketch.Query();
    row.extract_secs = finalize.Seconds();
    if (snap.ok()) {
      row.stats = snap.stats();
    } else {
      std::printf("  (query failed at threads=%zu)\n", cell.threads);
    }
    if (serial_rate == 0) serial_rate = row.ingest_rate;
    rows->push_back(row);
    table.AddRow({cell.name, Table::Fmt(uint64_t{cell.threads}),
                  Table::Fmt(row.ingest_secs, 3), bench::Rate(row.ingest_rate),
                  Table::Fmt(row.ingest_rate / std::max(serial_rate, 1e-9), 2),
                  Table::Fmt(row.extract_secs, 3)});
  }
  table.Print("Parallel engine: VcQuerySketch ingest + query");
  std::printf(
      "\nwire frame: %zu bytes total, %.1f bytes/vertex (one VcQuery frame,\n"
      "R=%zu subsamples; the paper's space measure is per-vertex polylog)\n",
      frame_row->frame_bytes, frame_row->bytes_per_vertex, *out_r);
  std::printf(
      "\nExpected shape: identical outputs at every (mode, threads) cell\n"
      "(the determinism and merge suites assert bit-identity). This\n"
      "stream has ~4 updates per vertex, so every column stays in the\n"
      "serial sparse-absorb pre-pass and column threads buy nothing.\n"
      "sharded_merge@1 falls back to the serial column path by design; at\n"
      "more threads it pays for its clones and a dirty-column merge whose\n"
      "cost scales with the updates each clone absorbed, not the arena.\n"
      "Its wins are the compact-state rows below and dense few-column\n"
      "sketches at 2 threads (DESIGN.md S11).\n");
}

/// The sharded-merge sweet spot: a COMPACT sketch (small n, megabytes of
/// state) fed a LONG churn stream. Here the per-update column path is the
/// bottleneck and the clone+merge epilogue is noise, so slicing the stream
/// across workers scales with core count -- the inverse of the big-state
/// workload above. Same bit-identity guarantee applies.
void CompactStateSection(std::vector<EngineRow>* rows, size_t* out_n,
                         size_t* out_updates) {
  constexpr size_t kN = 256;
  Graph g = UnionOfHamiltonianCycles(kN, 3, /*seed=*/5);
  DynamicStream stream =
      DynamicStream::WithChurn(g, /*decoys=*/400 * kN, /*seed=*/6);
  *out_n = kN;
  *out_updates = stream.size();

  ForestSketchParams params;
  params.config = SketchConfig::Light();
  {
    SpanningForestSketch warm(kN, 2, /*seed=*/7, params);  // untimed warm-up
    warm.Process(stream);
  }
  Table table({"mode", "threads", "ingest_s", "updates/s", "speedup"});
  double serial_rate = 0;
  struct Cell {
    IngestMode mode;
    const char* name;
    size_t threads;
  };
  const Cell cells[] = {
      {IngestMode::kColumnSharded, "column_sharded", 1},
      {IngestMode::kShardedMerge, "sharded_merge", 2},
      {IngestMode::kShardedMerge, "sharded_merge", 8},
  };
  for (const Cell& cell : cells) {
    const ForestSketchParams p = ForestSketchParams::Builder(params)
                                     .Mode(cell.mode)
                                     .Threads(cell.threads)
                                     .Build();
    SpanningForestSketch sketch(kN, 2, /*seed=*/7, p);
    IngestTiming timing = BestOfThreeIngest(&sketch, stream);
    EngineRow row = MakeIngestRow(cell.name, cell.threads, timing,
                                  stream.size());
    if (serial_rate == 0) serial_rate = row.ingest_rate;
    rows->push_back(row);
    table.AddRow({cell.name, Table::Fmt(uint64_t{cell.threads}),
                  Table::Fmt(row.ingest_secs, 3), bench::Rate(row.ingest_rate),
                  Table::Fmt(row.ingest_rate / std::max(serial_rate, 1e-9),
                             2)});
  }
  table.Print("Compact-state workload: SpanningForestSketch, long churn");
  std::printf(
      "\nExpected shape: with %zu updates against only n=%zu vertices of\n"
      "state, the clone+merge epilogue is noise, so sharded_merge tracks\n"
      "the PHYSICAL core count (a single-core host shows ~1.0 plus a small\n"
      "merge tax at 8 clones). Pick it when the stream dwarfs the state,\n"
      "the column engine otherwise (DESIGN.md S8).\n",
      *out_updates, kN);
}

/// Space-vs-stream-density sweep for the hybrid sparse/dense vertex
/// representation (DESIGN.md S12). One spanning forest at n = 2^14; each
/// row streams an Erdős–Rényi graph whose expected degree is a fraction of
/// the sparse threshold, measured twice: the hybrid config (Light,
/// threshold 32) against a threshold-0 all-dense twin of the SAME stream.
/// Low fractions keep (nearly) every column in its exact sparse buffer, so
/// the serialized frame shrinks from the full arena to the buffered edges
/// and ingest skips the L0 kernel; the final row pushes every column past
/// the threshold, charting the escalated path's parity with dense.
struct SparseDensityRow {
  double fraction = 0;           // of the sparse threshold (expected degree)
  size_t updates = 0;
  double updates_per_vertex = 0;
  double sparse_vertex_frac = 0;  // still-sparse columns after the stream
  double hybrid_bytes_per_vertex = 0;
  double dense_bytes_per_vertex = 0;
  double hybrid_ns_per_update = 0;
  double dense_ns_per_update = 0;
};

void SparseDensitySection(std::vector<SparseDensityRow>* rows, size_t* out_n,
                          uint32_t* out_threshold) {
  constexpr size_t kN = 1 << 14;
  ForestSketchParams hybrid_params;
  hybrid_params.config = SketchConfig::Light();
  hybrid_params.rounds = 3;
  ForestSketchParams dense_params = hybrid_params;
  dense_params.config.sparse_threshold = 0;
  const uint32_t threshold = hybrid_params.config.sparse_threshold;
  *out_n = kN;
  *out_threshold = threshold;

  {
    SpanningForestSketch warm(kN, 2, /*seed=*/30, dense_params);  // untimed
    Graph wg = UnionOfHamiltonianCycles(kN, 2, 31);
    warm.Process(DynamicStream::InsertOnly(wg, 32));
  }

  // Expected degree = fraction x threshold; > 1 pushes every column dense.
  const double fractions[] = {0.01, 0.1, 0.5, 1.0, 2.5};
  Table table({"frac_of_T", "upd/vtx", "sparse%", "hyb_B/vtx", "dns_B/vtx",
               "space_x", "hyb_ns/upd", "dns_ns/upd", "ingest_x"});
  uint64_t seed = 33;
  for (double fraction : fractions) {
    const double p =
        std::min(1.0, fraction * threshold / static_cast<double>(kN - 1));
    Graph g = fraction * threshold > static_cast<double>(threshold)
                  ? UnionOfHamiltonianCycles(
                        kN, static_cast<size_t>(fraction * threshold / 2),
                        seed)
                  : ErdosRenyi(kN, p, seed);
    DynamicStream stream = DynamicStream::InsertOnly(g, seed + 1);
    seed += 2;
    if (stream.size() == 0) continue;

    SparseDensityRow row;
    row.fraction = fraction;
    row.updates = stream.size();
    row.updates_per_vertex =
        2.0 * static_cast<double>(stream.size()) / static_cast<double>(kN);

    SpanningForestSketch hybrid(kN, 2, /*seed=*/30, hybrid_params);
    IngestTiming ht = BestOfThreeIngest(&hybrid, stream);
    size_t sparse_vertices = 0;
    for (VertexId v = 0; v < kN; ++v) {
      sparse_vertices += hybrid.VertexEscalated(v) ? 0 : 1;
    }
    row.sparse_vertex_frac =
        static_cast<double>(sparse_vertices) / static_cast<double>(kN);
    row.hybrid_bytes_per_vertex =
        static_cast<double>(hybrid.SpaceBytes()) / static_cast<double>(kN);
    row.hybrid_ns_per_update =
        ht.best_secs * 1e9 / static_cast<double>(stream.size());

    SpanningForestSketch dense(kN, 2, /*seed=*/30, dense_params);
    IngestTiming dt = BestOfThreeIngest(&dense, stream);
    row.dense_bytes_per_vertex =
        static_cast<double>(dense.SpaceBytes()) / static_cast<double>(kN);
    row.dense_ns_per_update =
        dt.best_secs * 1e9 / static_cast<double>(stream.size());

    rows->push_back(row);
    table.AddRow(
        {Table::Fmt(row.fraction, 2), Table::Fmt(row.updates_per_vertex, 1),
         Table::Fmt(100.0 * row.sparse_vertex_frac, 1),
         Table::Fmt(row.hybrid_bytes_per_vertex, 1),
         Table::Fmt(row.dense_bytes_per_vertex, 1),
         Table::Fmt(row.dense_bytes_per_vertex /
                        std::max(row.hybrid_bytes_per_vertex, 1e-9),
                    1),
         Table::Fmt(row.hybrid_ns_per_update, 1),
         Table::Fmt(row.dense_ns_per_update, 1),
         Table::Fmt(row.dense_ns_per_update /
                        std::max(row.hybrid_ns_per_update, 1e-9),
                    2)});
  }
  table.Print("Hybrid sparse/dense: space + ingest vs stream density "
              "(one forest, n=2^14, threshold 32)");
  std::printf(
      "\nExpected shape: below fraction 1.0 (nearly) every column stays in\n"
      "its exact sparse buffer -- bytes/vertex collapses from the dense\n"
      "arena to ~24B per buffered edge and ingest skips the L0 kernel\n"
      "entirely. The last row crosses the threshold everywhere, so both\n"
      "columns pay the dense kernel and the ratios return to ~1x (the\n"
      "escalated fast path is the pre-hybrid dense path).\n");
}

/// Old-vs-new finalize engine, measured where the two paths share an API:
/// one SpanningForestSketch at a full round budget (default log2 n + extra,
/// where the window refills actually amortize). Times the incremental
/// extraction against the retained reference re-sum decoder, serial and
/// parallel, and checks all four Hypergraphs are bit-identical. Two
/// twins: a churn stream with ~6 updates per vertex (nearly every column
/// stays in its exact sparse buffer) and the all-dense stream below.
struct ExtractCompareRow {
  size_t n = 0;
  int rounds = 0;
  double escalated_frac = 0;  // columns past the sparse threshold
  double inc_serial_secs = 0;
  double inc_parallel_secs = 0;
  double ref_serial_secs = 0;
  double ref_parallel_secs = 0;
  bool identical = false;
  ExtractStats inc_stats;  // incremental @8 (deterministic across threads)
  ExtractStats ref_stats;  // reference @8
};

double EscalatedFrac(const SpanningForestSketch& sketch) {
  size_t escalated = 0;
  for (VertexId v = 0; v < sketch.n(); ++v) {
    escalated += sketch.VertexEscalated(v) ? 1 : 0;
  }
  return static_cast<double>(escalated) / static_cast<double>(sketch.n());
}

/// The perfbench batch_dense stream shape: temporal churn with 4n live and
/// 18n expired edges, 40n updates or ~80 endpoint updates per vertex
/// (2.5x the Light sparse threshold), so every column escalates.
DynamicStream AllDenseStream(size_t n, uint64_t trial) {
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kTemporalChurn;
  spec.n = static_cast<uint32_t>(n);
  spec.m = static_cast<uint32_t>(4 * n);
  spec.decoys = static_cast<uint32_t>(18 * n);
  return spec.WithTrial(trial).Build().stream;
}

void CompareExtraction(const SpanningForestSketch& sketch, const char* title,
                       ExtractCompareRow* out) {
  out->n = sketch.n();
  out->rounds = sketch.rounds();
  out->escalated_frac = EscalatedFrac(sketch);
  (void)sketch.ExtractSpanningGraph(1);  // untimed warm-up

  Timer t_inc_s;
  auto inc_serial = sketch.ExtractSpanningGraph(1);
  out->inc_serial_secs = t_inc_s.Seconds();
  Timer t_inc_p;
  auto inc_parallel = sketch.ExtractSpanningGraph(8, &out->inc_stats);
  out->inc_parallel_secs = t_inc_p.Seconds();
  Timer t_ref_s;
  auto ref_serial = sketch.ExtractSpanningGraphReference(1);
  out->ref_serial_secs = t_ref_s.Seconds();
  Timer t_ref_p;
  auto ref_parallel = sketch.ExtractSpanningGraphReference(8, &out->ref_stats);
  out->ref_parallel_secs = t_ref_p.Seconds();
  out->identical = inc_serial.ok() && inc_parallel.ok() && ref_serial.ok() &&
                   ref_parallel.ok() && *inc_serial == *inc_parallel &&
                   *inc_serial == *ref_serial && *inc_serial == *ref_parallel;

  Table table({"path", "threads", "extract_s", "speedup_vs_ref",
               "summed_words"});
  double ref = out->ref_serial_secs;
  table.AddRow({"reference", "1", Table::Fmt(out->ref_serial_secs, 4),
                Table::Fmt(ref / std::max(out->ref_serial_secs, 1e-9), 2),
                Table::Fmt(out->ref_stats.summed_words)});
  table.AddRow({"reference", "8", Table::Fmt(out->ref_parallel_secs, 4),
                Table::Fmt(ref / std::max(out->ref_parallel_secs, 1e-9), 2),
                Table::Fmt(out->ref_stats.summed_words)});
  table.AddRow({"incremental", "1", Table::Fmt(out->inc_serial_secs, 4),
                Table::Fmt(ref / std::max(out->inc_serial_secs, 1e-9), 2),
                Table::Fmt(out->inc_stats.summed_words)});
  table.AddRow({"incremental", "8", Table::Fmt(out->inc_parallel_secs, 4),
                Table::Fmt(ref / std::max(out->inc_parallel_secs, 1e-9), 2),
                Table::Fmt(out->inc_stats.summed_words)});
  table.Print(title);
  std::printf(
      "\nall four extractions bit-identical: %s\n"
      "(n=%zu, escalated columns %.1f%%, rounds budget %d, rounds run %d,\n"
      "early_exit %d; summed_words is the state volume each path touched --\n"
      "the incremental win in a number)\n",
      out->identical ? "yes" : "NO (BUG)", out->n,
      100.0 * out->escalated_frac, out->rounds, out->inc_stats.rounds_run,
      out->inc_stats.early_exit ? 1 : 0);
}

void ExtractionEngineSection(ExtractCompareRow* out) {
  constexpr size_t kN = 1 << 13;
  ForestSketchParams params;
  params.config = SketchConfig::Light();  // rounds = 0: full default budget
  SpanningForestSketch sketch(kN, 2, /*seed=*/21, params);
  Graph g = UnionOfHamiltonianCycles(kN, 3, /*seed=*/22);
  sketch.Process(DynamicStream::WithChurn(g, /*decoys=*/kN / 2, 23));
  CompareExtraction(sketch,
                    "Extraction engine: incremental window blocks vs "
                    "reference re-sum (one forest, full round budget, "
                    "sparse-phase stream)",
                    out);
}

/// Peeled decode vs the copy oracle on a dense layer: layer 2 of a
/// TwoEdgeConnect decodes G - F1 through the per-call overlay, against
/// testkit::PeelByCopy (copy the layer, RemoveHyperedges(F1), decode).
struct PeelCompareRow {
  size_t n = 0;
  size_t peeled_edges = 0;
  bench::Spread peeled_secs;
  bench::Spread copy_secs;
  double peeled_rss_growth_mb = 0;  // peak-RSS growth over the first call
  double copy_rss_growth_mb = 0;
  bool identical = false;
};

/// The dense twins (ROADMAP item 1): the extraction-engine comparison on
/// layer 1 of a TwoEdgeConnect fed the all-dense stream, and the
/// peeled-vs-copy row on its layer 2. Returns false if the stream left the
/// dense phase these rows claim to measure.
bool DenseExtractionSection(ExtractCompareRow* engine, PeelCompareRow* peel) {
  constexpr size_t kN = 1 << 12;
  constexpr int kReps = 5;
  apps::TwoEdgeConnect app(
      kN, 2, /*seed=*/24,
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build());
  app.Process(AllDenseStream(kN, /*trial=*/25));
  CompareExtraction(app.layer1(),
                    "Extraction engine, dense twin: layer 1 of a "
                    "TwoEdgeConnect on the all-dense stream",
                    engine);

  auto f1 = app.layer1().Query();
  if (!f1.ok()) {
    std::printf("dense twin: FAIL (layer 1 query failed)\n");
    return false;
  }
  const std::vector<Hyperedge>& forest = f1.value().Edges();
  const SpanningForestSketch& layer2 = app.layer2();
  peel->n = kN;
  peel->peeled_edges = forest.size();
  std::vector<double> peeled_reps, copy_reps;
  std::optional<QueryResult<Hypergraph>> peeled, copied;
  for (int rep = 0; rep < kReps; ++rep) {
    double rss0 = bench::PeakRssMb();
    Timer tp;
    peeled.emplace(layer2.Query(0, forest));
    peeled_reps.push_back(tp.Seconds());
    if (rep == 0) peel->peeled_rss_growth_mb = bench::PeakRssMb() - rss0;
    rss0 = bench::PeakRssMb();
    Timer tc;
    copied.emplace(testkit::PeelByCopy(layer2, forest));
    copy_reps.push_back(tc.Seconds());
    if (rep == 0) peel->copy_rss_growth_mb = bench::PeakRssMb() - rss0;
  }
  peel->peeled_secs = bench::SpreadOf(peeled_reps);
  peel->copy_secs = bench::SpreadOf(copy_reps);
  peel->identical = peeled->ok() && copied->ok() &&
                    peeled->value() == copied->value() &&
                    peeled->stats().sample_attempts ==
                        copied->stats().sample_attempts &&
                    peeled->stats().decode_attempts ==
                        copied->stats().decode_attempts;

  Table table({"path", "median_s", "min_s", "max_s", "rss_growth_MiB"});
  table.AddRow({"peeled (overlay)", Table::Fmt(peel->peeled_secs.median, 4),
                Table::Fmt(peel->peeled_secs.min, 4),
                Table::Fmt(peel->peeled_secs.max, 4),
                Table::Fmt(peel->peeled_rss_growth_mb, 1)});
  table.AddRow({"PeelByCopy", Table::Fmt(peel->copy_secs.median, 4),
                Table::Fmt(peel->copy_secs.min, 4),
                Table::Fmt(peel->copy_secs.max, 4),
                Table::Fmt(peel->copy_rss_growth_mb, 1)});
  table.Print("Peeled decode: layer 2 of G - F1 through the overlay vs "
              "copy + RemoveHyperedges + decode (dense phase)");
  std::printf(
      "\nn=%zu, |F1|=%zu, %d reps each (alternating); identical answer and "
      "decision counters: %s\n",
      kN, peel->peeled_edges, kReps, peel->identical ? "yes" : "NO (BUG)");

  // The phase these rows claim: (nearly) every column escalated, real
  // Borůvka rounds (summed words), no sparse-exact shortcut.
  const ExtractStats& ps = peeled->stats();
  const bool dense = engine->escalated_frac >= 0.99 &&
                     EscalatedFrac(layer2) >= 0.99 &&
                     engine->inc_stats.summed_words > 0 &&
                     engine->inc_stats.sparse_exact_forests == 0 &&
                     ps.summed_words > 0 && ps.sparse_exact_forests == 0;
  std::printf(
      "dense twin phase: escalated %.1f%%/%.1f%% (layers 1/2), "
      "summed_words=%llu/%llu, sparse_exact_forests=%llu/%llu -> %s\n",
      100.0 * engine->escalated_frac, 100.0 * EscalatedFrac(layer2),
      static_cast<unsigned long long>(engine->inc_stats.summed_words),
      static_cast<unsigned long long>(ps.summed_words),
      static_cast<unsigned long long>(engine->inc_stats.sparse_exact_forests),
      static_cast<unsigned long long>(ps.sparse_exact_forests),
      dense ? "dense (ok)" : "FAIL (left the dense phase)");
  return dense && engine->identical && peel->identical;
}

/// Machine-readable mirror of the engine table for trend tracking, plus
/// the update-kernel before/after row (old = FpPow + `%` bucketing, new =
/// windowed power table + multiply-shift; see bench/kernel_compare.h).
void AppendGroupsPerRound(FILE* f, const ExtractStats& stats) {
  std::fprintf(f, "[");
  for (size_t i = 0; i < stats.groups_per_round.size(); ++i) {
    std::fprintf(f, "%s%llu", i ? ", " : "",
                 static_cast<unsigned long long>(stats.groups_per_round[i]));
  }
  std::fprintf(f, "]");
}

void AppendExtractCompare(FILE* f, const char* key,
                          const ExtractCompareRow& row) {
  std::fprintf(f,
               "  \"%s\": {\"n\": %zu, \"rounds\": %d, "
               "\"escalated_fraction\": %.4f, \"identical\": %s,\n"
               "    \"reference_serial_seconds\": %.6f, "
               "\"reference_parallel_seconds\": %.6f,\n"
               "    \"incremental_serial_seconds\": %.6f, "
               "\"incremental_parallel_seconds\": %.6f,\n"
               "    \"reference_summed_words\": %llu, "
               "\"incremental_summed_words\": %llu, "
               "\"sparse_exact_forests\": %llu},\n",
               key, row.n, row.rounds, row.escalated_frac,
               row.identical ? "true" : "false", row.ref_serial_secs,
               row.ref_parallel_secs, row.inc_serial_secs,
               row.inc_parallel_secs,
               static_cast<unsigned long long>(row.ref_stats.summed_words),
               static_cast<unsigned long long>(row.inc_stats.summed_words),
               static_cast<unsigned long long>(
                   row.inc_stats.sparse_exact_forests));
}

void WriteJson(const std::vector<EngineRow>& rows, size_t n, size_t updates,
               size_t r, const std::vector<EngineRow>& compact_rows,
               size_t compact_n, size_t compact_updates,
               const FrameSizeRow& frame,
               const ExtractCompareRow& extract,
               const ExtractCompareRow& dense_extract,
               const PeelCompareRow& peel,
               const std::vector<SparseDensityRow>& density_rows,
               size_t density_n, uint32_t density_threshold,
               const bench::KernelTimings& kt) {
  FILE* f = std::fopen("BENCH_throughput.json", "w");
  if (f == nullptr) {
    std::printf("could not open BENCH_throughput.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"n\": %zu,\n  \"k\": 4,\n  \"r\": %zu,\n", n, r);
  std::fprintf(f, "  \"stream_updates\": %zu,\n  \"engine\": [\n", updates);
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& row = rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, "
                 "\"ingest_seconds\": %.6f, \"updates_per_sec\": %.1f, "
                 "\"finalize_seconds\": %.6f,\n"
                 "     \"finalize_breakdown\": {\"rounds_run\": %d, "
                 "\"early_exit\": %s, \"summed_words\": %llu, "
                 "\"sample_attempts\": %llu, \"decode_attempts\": %llu, "
                 "\"edges_found\": %llu, \"groups_per_round\": ",
                 row.mode, row.threads, row.ingest_secs, row.ingest_rate,
                 row.extract_secs, row.stats.rounds_run,
                 row.stats.early_exit ? "true" : "false",
                 static_cast<unsigned long long>(row.stats.summed_words),
                 static_cast<unsigned long long>(row.stats.sample_attempts),
                 static_cast<unsigned long long>(row.stats.decode_attempts),
                 static_cast<unsigned long long>(row.stats.edges_found));
    AppendGroupsPerRound(f, row.stats);
    std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  AppendExtractCompare(f, "extraction_engine", extract);
  AppendExtractCompare(f, "extraction_engine_dense", dense_extract);
  std::fprintf(f,
               "  \"peel\": {\"n\": %zu, \"peeled_edges\": %zu, "
               "\"identical\": %s,\n"
               "    \"peeled_seconds\": {\"median\": %.6f, \"min\": %.6f, "
               "\"max\": %.6f},\n"
               "    \"copy_seconds\": {\"median\": %.6f, \"min\": %.6f, "
               "\"max\": %.6f},\n"
               "    \"peeled_rss_growth_mb\": %.1f, "
               "\"copy_rss_growth_mb\": %.1f},\n",
               peel.n, peel.peeled_edges, peel.identical ? "true" : "false",
               peel.peeled_secs.median, peel.peeled_secs.min,
               peel.peeled_secs.max, peel.copy_secs.median, peel.copy_secs.min,
               peel.copy_secs.max, peel.peeled_rss_growth_mb,
               peel.copy_rss_growth_mb);
  std::fprintf(f,
               "  \"engine_compact_state\": {\"n\": %zu, "
               "\"stream_updates\": %zu, \"rows\": [\n",
               compact_n, compact_updates);
  for (size_t i = 0; i < compact_rows.size(); ++i) {
    const EngineRow& row = compact_rows[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, "
                 "\"ingest_seconds\": %.6f, \"updates_per_sec\": %.1f}%s\n",
                 row.mode, row.threads, row.ingest_secs, row.ingest_rate,
                 i + 1 < compact_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"frame\": {\"bytes\": %zu, \"bytes_per_vertex\": %.2f},\n",
               frame.frame_bytes, frame.bytes_per_vertex);
  std::fprintf(f,
               "  \"sparse_density\": {\"n\": %zu, \"sparse_threshold\": %u, "
               "\"rows\": [\n",
               density_n, density_threshold);
  for (size_t i = 0; i < density_rows.size(); ++i) {
    const SparseDensityRow& row = density_rows[i];
    std::fprintf(
        f,
        "    {\"fraction_of_threshold\": %.2f, \"stream_updates\": %zu, "
        "\"updates_per_vertex\": %.2f, \"sparse_vertex_fraction\": %.4f,\n"
        "     \"hybrid_bytes_per_vertex\": %.2f, "
        "\"dense_bytes_per_vertex\": %.2f, "
        "\"hybrid_ingest_ns_per_update\": %.2f, "
        "\"dense_ingest_ns_per_update\": %.2f,\n"
        "     \"space_reduction\": %.2f, \"ingest_speedup\": %.3f}%s\n",
        row.fraction, row.updates, row.updates_per_vertex,
        row.sparse_vertex_frac, row.hybrid_bytes_per_vertex,
        row.dense_bytes_per_vertex, row.hybrid_ns_per_update,
        row.dense_ns_per_update,
        row.dense_bytes_per_vertex /
            std::max(row.hybrid_bytes_per_vertex, 1e-9),
        row.dense_ns_per_update / std::max(row.hybrid_ns_per_update, 1e-9),
        i + 1 < density_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"kernel\": {\"old_ns_per_update\": %.2f, "
               "\"new_ns_per_update\": %.2f, \"speedup\": %.3f}\n",
               kt.old_ns, kt.new_ns, kt.speedup);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_throughput.json\n");
}

/// The shared-ingestion-plane guard (`--plane_smoke`, also folded into
/// `--perf_smoke`): three same-codec forest consumers ingest one churn
/// stream twice -- independently (each consumer encodes, prepares, and
/// routes every update itself: the N-times re-prepare cost the plane
/// exists to delete) and through ONE IngestPlane pass. Hard-fails if
///   - the plane pass costs more than 1.15x the independent pass + 20ms
///     absolute slack (expected value is BELOW 1x -- the plane pays one
///     encode/route where independent pays three -- so any trip means the
///     per-consumer re-prepare crept back in, plus overhead on top), or
///   - any consumer's serialized frame differs between the two passes
///     (the fan-out broke bit-identity).
int PlaneGuard() {
  constexpr size_t kN = 1 << 12;
  Graph g = UnionOfHamiltonianCycles(kN, 3, /*seed=*/40);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN, 41);
  const std::span<const StreamUpdate> updates(stream.updates());
  ForestSketchParams params;
  params.config = SketchConfig::Light();
  params.rounds = 3;

  std::vector<SpanningForestSketch> consumers;
  consumers.reserve(3);
  for (uint64_t seed = 42; seed < 45; ++seed) {
    consumers.emplace_back(kN, 2, seed, params);
  }
  {
    // Untimed warm-up of both code paths (page faults, branch history).
    for (auto& c : consumers) c.Process(stream);
    for (auto& c : consumers) c.Clear();
    IngestPlane warm;
    for (auto& c : consumers) warm.Add(&c);
    warm.Process(updates);
    for (auto& c : consumers) c.Clear();
  }

  const auto clear_all = [&] {
    for (auto& c : consumers) c.Clear();
  };
  const IngestTiming independent = bench::BestOfThree(clear_all, [&] {
    for (auto& c : consumers) c.Process(stream);
  });
  std::vector<std::vector<uint8_t>> independent_frames(consumers.size());
  for (size_t i = 0; i < consumers.size(); ++i) {
    consumers[i].Serialize(&independent_frames[i]);
  }

  clear_all();
  IngestPlane plane;
  for (auto& c : consumers) plane.Add(&c);
  const IngestTiming shared = bench::BestOfThree(clear_all, [&] {
    plane.Process(updates);
  });

  const double ratio = shared.best_secs / std::max(independent.best_secs, 1e-9);
  std::printf(
      "plane_smoke: n=%zu updates=%zu consumers=%zu independent=%.4fs "
      "plane=%.4fs (%.2fx)\n",
      kN, stream.size(), consumers.size(), independent.best_secs,
      shared.best_secs, ratio);
  for (size_t i = 0; i < consumers.size(); ++i) {
    std::vector<uint8_t> frame;
    consumers[i].Serialize(&frame);
    if (frame != independent_frames[i]) {
      std::printf(
          "plane_smoke: FAIL (consumer %zu's plane-ingested frame diverges "
          "from its independently ingested frame)\n",
          i);
      return 1;
    }
  }
  const double limit = 1.15 * independent.best_secs + 0.02;
  if (shared.best_secs > limit) {
    std::printf(
        "plane_smoke: FAIL (one shared pass %.4fs exceeds 1.15x the "
        "independent passes + 20ms = %.4fs; the per-consumer re-prepare "
        "cost is back)\n",
        shared.best_secs, limit);
    return 1;
  }
  std::printf("plane_smoke: PASS (frames bit-identical, limit was %.4fs)\n",
              limit);
  return 0;
}

/// `--perf_smoke`: a CI-sized guard on the finalize path (the `perf_smoke`
/// ctest label, run in the tsan preset too). Ingests a reduced VcQuery
/// workload and HARD-FAILS if finalize costs more than 2x ingest (plus a
/// small absolute slack for timer jitter at this scale). Every column stays
/// sparse, so finalize is the exact sparse pre-round of every forest; the
/// guard also fails if its stats show any other phase.
int PerfSmoke() {
  constexpr size_t kN = 1 << 12;
  const VcQueryParams params =
      VcQueryParams::Builder()
          .K(4)
          .ExplicitR(8)
          .Forest(ForestSketchParams::Builder()
                      .Config(SketchConfig::Light())
                      .Rounds(3)
                      .Build())
          .Build();
  Graph g = UnionOfHamiltonianCycles(kN, 3, /*seed=*/2);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN / 2, 3);
  {
    VcQuerySketch warm(kN, params, /*seed=*/4);  // untimed page-fault warm-up
    warm.Process(stream);
  }
  VcQuerySketch sketch(kN, params, /*seed=*/4);
  Timer ingest_timer;
  sketch.Process(stream);
  double ingest = ingest_timer.Seconds();
  Timer finalize_timer;
  auto snap = sketch.Query();
  double finalize = finalize_timer.Seconds();
  bool ok = snap.ok();
  const ExtractStats& stats = snap.stats();
  std::printf(
      "perf_smoke: n=%zu updates=%zu ingest=%.4fs finalize=%.4fs "
      "(ratio %.2fx, phase sparse-exact: %llu of %zu forests, rounds_run=%d, "
      "summed_words=%llu)\n",
      kN, stream.size(), ingest, finalize, finalize / std::max(ingest, 1e-9),
      static_cast<unsigned long long>(stats.sparse_exact_forests), sketch.R(),
      stats.rounds_run, static_cast<unsigned long long>(stats.summed_words));
  if (!ok) {
    std::printf("perf_smoke: FAIL (finalize returned an error)\n");
    return 1;
  }
  // About 4 updates per vertex keeps every column below the sparse
  // threshold, so this check times the exact sparse pre-round (pair
  // unranking and union-find), not the L0 kernel or Borůvka. Fail loudly
  // if the stream ever stops exercising the phase it claims to.
  if (stats.sparse_exact_forests != sketch.R() || stats.rounds_run != 0) {
    std::printf(
        "perf_smoke: FAIL (finalize left the sparse-exact phase: %llu of %zu "
        "forests sparse-exact, rounds_run=%d)\n",
        static_cast<unsigned long long>(stats.sparse_exact_forests),
        sketch.R(), stats.rounds_run);
    return 1;
  }
  const double limit = 2.0 * ingest + 0.05;
  if (finalize > limit) {
    std::printf(
        "perf_smoke: FAIL (finalize %.4fs exceeds 2x ingest + 50ms = %.4fs; "
        "the extraction engine regressed)\n",
        finalize, limit);
    return 1;
  }
  // Peeled-query guard: on the all-dense stream, TwoEdgeConnect::Query
  // decodes layer 2 on G - F1 through the per-call overlay, while the copy
  // oracle copies layer 2 and subtracts F1 before decoding. The answers
  // must be identical and the overlay must take <= 0.6x the oracle's time
  // (medians of alternating reps; 0.39-0.43x measured on a 4-vCPU host).
  // The phase is asserted (>= 99% of columns escalated, as perfbench's
  // batch_dense guard) so the guard cannot drift onto the sparse-exact
  // shortcut.
  {
    constexpr size_t kPeelN = 1 << 10;
    constexpr int kReps = 5;
    apps::TwoEdgeConnect app(
        kPeelN, 2, /*seed=*/50,
        ForestSketchParams::Builder().Config(SketchConfig::Light()).Build());
    app.Process(AllDenseStream(kPeelN, /*trial=*/51));
    (void)app.Query();  // untimed warm-up of both paths
    (void)testkit::TwoEdgeConnectByCopy(app);
    std::vector<double> peeled_reps, copy_reps;
    std::optional<QueryResult<apps::TwoEdgeConnectAnswer>> peeled, copied;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer tp;
      peeled.emplace(app.Query());
      peeled_reps.push_back(tp.Seconds());
      Timer tc;
      copied.emplace(testkit::TwoEdgeConnectByCopy(app));
      copy_reps.push_back(tc.Seconds());
    }
    const bench::Spread ps = bench::SpreadOf(peeled_reps);
    const bench::Spread cs = bench::SpreadOf(copy_reps);
    const ExtractStats& st = peeled->stats();
    std::printf(
        "perf_smoke: peeled TwoEdgeConnect query n=%zu peeled=%.4fs "
        "copy=%.4fs (%.2fx; phase dense: escalated %.1f%%/%.1f%%, "
        "summed_words=%llu, sparse_exact_forests=%llu)\n",
        kPeelN, ps.median, cs.median, ps.median / std::max(cs.median, 1e-9),
        100.0 * EscalatedFrac(app.layer1()),
        100.0 * EscalatedFrac(app.layer2()),
        static_cast<unsigned long long>(st.summed_words),
        static_cast<unsigned long long>(st.sparse_exact_forests));
    if (!peeled->ok() || !copied->ok() ||
        !(peeled->value().skeleton == copied->value().skeleton)) {
      std::printf(
          "perf_smoke: FAIL (peeled TwoEdgeConnect answer differs from the "
          "copy oracle)\n");
      return 1;
    }
    if (EscalatedFrac(app.layer1()) < 0.99 ||
        EscalatedFrac(app.layer2()) < 0.99 || st.summed_words == 0 ||
        st.sparse_exact_forests != 0) {
      std::printf("perf_smoke: FAIL (peeled-query guard left the dense "
                  "phase)\n");
      return 1;
    }
    if (ps.median > 0.6 * cs.median) {
      std::printf(
          "perf_smoke: FAIL (peeled query %.4fs exceeds 0.6x the copy "
          "oracle's %.4fs; the overlay lost its edge over the copy)\n",
          ps.median, cs.median);
      return 1;
    }
  }
  // Timing-consistency guard: the printed table and the JSON emitter both
  // read the EngineRow that MakeIngestRow fills from ONE IngestTiming, so
  // the reported number must be the exact min over the reps and the rate
  // must invert back to it. A regression here means some emitter grew its
  // own timing arithmetic again and the two outputs can drift apart.
  {
    constexpr size_t kTinyN = 256;
    ForestSketchParams fp;
    fp.config = SketchConfig::Light();
    SpanningForestSketch tiny(kTinyN, 2, /*seed=*/5, fp);
    DynamicStream tiny_stream =
        DynamicStream::InsertOnly(UnionOfHamiltonianCycles(kTinyN, 2, 6), 7);
    IngestTiming t = BestOfThreeIngest(&tiny, tiny_stream);
    EngineRow row =
        MakeIngestRow("column_sharded", 1, t, tiny_stream.size());
    const double min_rep = std::min({t.reps[0], t.reps[1], t.reps[2]});
    const double rate = static_cast<double>(tiny_stream.size()) /
                        std::max(row.ingest_secs, 1e-9);
    if (row.ingest_secs != min_rep || row.ingest_rate != rate) {
      std::printf(
          "perf_smoke: FAIL (best-of-3 row disagrees with its reps: "
          "secs=%.9f min_rep=%.9f rate=%.3f expected=%.3f)\n",
          row.ingest_secs, min_rep, row.ingest_rate, rate);
      return 1;
    }
  }
  // All-dense ingest guard for the hybrid representation: on a stream
  // whose every column escalates within its first few updates, the hybrid
  // config must hold the threshold-0 path's throughput -- the escalated
  // fast path IS the pre-hybrid dense path (one saturated-counter branch),
  // so a regression here means the phase check leaked into the kernel
  // loop. 25% relative + 20ms absolute slack absorbs CI (and tsan) jitter;
  // expected value is parity.
  {
    constexpr size_t kDenseN = 1 << 12;
    Graph dg = UnionOfHamiltonianCycles(kDenseN, 20, /*seed=*/30);  // deg 40
    DynamicStream dense_stream = DynamicStream::InsertOnly(dg, 31);
    ForestSketchParams dense_p;
    dense_p.config = SketchConfig::Light();
    dense_p.config.sparse_threshold = 0;
    dense_p.rounds = 3;
    ForestSketchParams hybrid_p = dense_p;
    hybrid_p.config.sparse_threshold = 32;
    {
      SpanningForestSketch warm(kDenseN, 2, /*seed=*/32, dense_p);
      warm.Process(dense_stream);
    }
    SpanningForestSketch dense(kDenseN, 2, /*seed=*/32, dense_p);
    IngestTiming dense_t = BestOfThreeIngest(&dense, dense_stream);
    SpanningForestSketch hybrid(kDenseN, 2, /*seed=*/32, hybrid_p);
    IngestTiming hybrid_t = BestOfThreeIngest(&hybrid, dense_stream);
    std::printf(
        "perf_smoke: all-dense ingest threshold0=%.4fs hybrid=%.4fs "
        "(%.2fx)\n",
        dense_t.best_secs, hybrid_t.best_secs,
        dense_t.best_secs / std::max(hybrid_t.best_secs, 1e-9));
    if (hybrid_t.best_secs > 1.25 * dense_t.best_secs + 0.02) {
      std::printf(
          "perf_smoke: FAIL (hybrid all-dense ingest %.4fs exceeds 1.25x "
          "threshold-0 + 20ms = %.4fs; the sparse-phase check slowed the "
          "dense path)\n",
          hybrid_t.best_secs, 1.25 * dense_t.best_secs + 0.02);
      return 1;
    }
  }
  // Shared-plane guard: perf_smoke also owns the "one prepared pass beats
  // N independent re-prepares" contract (standalone as --plane_smoke).
  if (PlaneGuard() != 0) return 1;
  std::printf("perf_smoke: PASS (limit was %.4fs)\n", limit);
  return 0;
}

// ---------- Section 2: per-sketch microbenchmarks ----------

void BM_ForestSketchUpdate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SpanningForestSketch sketch(n, 2, 1);
  Graph g = UnionOfHamiltonianCycles(n, 2, 2);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(Hyperedge(edges[i % edges.size()]),
                  (i / edges.size()) % 2 == 0 ? +1 : -1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestSketchUpdate)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ForestSketchHyperedgeUpdate(benchmark::State& state) {
  size_t n = 512;
  size_t r = static_cast<size_t>(state.range(0));
  SpanningForestSketch sketch(n, r, 3);
  Hypergraph h = RandomUniformHypergraph(n, 512, r, 4);
  const auto& edges = h.Edges();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(edges[i % edges.size()],
                  (i / edges.size()) % 2 == 0 ? +1 : -1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestSketchHyperedgeUpdate)->Arg(2)->Arg(3)->Arg(4);

void BM_ForestDecode(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SpanningForestSketch sketch(n, 2, 5);
  sketch.Process(
      DynamicStream::InsertOnly(UnionOfHamiltonianCycles(n, 2, 6), 7));
  for (auto _ : state) {
    auto span = sketch.ExtractSpanningGraph();
    benchmark::DoNotOptimize(span);
  }
}
BENCHMARK(BM_ForestDecode)->Arg(128)->Arg(512);

void BM_KSkeletonUpdate(benchmark::State& state) {
  size_t k = static_cast<size_t>(state.range(0));
  size_t n = 256;
  KSkeletonSketch sketch(n, 2, k, 8);
  Graph g = UnionOfHamiltonianCycles(n, 2, 9);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(Hyperedge(edges[i % edges.size()]),
                  (i / edges.size()) % 2 == 0 ? +1 : -1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KSkeletonUpdate)->Arg(1)->Arg(4)->Arg(8);

void BM_VcQueryUpdate(benchmark::State& state) {
  size_t n = 128;
  VcQueryParams p;
  p.k = static_cast<size_t>(state.range(0));
  p.r_multiplier = 0.25;
  p.forest.config = SketchConfig::Light();
  VcQuerySketch sketch(n, p, 10);
  Graph g = UnionOfHamiltonianCycles(n, 2, 11);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(edges[i % edges.size()],
                  (i / edges.size()) % 2 == 0 ? +1 : -1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VcQueryUpdate)->Arg(2)->Arg(4);

void BM_VcQueryBatchedProcess(benchmark::State& state) {
  // The batched path amortizes one codec Encode per update across all R
  // sketches; compare items/s against BM_VcQueryUpdate.
  size_t n = 128;
  const VcQueryParams p =
      VcQueryParams::Builder()
          .K(4)
          .RMultiplier(0.25)
          .Forest(
              ForestSketchParams::Builder().Config(SketchConfig::Light()).Build())
          .Threads(static_cast<size_t>(state.range(0)))
          .Build();
  Graph g = UnionOfHamiltonianCycles(n, 2, 11);
  DynamicStream stream = DynamicStream::WithChurn(g, n, 12);
  for (auto _ : state) {
    VcQuerySketch sketch(n, p, 10);
    sketch.Process(stream);
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_VcQueryBatchedProcess)->Arg(1)->Arg(4);

void BM_RowSketchUpdate(benchmark::State& state) {
  size_t n = 1024;
  RowReconstructSketch sketch(n, static_cast<size_t>(state.range(0)), 12);
  Graph g = RandomDDegenerate(n, 3, 13);
  auto edges = g.Edges();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(edges[i % edges.size()],
                  (i / edges.size()) % 2 == 0 ? +1 : -1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowSketchUpdate)->Arg(1)->Arg(4);

void BM_SparsifierUpdate(benchmark::State& state) {
  size_t n = 64;
  SparsifierParams p;
  p.k = 4;
  p.levels = 10;
  p.forest.config = SketchConfig::Light();
  HypergraphSparsifierSketch sketch(n, 3, p, 14);
  Hypergraph h = RandomUniformHypergraph(n, 256, 3, 15);
  const auto& edges = h.Edges();
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(edges[i % edges.size()],
                  (i / edges.size()) % 2 == 0 ? +1 : -1);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparsifierUpdate);

void BM_LightRecoveryDecode(benchmark::State& state) {
  size_t n = 24;
  Graph g = RandomDDegenerate(n, 2, 16);
  LightRecoverySketch sketch(n, 2, 2, 17);
  sketch.Process(DynamicStream::InsertOnly(g, 18));
  for (auto _ : state) {
    auto r = sketch.Recover();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LightRecoveryDecode);

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--perf_smoke") return gms::PerfSmoke();
    if (std::string(argv[i]) == "--plane_smoke") return gms::PlaneGuard();
  }
  gms::bench::Banner(
      "E-throughput: update/decode constants + parallel engine",
      "Sharded-ownership parallel ingestion is bit-identical to serial; "
      "this measures what the extra threads buy.");
  std::vector<gms::EngineRow> rows;
  size_t n = 0, updates = 0, r = 0;
  gms::FrameSizeRow frame;
  gms::ParallelEngineSection(&rows, &n, &updates, &r, &frame);
  std::vector<gms::EngineRow> compact_rows;
  size_t compact_n = 0, compact_updates = 0;
  gms::CompactStateSection(&compact_rows, &compact_n, &compact_updates);
  gms::ExtractCompareRow extract;
  gms::ExtractionEngineSection(&extract);
  gms::ExtractCompareRow dense_extract;
  gms::PeelCompareRow peel;
  const bool dense_ok = gms::DenseExtractionSection(&dense_extract, &peel);
  std::vector<gms::SparseDensityRow> density_rows;
  size_t density_n = 0;
  uint32_t density_threshold = 0;
  gms::SparseDensitySection(&density_rows, &density_n, &density_threshold);
  gms::bench::KernelTimings kt = gms::bench::CompareUpdateKernels();
  std::printf("\nupdate kernel: old %.1f ns -> new %.1f ns (%.2fx)\n",
              kt.old_ns, kt.new_ns, kt.speedup);
  gms::WriteJson(rows, n, updates, r, compact_rows, compact_n,
                 compact_updates, frame, extract, dense_extract, peel,
                 density_rows, density_n, density_threshold, kt);
  if (!dense_ok) return 1;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
