// Cross-cutting timing: stream-update throughput and decode latency of
// every sketch in the library. The paper's algorithms are "low polynomial
// time, typically linear in the number of edges" (Section 1.1); this charts
// the constants. Two sections:
//   1. Serial-vs-parallel engine comparison (VcQuerySketch ingestion and
//      union-graph extraction across a thread sweep, all-sparse and its
//      threshold-0 twin), emitted both as a table and machine-readably as
//      BENCH_throughput.json.
//   2. The per-sketch google-benchmark microbenchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "kernel_compare.h"
#include "apps/two_edge_connect.h"
#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/edge_codec.h"
#include "graph/generators.h"
#include "reconstruct/light_recovery.h"
#include "reconstruct/row_reconstruct.h"
#include "sparsify/sparsifier_sketch.h"
#include "stream/ingest_plane.h"
#include "stream/stream.h"
#include "testkit/forest_reference.h"
#include "testkit/peel_reference.h"
#include "testkit/stream_spec.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

// ---------- Section 1: parallel-engine throughput ----------

struct EngineRow {
  size_t threads = 1;
  bench::Spread ingest_secs;
  double ingest_rate = 0;    // updates/s at the median
  bench::Spread query_secs;  // Query (BuildUnionGraph)
  ExtractStats stats;        // extraction-engine counters of the last Query
};

using bench::IngestTiming;

/// The single constructor of an ingest row. The printed table and the
/// JSON emitter both read the fields this fills from ONE list of reps, so
/// the two outputs cannot disagree about which number was reported.
EngineRow MakeIngestRow(size_t threads, const std::vector<double>& reps,
                        size_t updates) {
  EngineRow row;
  row.threads = threads;
  row.ingest_secs = bench::SpreadOf(reps);
  row.ingest_rate =
      static_cast<double>(updates) / std::max(row.ingest_secs.median, 1e-9);
  return row;
}

/// Serialized-frame size of the benchmarked sketch (bytes on the wire).
struct FrameSizeRow {
  size_t frame_bytes = 0;
  double bytes_per_vertex = 0;
};

/// One engine table: VcQuerySketch ingestion + query per thread count,
/// column-sharded (each worker owns a block of the R subsample sketches),
/// plus the stream and frame they were measured on.
struct EngineSection {
  size_t n = 0;
  size_t r = 0;
  size_t updates = 0;
  FrameSizeRow frame;
  std::vector<EngineRow> rows;
};

/// Measure one EngineSection. The sketch seed is identical across rows, so
/// every row computes the bit-identical state and union graph (the
/// determinism suite asserts this); only the wall clock may differ. Reps
/// alternate between the thread counts so host load drifts hit every row.
EngineSection MeasureEngine(size_t n, const VcQueryParams& params,
                            const DynamicStream& stream, const char* title) {
  constexpr int kReps = 5;
  EngineSection out;
  out.n = n;
  out.updates = stream.size();

  // Untimed warm-up: the first sketch constructed in the process pays the
  // one-off cost of faulting in fresh arena pages, which would otherwise
  // inflate every later row's "speedup" against the first cell.
  {
    VcQuerySketch warm(n, params, /*seed=*/4);
    warm.Process(stream);
  }

  const size_t thread_counts[] = {1, 2, 4, 8};
  std::vector<VcQuerySketch> sketches;
  sketches.reserve(std::size(thread_counts));
  for (size_t threads : thread_counts) {
    sketches.emplace_back(
        n, VcQueryParams::Builder(params).Threads(threads).Build(),
        /*seed=*/4);
  }
  out.r = sketches[0].R();
  std::vector<std::vector<double>> ingest(std::size(thread_counts));
  std::vector<std::vector<double>> query(std::size(thread_counts));
  std::vector<ExtractStats> stats(std::size(thread_counts));
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t c = 0; c < std::size(thread_counts); ++c) {
      VcQuerySketch& sketch = sketches[c];
      sketch.Clear();
      Timer ti;
      sketch.Process(stream);
      ingest[c].push_back(ti.Seconds());
      Timer tq;
      auto snap = sketch.Query();
      query[c].push_back(tq.Seconds());
      if (snap.ok()) {
        stats[c] = snap.stats();
      } else {
        std::printf("  (query failed at threads=%zu)\n", thread_counts[c]);
      }
    }
  }
  out.frame.frame_bytes = sketches[0].SpaceBytes();
  out.frame.bytes_per_vertex = static_cast<double>(out.frame.frame_bytes) /
                               static_cast<double>(n);

  Table table({"threads", "ingest_med_s", "ingest_min_s", "ingest_max_s",
               "updates/s", "speedup", "query_med_s"});
  for (size_t c = 0; c < std::size(thread_counts); ++c) {
    EngineRow row = MakeIngestRow(thread_counts[c], ingest[c], stream.size());
    row.query_secs = bench::SpreadOf(query[c]);
    row.stats = stats[c];
    out.rows.push_back(row);
    const double serial_rate = out.rows.front().ingest_rate;
    table.AddRow({Table::Fmt(uint64_t{row.threads}),
                  Table::Fmt(row.ingest_secs.median, 3),
                  Table::Fmt(row.ingest_secs.min, 3),
                  Table::Fmt(row.ingest_secs.max, 3),
                  bench::Rate(row.ingest_rate),
                  Table::Fmt(row.ingest_rate / std::max(serial_rate, 1e-9), 2),
                  Table::Fmt(row.query_secs.median, 3)});
  }
  table.Print(title);
  std::printf(
      "\n%d reps per thread count (alternating); speedup is at the median.\n"
      "n=%zu, R=%zu subsamples, %zu stream updates; wire frame: %zu bytes\n"
      "total, %.1f bytes/vertex (one VcQuery frame; the paper's space\n"
      "measure is per-vertex polylog)\n",
      kReps, n, out.r, out.updates, out.frame.frame_bytes,
      out.frame.bytes_per_vertex);
  return out;
}

/// The all-sparse engine rows: n = 2^14, k = 4. R is held at a
/// bench-friendly 16 (the paper's 16 k^2 ln n would be ~2500); rounds fixed
/// low so the rows fit in memory comfortably.
EngineSection ParallelEngineSection() {
  constexpr size_t kN = 1 << 14;
  VcQueryParams params;
  params.k = 4;
  params.explicit_r = 16;
  params.forest.config = SketchConfig::Light();
  params.forest.rounds = 3;
  Graph g = UnionOfHamiltonianCycles(kN, 3, /*seed=*/2);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN / 2, 3);
  EngineSection out = MeasureEngine(
      kN, params, stream,
      "Parallel engine: VcQuerySketch ingest + query, column-sharded");
  std::printf(
      "\nExpected shape: identical outputs at every thread count (the\n"
      "determinism suite asserts bit-identity). This stream has ~4 updates\n"
      "per vertex, so every column stays in its sparse buffer; the workers\n"
      "split the R subsample sketches, so the speedup is capped by the\n"
      "host's cores (DESIGN.md S6, S11).\n");
  return out;
}

/// The engine rows' threshold-0 twin: every subsample column is dense from
/// the first update, so each kept update reaches the forest kernel's arena
/// writes. A dense n = 2^14 union does not fit beside its three sibling
/// sketches, so the twin runs at n = 2^12 with R = 8 (~1024 kept vertices
/// per subsample) on a stream of ~9 updates per vertex.
EngineSection DenseEngineSection() {
  constexpr size_t kN = 1 << 12;
  VcQueryParams params;
  params.k = 4;
  params.explicit_r = 8;
  params.forest.config = SketchConfig::Light();
  params.forest.config.sparse_threshold = 0;
  params.forest.rounds = 3;
  Graph g = UnionOfHamiltonianCycles(kN, 8, /*seed=*/2);
  DynamicStream stream = DynamicStream::WithChurn(g, /*decoys=*/kN / 2, 3);
  const double rss_before = bench::PeakRssMb();
  EngineSection out = MeasureEngine(
      kN, params, stream,
      "Parallel engine, dense twin: threshold-0 VcQuerySketch ingest + query");
  std::printf(
      "\nExpected shape: as the sparse rows, but every kept update pays the\n"
      "dense L0 write in each of the 3 rounds. Process peak RSS: %.0f MiB\n"
      "before this section, %.0f MiB after it.\n",
      rss_before, bench::PeakRssMb());
  return out;
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
  bench::Spread hybrid_ns_per_update;  // over kDensityReps alternating reps
  bench::Spread dense_ns_per_update;
};

constexpr int kDensityReps = 5;

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

    // Reps alternate hybrid and dense, so host load drifts hit both.
    SpanningForestSketch hybrid(kN, 2, /*seed=*/30, hybrid_params);
    SpanningForestSketch dense(kN, 2, /*seed=*/30, dense_params);
    std::vector<double> hybrid_ns, dense_ns;
    const double per_update = 1e9 / static_cast<double>(stream.size());
    for (int rep = 0; rep < kDensityReps; ++rep) {
      for (SpanningForestSketch* sketch : {&hybrid, &dense}) {
        sketch->Clear();
        Timer timer;
        sketch->Process(stream);
        (sketch == &hybrid ? hybrid_ns : dense_ns)
            .push_back(timer.Seconds() * per_update);
      }
    }
    row.hybrid_ns_per_update = bench::SpreadOf(hybrid_ns);
    row.dense_ns_per_update = bench::SpreadOf(dense_ns);
    size_t sparse_vertices = 0;
    for (VertexId v = 0; v < kN; ++v) {
      sparse_vertices += hybrid.VertexEscalated(v) ? 0 : 1;
    }
    row.sparse_vertex_frac =
        static_cast<double>(sparse_vertices) / static_cast<double>(kN);
    row.hybrid_bytes_per_vertex =
        static_cast<double>(hybrid.SpaceBytes()) / static_cast<double>(kN);
    row.dense_bytes_per_vertex =
        static_cast<double>(dense.SpaceBytes()) / static_cast<double>(kN);

    rows->push_back(row);
    table.AddRow(
        {Table::Fmt(row.fraction, 2), Table::Fmt(row.updates_per_vertex, 1),
         Table::Fmt(100.0 * row.sparse_vertex_frac, 1),
         Table::Fmt(row.hybrid_bytes_per_vertex, 1),
         Table::Fmt(row.dense_bytes_per_vertex, 1),
         Table::Fmt(row.dense_bytes_per_vertex /
                        std::max(row.hybrid_bytes_per_vertex, 1e-9),
                    1),
         Table::Fmt(row.hybrid_ns_per_update.median, 1),
         Table::Fmt(row.dense_ns_per_update.median, 1),
         Table::Fmt(row.dense_ns_per_update.median /
                        std::max(row.hybrid_ns_per_update.median, 1e-9),
                    2)});
  }
  table.Print("Hybrid sparse/dense: space + ingest vs stream density "
              "(one forest, n=2^14, threshold 32)");
  std::printf(
      "\nns/upd are medians of %d alternating hybrid/dense reps (min and max\n"
      "in the JSON).\n",
      kDensityReps);
  std::printf(
      "\nExpected shape: below fraction 1.0 (nearly) every column stays in\n"
      "its exact sparse buffer -- bytes/vertex collapses from the dense\n"
      "arena to ~24B per buffered edge and ingest skips the L0 kernel\n"
      "entirely. The last row crosses the threshold everywhere, so both\n"
      "columns pay the dense kernel and the ratios return to ~1x (the\n"
      "escalated fast path is the pre-hybrid dense path).\n");
}

/// Old-vs-new finalize engine: one SpanningForestSketch at a full round
/// budget (default log2 n + extra, where the window refills actually
/// amortize). Times Query (the incremental decode) against the testkit
/// reference re-sum decoder, serial and parallel, and checks all four
/// Hypergraphs are bit-identical. Two twins: a churn stream with ~6
/// updates per vertex (nearly every column stays in its exact sparse
/// buffer) and the all-dense stream below.
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
  (void)sketch.Query(1);  // untimed warm-up

  Timer t_inc_s;
  auto inc_serial = sketch.Query(1);
  out->inc_serial_secs = t_inc_s.Seconds();
  Timer t_inc_p;
  auto inc_parallel = sketch.Query(8);
  out->inc_parallel_secs = t_inc_p.Seconds();
  Timer t_ref_s;
  auto ref_serial = testkit::ExtractSpanningGraphReference(sketch, 1);
  out->ref_serial_secs = t_ref_s.Seconds();
  Timer t_ref_p;
  auto ref_parallel = testkit::ExtractSpanningGraphReference(sketch, 8);
  out->ref_parallel_secs = t_ref_p.Seconds();
  out->inc_stats = inc_parallel.stats();
  out->ref_stats = ref_parallel.stats();
  out->identical = inc_serial.value() == inc_parallel.value() &&
                   inc_serial.value() == ref_serial.value() &&
                   inc_serial.value() == ref_parallel.value();

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
                    "Extraction engine: Query vs reference re-sum (one "
                    "forest, full round budget, sparse-phase stream; an "
                    "all-sparse Query stops after the exact pre-round)",
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
  const SpanningForestSketch& layer2 = app.skeleton().layer(1);
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

/// Plane ingest against the caller's chunk size, on the perfbench
/// batch_dense stream shape (temporal churn, n = 2^12, 40n updates, every
/// column escalated): a fresh Light TwoEdgeConnect at 1 thread (the shared
/// IngestPlane path) per rep, timed from construction through the last
/// Process call, as perfbench times a pass. At 2048-update chunks each
/// column gets about one entry per plane batch -- ApplyUpdateBatch's
/// small-batch prefetch path (DESIGN.md S17) -- while the whole stream
/// hands over full 64-entry gutters.
struct PlaneChunkRow {
  size_t chunk = 0;  // updates per Process call (stream size = whole)
  bench::Spread secs;
  double updates_per_sec = 0;  // at the median
  double escalated_frac = 0;   // layer 1 columns past the sparse threshold
};

/// Returns false if a row left the dense phase it claims to time.
bool PlaneChunkSection(std::vector<PlaneChunkRow>* rows, size_t* out_n,
                       size_t* out_updates) {
  constexpr size_t kN = 1 << 12;
  constexpr int kReps = 5;
  const DynamicStream stream = AllDenseStream(kN, /*trial=*/26);
  const std::span<const StreamUpdate> updates(stream.updates());
  *out_n = kN;
  *out_updates = updates.size();
  const ForestSketchParams params =
      ForestSketchParams::Builder().Config(SketchConfig::Light()).Build();
  const size_t chunks[] = {2048, updates.size()};
  std::vector<std::vector<double>> reps(std::size(chunks));
  std::vector<double> escalated(std::size(chunks), 0);
  // Reps alternate between the chunk sizes so host load drifts hit both.
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t c = 0; c < std::size(chunks); ++c) {
      Timer t;
      apps::TwoEdgeConnect app(kN, 2, /*seed=*/27, params);
      for (size_t done = 0; done < updates.size(); done += chunks[c]) {
        app.Process(updates.subspan(
            done, std::min(chunks[c], updates.size() - done)));
      }
      reps[c].push_back(t.Seconds());
      escalated[c] = EscalatedFrac(app.layer1());
    }
  }
  Table table({"chunk", "median_s", "min_s", "max_s", "updates/s",
               "escalated%"});
  bool dense = true;
  for (size_t c = 0; c < std::size(chunks); ++c) {
    PlaneChunkRow row;
    row.chunk = chunks[c];
    row.secs = bench::SpreadOf(reps[c]);
    row.updates_per_sec = static_cast<double>(updates.size()) /
                          std::max(row.secs.median, 1e-9);
    row.escalated_frac = escalated[c];
    dense = dense && row.escalated_frac >= 0.99;
    rows->push_back(row);
    table.AddRow({c + 1 == std::size(chunks) ? std::string("whole")
                                             : Table::Fmt(uint64_t{row.chunk}),
                  Table::Fmt(row.secs.median, 3), Table::Fmt(row.secs.min, 3),
                  Table::Fmt(row.secs.max, 3),
                  bench::Rate(row.updates_per_sec),
                  Table::Fmt(100.0 * row.escalated_frac, 1)});
  }
  table.Print("Plane ingest vs chunk size: TwoEdgeConnect (Light, 1 thread) "
              "on the batch_dense stream shape");
  std::printf(
      "\nn=%zu, %zu updates, %d reps per chunk size (alternating); phase: "
      "%s\n",
      kN, updates.size(), kReps,
      dense ? "dense (ok)" : "FAIL (left the dense phase)");
  return dense;
}

/// One row of the key-resolution timing: a named key domain and its
/// production vs. reference ns per (key, round).
struct ResolveRow {
  const char* name = "";
  bench::ResolveTimings timings;
};

/// The rank-2 batch_dense domain (n = 2^12) the --perf_smoke guard reuses.
u128 Rank2Domain(size_t n) { return EdgeCodec(n, 2).DomainSize(); }

/// The kernel section: the update-kernel before/after row plus ns per
/// (key, round) for resolving level, cells and power, production against
/// the reference arithmetic, at rank-2 n = 2^12 and 2^16 (keys below 2^64,
/// 3 and 4 power windows) and at a 2^80 domain (keys above 2^64, up to 8
/// windows, the mixer product taken). Returns false if a row's production
/// and reference resolutions disagree.
bool KernelSection(bench::KernelTimings* kt, std::vector<ResolveRow>* rows) {
  *kt = bench::CompareUpdateKernels();
  std::printf("\nupdate kernel: old %.1f ns -> new %.1f ns (%.2fx)\n",
              kt->old_ns, kt->new_ns, kt->speedup);
  const ResolveRow specs[] = {
      {"rank2_n4096", bench::CompareResolve(Rank2Domain(size_t{1} << 12))},
      {"rank2_n65536", bench::CompareResolve(Rank2Domain(size_t{1} << 16))},
      {"domain_2^80", bench::CompareResolve(u128{1} << 80)},
  };
  Table table({"domain", "key_bits", "rounds", "reference_ns", "resolve_ns",
               "speedup", "identical"});
  bool identical = true;
  for (const ResolveRow& row : specs) {
    const bench::ResolveTimings& t = row.timings;
    identical = identical && t.identical;
    table.AddRow({row.name, Table::Fmt(uint64_t(BitWidth128(t.domain - 1))),
                  Table::Fmt(uint64_t(t.rounds)), Table::Fmt(t.ref_ns, 2),
                  Table::Fmt(t.new_ns, 2), Table::Fmt(t.speedup, 2),
                  t.identical ? "yes" : "NO"});
    rows->push_back(row);
  }
  table.Print("Key resolution per (key, round): level + cells + power, "
              "best of 5 alternating reps (Light rounds, no cell writes)");
  return identical;
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

void AppendSpread(FILE* f, const bench::Spread& s) {
  std::fprintf(f, "{\"median\": %.6f, \"min\": %.6f, \"max\": %.6f}",
               s.median, s.min, s.max);
}

void AppendEngineRows(FILE* f, const std::vector<EngineRow>& rows,
                      const char* indent) {
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& row = rows[i];
    std::fprintf(f, "%s{\"threads\": %zu, \"ingest_seconds\": ", indent,
                 row.threads);
    AppendSpread(f, row.ingest_secs);
    std::fprintf(f,
                 ", \"updates_per_sec\": %.1f,\n%s \"finalize_seconds\": ",
                 row.ingest_rate, indent);
    AppendSpread(f, row.query_secs);
    std::fprintf(f,
                 ",\n%s \"finalize_breakdown\": {\"rounds_run\": %d, "
                 "\"early_exit\": %s, \"summed_words\": %llu, "
                 "\"sample_attempts\": %llu, \"decode_attempts\": %llu, "
                 "\"edges_found\": %llu, \"groups_per_round\": ",
                 indent, row.stats.rounds_run,
                 row.stats.early_exit ? "true" : "false",
                 static_cast<unsigned long long>(row.stats.summed_words),
                 static_cast<unsigned long long>(row.stats.sample_attempts),
                 static_cast<unsigned long long>(row.stats.decode_attempts),
                 static_cast<unsigned long long>(row.stats.edges_found));
    AppendGroupsPerRound(f, row.stats);
    std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
  }
}

void WriteJson(const EngineSection& engine, const EngineSection& dense_engine,
               const ExtractCompareRow& extract,
               const ExtractCompareRow& dense_extract,
               const PeelCompareRow& peel,
               const std::vector<PlaneChunkRow>& chunk_rows, size_t chunk_n,
               size_t chunk_updates,
               const std::vector<SparseDensityRow>& density_rows,
               size_t density_n, uint32_t density_threshold,
               const bench::KernelTimings& kt,
               const std::vector<ResolveRow>& resolve_rows) {
  FILE* f = std::fopen("BENCH_throughput.json", "w");
  if (f == nullptr) {
    std::printf("could not open BENCH_throughput.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  bench::WriteHostBlock(f);
  std::fprintf(f, "  \"n\": %zu,\n  \"k\": 4,\n  \"r\": %zu,\n", engine.n,
               engine.r);
  std::fprintf(f, "  \"stream_updates\": %zu,\n  \"engine\": [\n",
               engine.updates);
  AppendEngineRows(f, engine.rows, "    ");
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"engine_dense\": {\"n\": %zu, \"k\": 4, \"r\": %zu, "
               "\"sparse_threshold\": 0, \"stream_updates\": %zu,\n"
               "    \"frame\": {\"bytes\": %zu, \"bytes_per_vertex\": %.2f},"
               "\n    \"rows\": [\n",
               dense_engine.n, dense_engine.r, dense_engine.updates,
               dense_engine.frame.frame_bytes,
               dense_engine.frame.bytes_per_vertex);
  AppendEngineRows(f, dense_engine.rows, "      ");
  std::fprintf(f, "  ]},\n");
  AppendExtractCompare(f, "extraction_engine", extract);
  AppendExtractCompare(f, "extraction_engine_dense", dense_extract);
  std::fprintf(f,
               "  \"peel\": {\"n\": %zu, \"peeled_edges\": %zu, "
               "\"identical\": %s,\n    \"peeled_seconds\": ",
               peel.n, peel.peeled_edges, peel.identical ? "true" : "false");
  AppendSpread(f, peel.peeled_secs);
  std::fprintf(f, ",\n    \"copy_seconds\": ");
  AppendSpread(f, peel.copy_secs);
  std::fprintf(f,
               ",\n    \"peeled_rss_growth_mb\": %.1f, "
               "\"copy_rss_growth_mb\": %.1f},\n",
               peel.peeled_rss_growth_mb, peel.copy_rss_growth_mb);
  std::fprintf(f,
               "  \"plane_chunks\": {\"n\": %zu, \"stream_updates\": %zu, "
               "\"rows\": [\n",
               chunk_n, chunk_updates);
  for (size_t i = 0; i < chunk_rows.size(); ++i) {
    const PlaneChunkRow& row = chunk_rows[i];
    std::fprintf(f, "    {\"chunk\": %zu, \"seconds\": ", row.chunk);
    AppendSpread(f, row.secs);
    std::fprintf(f,
                 ", \"updates_per_sec\": %.1f, "
                 "\"escalated_fraction\": %.4f}%s\n",
                 row.updates_per_sec, row.escalated_frac,
                 i + 1 < chunk_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"frame\": {\"bytes\": %zu, \"bytes_per_vertex\": %.2f},\n",
               engine.frame.frame_bytes, engine.frame.bytes_per_vertex);
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
        "\"dense_bytes_per_vertex\": %.2f, \"space_reduction\": %.2f,\n"
        "     \"hybrid_ingest_ns_per_update\": ",
        row.fraction, row.updates, row.updates_per_vertex,
        row.sparse_vertex_frac, row.hybrid_bytes_per_vertex,
        row.dense_bytes_per_vertex,
        row.dense_bytes_per_vertex /
            std::max(row.hybrid_bytes_per_vertex, 1e-9));
    AppendSpread(f, row.hybrid_ns_per_update);
    std::fprintf(f, ",\n     \"dense_ingest_ns_per_update\": ");
    AppendSpread(f, row.dense_ns_per_update);
    std::fprintf(f, ", \"ingest_speedup\": %.3f}%s\n",
                 row.dense_ns_per_update.median /
                     std::max(row.hybrid_ns_per_update.median, 1e-9),
                 i + 1 < density_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"kernel\": {\"old_ns_per_update\": %.2f, "
               "\"new_ns_per_update\": %.2f, \"speedup\": %.3f,\n"
               "    \"resolve\": [\n",
               kt.old_ns, kt.new_ns, kt.speedup);
  for (size_t i = 0; i < resolve_rows.size(); ++i) {
    const bench::ResolveTimings& t = resolve_rows[i].timings;
    std::fprintf(f,
                 "      {\"domain\": \"%s\", \"key_bits\": %d, "
                 "\"rounds\": %d, \"keys\": %zu, "
                 "\"reference_ns_per_key_round\": %.2f, "
                 "\"resolve_ns_per_key_round\": %.2f, \"speedup\": %.3f, "
                 "\"identical\": %s}%s\n",
                 resolve_rows[i].name, BitWidth128(t.domain - 1), t.rounds,
                 t.keys, t.ref_ns, t.new_ns, t.speedup,
                 t.identical ? "true" : "false",
                 i + 1 < resolve_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n");
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

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
constexpr bool kSanitizedBuild =
    __has_feature(thread_sanitizer) || __has_feature(address_sanitizer);
#else
constexpr bool kSanitizedBuild = false;
#endif

/// Resident-memory guard for the hybrid arena (part of `--perf_smoke`, and
/// run first there, before any other section raises the process's RSS
/// high-water mark). One Light forest at n = 2^15 (rounds 3) escalates
/// every 16th column, 6.25% of them spread over the whole ordinal range;
/// every other column stays sparse. Escalated columns take arena slots in
/// escalation order, so the sketch's resident arena is about the escalated
/// columns' bytes whatever n is. The guard fails if the max-RSS growth
/// over ingest exceeds 2x those bytes: an arena placed by ordinal backs
/// each scattered column with its own 2 MiB huge page (about 16x here).
/// A ratio inside one process, so it holds on any CPU count. Sanitizer
/// builds skip it: their shadow memory is not the sketch's.
int MemoryGuard() {
  if (kSanitizedBuild) {
    std::printf("perf_smoke: memory guard skipped (sanitizer build)\n");
    return 0;
  }
  constexpr size_t kN = 1 << 15;
  constexpr VertexId kStride = 16;
  const ForestSketchParams params = ForestSketchParams::Builder()
                                        .Config(SketchConfig::Light())
                                        .Rounds(3)
                                        .Build();
  // Hub h (every kStride-th vertex) gets T + 1 edges to the vertices above
  // it, so it escalates; any other vertex hears from at most
  // ceil((T + 1) / kStride) hubs and stays sparse.
  const uint32_t reach = params.config.sparse_threshold + 1;
  std::vector<StreamUpdate> updates;
  for (VertexId h = 0; h < kN; h += kStride) {
    for (VertexId j = 1; j <= reach; ++j) {
      updates.emplace_back(Hyperedge{h, static_cast<VertexId>((h + j) % kN)},
                           +1);
    }
  }
  SpanningForestSketch sketch(kN, 2, /*seed=*/60, params);
  const double before_mb = bench::PeakRssMb();
  sketch.Process(std::span<const StreamUpdate>(updates));
  const double growth_mb = bench::PeakRssMb() - before_mb;
  const size_t escalated = sketch.SlotsUsed();
  const double escalated_mb = static_cast<double>(escalated) *
                              static_cast<double>(sketch.MemoryBytes()) /
                              static_cast<double>(kN) / (1024.0 * 1024.0);
  std::printf(
      "perf_smoke: memory n=%zu escalated=%zu (%.2f%%) escalated_bytes=%.1f "
      "MiB maxrss_growth=%.1f MiB (%.2fx; arena maps %.1f MiB)\n",
      kN, escalated, 100.0 * static_cast<double>(escalated) / kN,
      escalated_mb, growth_mb, growth_mb / std::max(escalated_mb, 1e-9),
      static_cast<double>(sketch.MemoryBytes()) / (1024.0 * 1024.0));
  if (escalated != kN / kStride) {
    std::printf("perf_smoke: FAIL (memory guard escalated %zu columns, "
                "expected %zu)\n",
                escalated, kN / kStride);
    return 1;
  }
  if (growth_mb > 2.0 * escalated_mb) {
    std::printf(
        "perf_smoke: FAIL (max-RSS growth %.1f MiB exceeds 2x the escalated "
        "columns' %.1f MiB; the arena no longer packs escalated columns)\n",
        growth_mb, escalated_mb);
    return 1;
  }
  return 0;
}

/// `--perf_smoke`: a CI-sized guard on the finalize path (the `perf_smoke`
/// ctest label, run in the tsan preset too). Ingests a reduced VcQuery
/// workload and HARD-FAILS if finalize costs more than 2x ingest (plus a
/// small absolute slack for timer jitter at this scale). Every column stays
/// sparse, so finalize is the exact sparse pre-round of every forest; the
/// guard also fails if its stats show any other phase.
int PerfSmoke() {
  if (MemoryGuard() != 0) return 1;
  // Key-resolution guard: the production resolve (short-exponent power,
  // one-multiply 2-wise hashes) must not be slower than the reference
  // arithmetic on the rank-2 n = 2^12 domain, whose keys need 3 of the 8
  // power windows. A ratio inside one binary, best of 5 alternating reps,
  // so it holds on any host; a trip means the compiler lost the power's
  // early exit or the hashes' shortcuts. The resolutions must also agree.
  {
    const bench::ResolveTimings t =
        bench::CompareResolve(Rank2Domain(size_t{1} << 12));
    std::printf(
        "perf_smoke: key resolve rank-2 n=4096 reference=%.2fns "
        "resolve=%.2fns per (key, round) (%.2fx)\n",
        t.ref_ns, t.new_ns, t.speedup);
    if (!t.identical) {
      std::printf("perf_smoke: FAIL (resolve disagrees with the reference "
                  "arithmetic)\n");
      return 1;
    }
    if (t.new_ns > t.ref_ns) {
      std::printf("perf_smoke: FAIL (resolve %.2fns is slower than the "
                  "reference %.2fns)\n",
                  t.new_ns, t.ref_ns);
      return 1;
    }
  }
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
        100.0 * EscalatedFrac(app.skeleton().layer(1)),
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
        EscalatedFrac(app.skeleton().layer(1)) < 0.99 ||
        st.summed_words == 0 ||
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
  // read the EngineRow that MakeIngestRow fills from ONE list of reps, so
  // the reported spread must be the exact middle, least and greatest rep
  // and the rate must invert back to the median. A regression here means
  // some emitter grew its own timing arithmetic again and the two outputs
  // can drift apart.
  {
    constexpr size_t kTinyN = 256;
    ForestSketchParams fp;
    fp.config = SketchConfig::Light();
    SpanningForestSketch tiny(kTinyN, 2, /*seed=*/5, fp);
    DynamicStream tiny_stream =
        DynamicStream::InsertOnly(UnionOfHamiltonianCycles(kTinyN, 2, 6), 7);
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      tiny.Clear();
      Timer t;
      tiny.Process(tiny_stream);
      reps.push_back(t.Seconds());
    }
    const EngineRow row = MakeIngestRow(1, reps, tiny_stream.size());
    std::vector<double> sorted = reps;
    std::sort(sorted.begin(), sorted.end());
    const double rate = static_cast<double>(tiny_stream.size()) /
                        std::max(row.ingest_secs.median, 1e-9);
    if (row.ingest_secs.median != sorted[2] ||
        row.ingest_secs.min != sorted[0] || row.ingest_secs.max != sorted[4] ||
        row.ingest_rate != rate) {
      std::printf(
          "perf_smoke: FAIL (engine row disagrees with its reps: "
          "median=%.9f want=%.9f rate=%.3f expected=%.3f)\n",
          row.ingest_secs.median, sorted[2], row.ingest_rate, rate);
      return 1;
    }
  }
  // All-dense ingest guard for the hybrid representation: on a degree-40
  // stream every column ends escalated, but only after buffering 32 of
  // its 40 updates (T = 32) and replaying them into the arena. The hybrid
  // config must still hold the threshold-0 path's throughput: the serial
  // pre-pass hands the round loop only the updates with a dense endpoint,
  // so a fully absorbed update costs no hashing or prefetch there, and the
  // escalated columns take the pre-hybrid dense kernel. A trip means the
  // buffering, the replay or the phase check leaked into the kernel loop.
  // 25% relative + 20ms absolute slack absorbs CI (and tsan) jitter;
  // expected value is parity. The two configs' reps alternate, best of 5
  // each, so a burst of load from parallel tests hits both sides.
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
    SpanningForestSketch hybrid(kDenseN, 2, /*seed=*/32, hybrid_p);
    // Clear + re-Process replays the identical measurement (linearity).
    const auto time_rep = [&](SpanningForestSketch* sketch, int rep) {
      if (rep > 0) sketch->Clear();
      Timer timer;
      sketch->Process(dense_stream);
      return timer.Seconds();
    };
    constexpr int kReps = 5;
    double dense_best = 0, hybrid_best = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double d = time_rep(&dense, rep);
      const double h = time_rep(&hybrid, rep);
      dense_best = rep == 0 ? d : std::min(dense_best, d);
      hybrid_best = rep == 0 ? h : std::min(hybrid_best, h);
    }
    std::printf(
        "perf_smoke: all-dense ingest threshold0=%.4fs hybrid=%.4fs "
        "(%.2fx)\n",
        dense_best, hybrid_best, dense_best / std::max(hybrid_best, 1e-9));
    if (hybrid_best > 1.25 * dense_best + 0.02) {
      std::printf(
          "perf_smoke: FAIL (hybrid all-dense ingest %.4fs exceeds 1.25x "
          "threshold-0 + 20ms = %.4fs; the sparse-phase check slowed the "
          "dense path)\n",
          hybrid_best, 1.25 * dense_best + 0.02);
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
    auto span = sketch.Query();
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
  // Reject unknown flags before the engine sections run for a minute and
  // overwrite BENCH_throughput.json.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gms::bench::Banner(
      "E-throughput: update/decode constants + parallel engine",
      "Sharded-ownership parallel ingestion is bit-identical to serial; "
      "this measures what the extra threads buy.");
  const gms::EngineSection engine = gms::ParallelEngineSection();
  const gms::EngineSection dense_engine = gms::DenseEngineSection();
  gms::ExtractCompareRow extract;
  gms::ExtractionEngineSection(&extract);
  gms::ExtractCompareRow dense_extract;
  gms::PeelCompareRow peel;
  const bool dense_ok = gms::DenseExtractionSection(&dense_extract, &peel);
  std::vector<gms::PlaneChunkRow> chunk_rows;
  size_t chunk_n = 0, chunk_updates = 0;
  const bool chunks_ok =
      gms::PlaneChunkSection(&chunk_rows, &chunk_n, &chunk_updates);
  std::vector<gms::SparseDensityRow> density_rows;
  size_t density_n = 0;
  uint32_t density_threshold = 0;
  gms::SparseDensitySection(&density_rows, &density_n, &density_threshold);
  gms::bench::KernelTimings kt;
  std::vector<gms::ResolveRow> resolve_rows;
  const bool resolve_ok = gms::KernelSection(&kt, &resolve_rows);
  gms::WriteJson(engine, dense_engine, extract, dense_extract, peel,
                 chunk_rows, chunk_n, chunk_updates, density_rows, density_n,
                 density_threshold, kt, resolve_rows);
  if (!dense_ok || !chunks_ok || !resolve_ok) return 1;

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
