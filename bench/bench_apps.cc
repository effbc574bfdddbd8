// Experiment: composed applications over the workload corpus (DESIGN.md
// §14).
//
// Three measurements, each against the real-graph-shaped generator
// families the workload layer added:
//
//   1. App throughput: TwoEdgeConnect (2 forest layers) and ApproxMinCut
//      (doubling skeleton ladder) ingest rates -- the prepare-once shared
//      plane vs every layer re-preparing for itself -- plus the one-shot
//      query cost.
//   2. Corpus replay: the same spec ingested from memory vs replayed from
//      its disk-resident GMSB file in decoded chunks
//      (ProcessBinaryFileStream); the file path must hold most of the
//      in-memory rate, since records decode in place.
//   3. Bridge serving: sustained is_bridge wire queries/s against a
//      SketchServer skeleton snapshot (the BridgeIndex makes each query
//      one binary search).
//   4. Exact post-processing kernels (DESIGN.md §16): HypergraphMinCut
//      and IsKVertexConnected(t = 2) on road-like graphs, the kernels
//      ApproxMinCut and kVcAtLeast run on their skeletons, against the
//      testkit reference kernels they replaced (median, min and max over
//      repetitions; the reference only where it finishes in seconds).
//
// Results print as tables and land machine-readably in BENCH_apps.json.
//
// --apps_smoke: reduced workload, timing-free hard asserts; the AppsSmoke
// ctest (default + tsan presets) runs this mode:
//   - shared-plane and per-layer ingestion answer identically;
//   - file replay produces the same answers as in-memory ingestion;
//   - served is_bridge answers match exact Tarjan bridges of the final
//     graph for every queried pair;
//   - the exact kernels return the reference's answers: the same
//     (value, side) for the min cut, the same decision for kappa >= 2.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "bench_util.h"
#include "exact/hypergraph_mincut.h"
#include "exact/vertex_connectivity.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "serve/serve_protocol.h"
#include "serve/sketch_server.h"
#include "testkit/exact_reference.h"
#include "testkit/stream_spec.h"
#include "util/check.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"
#include "workload/binary_stream.h"
#include "workload/spec_convert.h"

namespace gms {
namespace {

testkit::StreamSpec MakeSpec(testkit::Family family, size_t n, size_t m,
                             size_t decoys) {
  testkit::StreamSpec spec;
  spec.family = family;
  spec.n = n;
  spec.m = m;
  if (decoys > 0) {
    spec.churn = testkit::Churn::kWithChurn;
    spec.decoys = decoys;
  }
  return spec;
}

struct AppRow {
  std::string app;
  std::string family;
  size_t n = 0;
  size_t updates = 0;
  double shared_seconds = 0;       // prepare-once plane fan-out (Process)
  double independent_seconds = 0;  // every layer re-prepares for itself
  double query_seconds = 0;
  size_t memory_bytes = 0;
};

template <typename App, typename MakeApp>
AppRow RunApp(const char* name, const testkit::StreamSpec& spec,
              const MakeApp& make_app) {
  AppRow row;
  row.app = name;
  row.family = testkit::FamilyName(spec.family);
  row.n = spec.n;

  testkit::BuiltStream built = spec.Build();
  const std::span<const StreamUpdate> updates(built.stream.updates());
  row.updates = updates.size();

  // prepare_once comparison: Process routes ONE encoded pass through the
  // shared ingest plane; ProcessIndependent is the pre-plane baseline
  // where each layer re-encodes every update. Both timings flow through
  // the shared best-of-3 helper, so the printed and JSON rows report the
  // same rep. The two paths land bit-identical state (gms_plane_tests),
  // so the query below may run on whichever ingested last.
  App app = make_app(built.max_rank);
  const bench::IngestTiming shared = bench::BestOfThreeIngest(&app, updates);
  row.shared_seconds = shared.best_secs;
  const bench::IngestTiming independent = bench::BestOfThree(
      [&] { app.Clear(); }, [&] { app.ProcessIndependent(updates); });
  row.independent_seconds = independent.best_secs;

  Timer t;
  auto answer = app.Query();
  row.query_seconds = t.Seconds();
  GMS_CHECK_MSG(answer.ok(), "apps bench: query failed");
  row.memory_bytes = app.MemoryBytes();
  return row;
}

struct CorpusRow {
  std::string family;
  size_t n = 0;
  size_t updates = 0;
  size_t file_bytes = 0;
  double memory_seconds = 0;
  double file_seconds = 0;
};

CorpusRow RunCorpus(const testkit::StreamSpec& spec, const std::string& dir,
                    uint64_t seed) {
  CorpusRow row;
  row.family = testkit::FamilyName(spec.family);
  row.n = spec.n;

  const std::string path =
      dir + "/bench_" + std::string(testkit::FamilyName(spec.family)) +
      ".gmsb";
  testkit::BuiltStream built;
  GMS_CHECK_MSG(workload::WriteSpecStreamFile(spec, path, &built).ok(),
                "apps bench: corpus write failed");
  auto file = workload::BinaryFileStream::Open(path);
  GMS_CHECK_MSG(file.ok(), "apps bench: corpus open failed");
  row.updates = built.stream.size();
  row.file_bytes = workload::kBinaryStreamHeaderBytes +
                   static_cast<size_t>(file->num_updates()) *
                       file->header().record_bytes;

  apps::TwoEdgeConnect mem(spec.n, built.max_rank, seed);
  Timer t;
  mem.Process(built.stream);
  row.memory_seconds = t.Seconds();

  apps::TwoEdgeConnect disk(spec.n, built.max_rank, seed);
  t.Reset();
  workload::ProcessBinaryFileStream(&disk, *file);
  row.file_seconds = t.Seconds();

  // Identical updates into the same sketch: the answers must agree exactly.
  auto a = mem.Query();
  auto b = disk.Query();
  GMS_CHECK_MSG(a.ok() == b.ok(), "apps bench: file vs memory ok mismatch");
  if (a.ok()) {
    GMS_CHECK_MSG(a.value().skeleton == b.value().skeleton,
                  "apps bench: file vs memory skeleton mismatch");
  }
  std::remove(path.c_str());
  return row;
}

struct BridgeRow {
  size_t n = 0;
  size_t updates = 0;
  uint64_t queries = 0;
  double queries_per_sec = 0;
};

BridgeRow RunBridgeServing(const testkit::StreamSpec& spec, size_t probes,
                           uint64_t seed, bool check_exact) {
  BridgeRow row;
  row.n = spec.n;
  testkit::BuiltStream built = spec.Build();
  row.updates = built.stream.size();

  serve::SketchServerParams params = serve::SketchServerParams::Builder()
                                         .MaxRank(built.max_rank)
                                         .SkeletonK(2)
                                         .Build();
  serve::SketchServer server(spec.n, params, seed);
  server.Ingest(built.stream);
  server.Flush();

  Hypergraph exact_bridges(spec.n, BridgeHyperedges(built.final_graph));
  Rng rng(Mix64(seed ^ 0x9e3779b97f4a7c15ULL));
  std::vector<uint8_t> req_buf, resp_buf;
  Timer t;
  for (size_t i = 0; i < probes; ++i) {
    req_buf.clear();
    resp_buf.clear();
    serve::ServeRequest req;
    req.op = serve::ServeOp::kIsBridge;
    req.u = rng.Next() % spec.n;
    req.v = rng.Next() % spec.n;
    serve::EncodeServeRequest(req, &req_buf);
    server.HandleFrame(req_buf, &resp_buf);
    auto resp = serve::DecodeServeResponse(resp_buf);
    GMS_CHECK_MSG(resp.ok() && resp->code == StatusCode::kOk,
                  "apps bench: is_bridge round-trip failed");
    if (check_exact) {
      const VertexId u = static_cast<VertexId>(req.u);
      const VertexId v = static_cast<VertexId>(req.v);
      const bool want =
          u != v && exact_bridges.HasEdge(Hyperedge(std::vector<VertexId>{
                        std::min(u, v), std::max(u, v)}));
      GMS_CHECK_MSG((resp->value != 0) == want,
                    "apps bench: is_bridge disagrees with Tarjan bridges");
    }
  }
  row.queries = probes;
  row.queries_per_sec = static_cast<double>(probes) / t.Seconds();
  return row;
}

struct Spread {
  double median = 0, min = 0, max = 0;
};

template <typename Run>
Spread TimeReps(size_t reps, const Run& run) {
  std::vector<double> secs;
  for (size_t i = 0; i < reps; ++i) {
    Timer t;
    run();
    secs.push_back(t.Seconds());
  }
  std::sort(secs.begin(), secs.end());
  return {secs[secs.size() / 2], secs.front(), secs.back()};
}

struct KernelRow {
  std::string kernel;
  size_t n = 0;
  size_t edges = 0;
  size_t reps = 0;
  Spread seconds;
  bool has_reference = false;
  Spread reference_seconds;
};

// One production kernel row on a road-like graph, plus the reference
// kernel's row when `with_reference`; both must return the same answer.
std::vector<KernelRow> RunExactKernels(size_t n, size_t reps,
                                       bool with_reference) {
  const Graph g = RoadNetwork(n, n / 16, /*seed=*/19);
  const Hypergraph h = Hypergraph::FromGraph(g);
  std::vector<KernelRow> rows(2);
  rows[0].kernel = "hypergraph_min_cut";
  rows[1].kernel = "is_k_vertex_connected_t2";
  for (KernelRow& r : rows) {
    r.n = n;
    r.edges = g.NumEdges();
    r.reps = reps;
    r.has_reference = with_reference;
  }
  HypergraphCut cut;
  bool two_connected = false;
  rows[0].seconds = TimeReps(reps, [&] { cut = HypergraphMinCut(h); });
  rows[1].seconds =
      TimeReps(reps, [&] { two_connected = IsKVertexConnected(g, 2); });
  if (with_reference) {
    HypergraphCut ref_cut;
    bool ref_two_connected = false;
    rows[0].reference_seconds = TimeReps(
        reps, [&] { ref_cut = testkit::HypergraphMinCutReference(h); });
    rows[1].reference_seconds = TimeReps(reps, [&] {
      ref_two_connected = testkit::IsKVertexConnectedReference(g, 2);
    });
    GMS_CHECK_MSG(cut.value == ref_cut.value && cut.side == ref_cut.side,
                  "apps bench: min cut differs from the reference");
    GMS_CHECK_MSG(two_connected == ref_two_connected,
                  "apps bench: kappa >= 2 differs from the reference");
  }
  return rows;
}

void WriteJson(const std::vector<AppRow>& apps,
               const std::vector<CorpusRow>& corpus,
               const std::vector<BridgeRow>& bridges,
               const std::vector<KernelRow>& kernels) {
  FILE* f = std::fopen("BENCH_apps.json", "w");
  if (f == nullptr) {
    std::printf("could not open BENCH_apps.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"apps\",\n  \"apps\": [\n");
  for (size_t i = 0; i < apps.size(); ++i) {
    const AppRow& r = apps[i];
    std::fprintf(
        f,
        "    {\"app\": \"%s\", \"family\": \"%s\", \"n\": %zu, "
        "\"updates\": %zu,\n"
        "     \"shared_seconds\": %.6f, \"independent_seconds\": %.6f,\n"
        "     \"prepare_once_speedup\": %.3f,\n"
        "     \"query_seconds\": %.6f, \"memory_bytes\": %zu}%s\n",
        r.app.c_str(), r.family.c_str(), r.n, r.updates, r.shared_seconds,
        r.independent_seconds,
        r.independent_seconds / std::max(r.shared_seconds, 1e-9),
        r.query_seconds, r.memory_bytes,
        i + 1 < apps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"corpus\": [\n");
  for (size_t i = 0; i < corpus.size(); ++i) {
    const CorpusRow& r = corpus[i];
    std::fprintf(
        f,
        "    {\"family\": \"%s\", \"n\": %zu, \"updates\": %zu, "
        "\"file_bytes\": %zu,\n"
        "     \"memory_seconds\": %.6f, \"file_seconds\": %.6f}%s\n",
        r.family.c_str(), r.n, r.updates, r.file_bytes, r.memory_seconds,
        r.file_seconds, i + 1 < corpus.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"bridge_serving\": [\n");
  for (size_t i = 0; i < bridges.size(); ++i) {
    const BridgeRow& r = bridges[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"updates\": %zu, \"queries\": %llu, "
                 "\"queries_per_sec\": %.1f}%s\n",
                 r.n, r.updates, static_cast<unsigned long long>(r.queries),
                 r.queries_per_sec, i + 1 < bridges.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"exact_kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& r = kernels[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"n\": %zu, \"edges\": %zu, "
                 "\"reps\": %zu,\n"
                 "     \"median_seconds\": %.6f, \"min_seconds\": %.6f, "
                 "\"max_seconds\": %.6f,\n",
                 r.kernel.c_str(), r.n, r.edges, r.reps, r.seconds.median,
                 r.seconds.min, r.seconds.max);
    if (r.has_reference) {
      std::fprintf(f,
                   "     \"reference_median_seconds\": %.6f, "
                   "\"reference_min_seconds\": %.6f, "
                   "\"reference_max_seconds\": %.6f}%s\n",
                   r.reference_seconds.median, r.reference_seconds.min,
                   r.reference_seconds.max, i + 1 < kernels.size() ? "," : "");
    } else {
      std::fprintf(f, "     \"reference_median_seconds\": null}%s\n",
                   i + 1 < kernels.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_apps.json\n");
}

int Run(bool smoke) {
  bench::Banner(
      "EXPERIMENT apps (DESIGN.md §14)",
      "Composed applications over the workload corpus: 2EC forest "
      "peeling, min-cut doubling ladder, disk replay, bridge serving.");

  const size_t n = smoke ? 64 : 4096;
  const size_t m = smoke ? 160 : 12288;
  const size_t decoys = smoke ? 64 : 2048;
  const size_t probes = smoke ? 512 : 20000;

  const std::vector<testkit::StreamSpec> specs = {
      MakeSpec(testkit::Family::kRmat, n, m, decoys),
      MakeSpec(testkit::Family::kRoadLike, n, /*m=*/4, 0),
      MakeSpec(testkit::Family::kTemporalChurn, n, m, 0),
  };

  std::vector<AppRow> app_rows;
  for (const auto& spec : specs) {
    app_rows.push_back(RunApp<apps::TwoEdgeConnect>(
        "two_edge_connect", spec, [&](size_t max_rank) {
          return apps::TwoEdgeConnect(spec.n, max_rank, /*seed=*/7);
        }));
    app_rows.push_back(RunApp<apps::ApproxMinCut>(
        "approx_min_cut", spec, [&](size_t max_rank) {
          return apps::ApproxMinCut(spec.n, max_rank, /*k_cap=*/4,
                                    /*seed=*/11);
        }));
  }

  // Smoke asserts: the shared plane (threads = 1) and the per-layer
  // parallel paths (threads = 4) answer identically, as does the serial
  // per-layer baseline. (The timing rows above already built both;
  // re-derive the comparison cheaply here on the first spec so the assert
  // is explicit and labeled.)
  {
    testkit::BuiltStream built = specs[0].Build();
    const std::span<const StreamUpdate> updates(built.stream.updates());
    apps::TwoEdgeConnect serial(specs[0].n, built.max_rank, 7);
    serial.Process(updates);
    apps::TwoEdgeConnect parallel(
        specs[0].n, built.max_rank, 7,
        ForestSketchParams::Builder().Threads(4).Build());
    parallel.Process(updates);
    auto a = serial.Query();
    auto b = parallel.Query();
    GMS_CHECK_MSG(a.ok() == b.ok(),
                  "apps bench: plane vs parallel ok mismatch");
    if (a.ok()) {
      GMS_CHECK_MSG(a.value().skeleton == b.value().skeleton,
                    "apps bench: plane vs parallel skeleton mismatch");
    }
    // prepare_once: the plane fan-out and the per-layer baseline must
    // answer identically too (the timing rows above compared their costs).
    apps::TwoEdgeConnect indep(specs[0].n, built.max_rank, 7);
    indep.ProcessIndependent(updates);
    auto c = indep.Query();
    GMS_CHECK_MSG(a.ok() == c.ok(),
                  "apps bench: plane vs independent ok mismatch");
    if (a.ok()) {
      GMS_CHECK_MSG(a.value().skeleton == c.value().skeleton,
                    "apps bench: plane vs independent skeleton mismatch");
    }
  }

  Table app_table({"app", "family", "n", "updates", "shared", "indep",
                   "prep1x", "query", "memory"});
  for (const AppRow& r : app_rows) {
    app_table.AddRow(
        {r.app, r.family, Table::Fmt(static_cast<uint64_t>(r.n)),
         Table::Fmt(static_cast<uint64_t>(r.updates)),
         bench::Rate(static_cast<double>(r.updates) / r.shared_seconds),
         bench::Rate(static_cast<double>(r.updates) / r.independent_seconds),
         Table::Fmt(r.independent_seconds / std::max(r.shared_seconds, 1e-9),
                    2),
         Table::Fmt(r.query_seconds * 1e3, 2) + "ms",
         bench::Kb(r.memory_bytes)});
  }
  app_table.Print(
      "app ingest + query throughput (shared = prepare-once plane, indep = "
      "per-layer re-prepare, prep1x = indep/shared)");

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  std::vector<CorpusRow> corpus_rows;
  for (const auto& spec : specs) {
    corpus_rows.push_back(RunCorpus(spec, dir, /*seed=*/13));
  }
  Table corpus_table(
      {"family", "n", "updates", "file", "memory", "mmap-file"});
  for (const CorpusRow& r : corpus_rows) {
    corpus_table.AddRow(
        {r.family, Table::Fmt(static_cast<uint64_t>(r.n)),
         Table::Fmt(static_cast<uint64_t>(r.updates)),
         bench::Kb(r.file_bytes),
         bench::Rate(static_cast<double>(r.updates) / r.memory_seconds),
         bench::Rate(static_cast<double>(r.updates) / r.file_seconds)});
  }
  corpus_table.Print(
      "corpus replay: in-memory vs disk-resident (app Process, 4096-update "
      "chunks)");

  std::vector<BridgeRow> bridge_rows;
  bridge_rows.push_back(RunBridgeServing(
      MakeSpec(testkit::Family::kRoadLike, n, /*m=*/4, 0), probes,
      /*seed=*/17, /*check_exact=*/true));
  Table bridge_table({"n", "updates", "queries", "rate"});
  for (const BridgeRow& r : bridge_rows) {
    bridge_table.AddRow({Table::Fmt(static_cast<uint64_t>(r.n)),
                         Table::Fmt(static_cast<uint64_t>(r.updates)),
                         Table::Fmt(r.queries),
                         bench::Rate(r.queries_per_sec)});
  }
  bridge_table.Print("is_bridge wire serving (k = 2 skeleton snapshot)");

  // The reference kernels are O(n^3) (min cut) and build a Dinic network
  // per pair (kappa >= 2): time them only up to n = 1024.
  std::vector<KernelRow> kernel_rows;
  const std::vector<size_t> kernel_ns = smoke
                                            ? std::vector<size_t>{64, 128}
                                            : std::vector<size_t>{512, 1024,
                                                                  4096};
  for (size_t kn : kernel_ns) {
    for (KernelRow& r : RunExactKernels(kn, smoke ? 1 : 5, kn <= 1024)) {
      kernel_rows.push_back(std::move(r));
    }
  }
  Table kernel_table({"kernel", "n", "edges", "median", "min", "max",
                      "reference", "speedup"});
  for (const KernelRow& r : kernel_rows) {
    auto ms = [](double s) { return Table::Fmt(s * 1e3, 2) + "ms"; };
    kernel_table.AddRow(
        {r.kernel, Table::Fmt(static_cast<uint64_t>(r.n)),
         Table::Fmt(static_cast<uint64_t>(r.edges)), ms(r.seconds.median),
         ms(r.seconds.min), ms(r.seconds.max),
         r.has_reference ? ms(r.reference_seconds.median) : "-",
         r.has_reference
             ? Table::Fmt(r.reference_seconds.median /
                              std::max(r.seconds.median, 1e-9),
                          1) + "x"
             : "-"});
  }
  kernel_table.Print(
      "exact post-processing kernels on road-like graphs: production vs "
      "testkit reference (median/min/max over reps)");

  WriteJson(app_rows, corpus_rows, bridge_rows, kernel_rows);
  std::printf("\nall app asserts passed\n");
  return 0;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--apps_smoke") == 0) smoke = true;
  }
  return gms::Run(smoke);
}
