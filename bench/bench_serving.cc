// Experiment: always-on serving (DESIGN.md §13).
//
// One ingest thread streams a churny graph into a SketchServer while query
// threads hammer Connected(u, v) against the published epoch snapshots.
// Measures sustained answered-queries/s DURING ingestion, the observed
// answer staleness against the engine's guarantee (at most one sealed
// epoch plus the open epoch behind the ingested prefix), and the cached-
// extraction hit pattern. Results print as a table and land machine-
// readably in BENCH_serving.json.
//
// Hard asserts (both modes):
//   - concurrency: every query thread answered queries while ingest ran;
//   - staleness:   max observed staleness <= 2 * epoch_updates;
//   - correctness: the post-Flush snapshot answers exactly (the generator
//     graph is connected, so NumComponents == 1 and every pair connects).
// The full mode additionally demands >= 10k sustained queries/s during
// ingest: answers are two array loads against the cached ComponentIndex,
// so even a time-sliced single-CPU container clears this by orders of
// magnitude -- a miss means the serving path started extracting or
// locking per query.
//
// --serve_smoke: reduced workload, same asserts minus the rate floor; the
// ServeSmoke ctest (default + tsan presets) runs this mode.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "serve/sketch_server.h"
#include "util/check.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace gms {
namespace {

struct ServingResult {
  size_t n = 0;
  size_t stream_updates = 0;
  size_t epoch_updates = 0;
  size_t query_threads = 0;
  double ingest_seconds = 0;
  uint64_t queries_during_ingest = 0;
  double queries_per_sec = 0;
  uint64_t max_staleness = 0;
  uint64_t staleness_bound = 0;
  double post_flush_queries_per_sec = 0;
  double wire_queries_per_sec = 0;
  serve::SketchServer::ForestEngine::Stats engine;
};

ServingResult RunServing(size_t n, size_t decoys, size_t epoch_updates,
                         size_t query_threads, bool require_rate,
                         uint64_t seed) {
  const Graph g = UnionOfHamiltonianCycles(n, 3, seed);
  const DynamicStream stream = DynamicStream::WithChurn(g, decoys, seed + 1);
  const auto& updates = stream.updates();

  const auto params =
      serve::SketchServerParams::Builder()
          .Forest(ForestSketchParams::Builder()
                      .Config(SketchConfig::Light())
                      .Build())
          .EpochUpdates(epoch_updates)
          .Build();
  serve::SketchServer server(n, params, seed + 2);

  // `ingested` trails the true prefix (stored AFTER each chunk lands), so
  // `ingested - prefix_updates` underestimates true staleness and the
  // engine bound still applies to the measurement.
  std::atomic<uint64_t> ingested{0};
  std::atomic<bool> ingest_done{false};

  struct QueryThreadResult {
    uint64_t answered = 0;
    uint64_t max_staleness = 0;
  };
  std::vector<QueryThreadResult> per_thread(query_threads);
  std::vector<std::thread> queriers;
  queriers.reserve(query_threads);
  for (size_t q = 0; q < query_threads; ++q) {
    queriers.emplace_back([&, q] {
      Rng rng(seed + 100 + q);
      QueryThreadResult& out = per_thread[q];
      while (!ingest_done.load(std::memory_order_acquire)) {
        const uint64_t seen = ingested.load(std::memory_order_acquire);
        serve::ServeRequest req;
        req.op = serve::ServeOp::kConnected;
        req.u = rng.Below(n);
        req.v = rng.Below(n);
        const serve::ServeResponse resp = server.Handle(req);
        GMS_CHECK_MSG(resp.code == StatusCode::kOk,
                      "serving bench: query refused during ingest");
        ++out.answered;
        if (seen > resp.prefix_updates) {
          out.max_staleness =
              std::max(out.max_staleness, seen - resp.prefix_updates);
        }
      }
    });
  }

  // Ingest in fixed-size chunks, publishing the prefix length
  // after each chunk (release pairs with the queriers' acquire).
  constexpr size_t kChunk = 2048;
  Timer ingest_timer;
  for (size_t i = 0; i < updates.size(); i += kChunk) {
    const size_t take = std::min(kChunk, updates.size() - i);
    server.Ingest(std::span<const StreamUpdate>(updates.data() + i, take));
    ingested.store(i + take, std::memory_order_release);
  }
  const double ingest_seconds = ingest_timer.Seconds();
  ingest_done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();
  server.Flush();

  ServingResult r;
  r.n = n;
  r.stream_updates = updates.size();
  r.epoch_updates = epoch_updates;
  r.query_threads = query_threads;
  r.ingest_seconds = ingest_seconds;
  r.staleness_bound = 2 * epoch_updates;
  for (const auto& t : per_thread) {
    GMS_CHECK_MSG(t.answered > 0,
                  "serving bench: a query thread answered nothing -- no "
                  "concurrency was exercised");
    r.queries_during_ingest += t.answered;
    r.max_staleness = std::max(r.max_staleness, t.max_staleness);
  }
  GMS_CHECK_MSG(r.max_staleness <= r.staleness_bound,
                "serving bench: staleness exceeded one sealed + one open "
                "epoch");
  r.queries_per_sec =
      static_cast<double>(r.queries_during_ingest) / ingest_seconds;
  if (require_rate) {
    GMS_CHECK_MSG(r.queries_per_sec >= 10000.0,
                  "serving bench: sustained query rate fell below 10k/s");
  }

  // Post-Flush correctness: every update is covered, the generator graph
  // is connected, and answers must say so.
  {
    serve::ServeRequest req;
    req.op = serve::ServeOp::kNumComponents;
    const serve::ServeResponse resp = server.Handle(req);
    GMS_CHECK_MSG(resp.code == StatusCode::kOk,
                  "serving bench: post-flush query refused");
    GMS_CHECK_MSG(resp.value == 1,
                  "serving bench: post-flush component count is wrong");
    GMS_CHECK_MSG(resp.prefix_updates == updates.size(),
                  "serving bench: Flush left updates uncovered");
    Rng rng(seed + 7);
    for (int t = 0; t < 64; ++t) {
      serve::ServeRequest c;
      c.op = serve::ServeOp::kConnected;
      c.u = rng.Below(n);
      c.v = rng.Below(n);
      const serve::ServeResponse got = server.Handle(c);
      GMS_CHECK_MSG(got.code == StatusCode::kOk && got.value == 1,
                    "serving bench: post-flush connectivity answer is wrong");
    }
  }

  // Idle-path query rate (no concurrent ingest): the cached-extraction
  // ceiling, direct calls.
  {
    Rng rng(seed + 8);
    constexpr size_t kProbe = 200000;
    Timer t;
    for (size_t i = 0; i < kProbe; ++i) {
      serve::ServeRequest req;
      req.op = serve::ServeOp::kConnected;
      req.u = rng.Below(n);
      req.v = rng.Below(n);
      (void)server.Handle(req);
    }
    r.post_flush_queries_per_sec = static_cast<double>(kProbe) / t.Seconds();
  }

  // Wire-framed rate: encode + HandleFrame + decode per query, the full
  // transport path a remote client pays.
  {
    Rng rng(seed + 9);
    constexpr size_t kProbe = 20000;
    std::vector<uint8_t> req_buf, resp_buf;
    Timer t;
    for (size_t i = 0; i < kProbe; ++i) {
      req_buf.clear();
      resp_buf.clear();
      serve::ServeRequest req;
      req.op = serve::ServeOp::kConnected;
      req.u = rng.Below(n);
      req.v = rng.Below(n);
      serve::EncodeServeRequest(req, &req_buf);
      server.HandleFrame(req_buf, &resp_buf);
      auto resp = serve::DecodeServeResponse(resp_buf);
      GMS_CHECK_MSG(resp.ok() && resp->code == StatusCode::kOk,
                    "serving bench: wire round-trip failed");
    }
    r.wire_queries_per_sec = static_cast<double>(kProbe) / t.Seconds();
  }

  r.engine = server.forest_engine().stats();
  return r;
}

// prepare_once comparison: SketchServer::Ingest routes ONE shared
// encode/prepare/route pass through the ingest plane into every engine's
// open delta; IngestIndependent is the pre-plane baseline where each
// engine re-prepares every update. Both timings flow through the shared
// best-of-3 helper (bench_util.h), so the printed table and the JSON row
// cannot report different reps. The two paths must land bit-identical
// snapshots -- asserted here on the flushed forest payload (gms_plane_tests
// covers all three engines at frame strength).
struct PrepareOnceRow {
  size_t n = 0;
  size_t updates = 0;
  double shared_seconds = 0;
  double independent_seconds = 0;
};

PrepareOnceRow RunPrepareOnce(size_t n, size_t decoys, uint64_t seed) {
  const Graph g = UnionOfHamiltonianCycles(n, 3, seed);
  const DynamicStream stream = DynamicStream::WithChurn(g, decoys, seed + 1);
  const std::span<const StreamUpdate> updates(stream.updates());

  // Every engine must actually ride the plane for the row to measure it:
  // the VC engine's subsample count R is its route-bit demand, and the
  // paper-default R at this n overflows the plane's 64-bit budget, which
  // would silently drop VC to the per-engine fallback in BOTH columns.
  // R=32 keeps forest (1 bit) + skeleton (1) + vc (32) on one pass.
  const auto params =
      serve::SketchServerParams::Builder()
          .Forest(ForestSketchParams::Builder()
                      .Config(SketchConfig::Light())
                      .Build())
          .Vc(VcQueryParams::Builder()
                  .K(2)
                  .ExplicitR(32)
                  .Forest(ForestSketchParams::Builder()
                              .Config(SketchConfig::Light())
                              .Build())
                  .Build())
          .SkeletonK(2)
          .EpochUpdates(4096)
          .Build();
  std::optional<serve::SketchServer> server;
  const auto reset = [&] { server.emplace(n, params, seed + 2); };

  reset();
  const bench::IngestTiming shared =
      bench::BestOfThree(reset, [&] { server->Ingest(updates); });
  server->Flush();
  const Hypergraph shared_forest = *server->forest_engine().Current()->payload;

  reset();
  const bench::IngestTiming independent =
      bench::BestOfThree(reset, [&] { server->IngestIndependent(updates); });
  server->Flush();
  GMS_CHECK_MSG(*server->forest_engine().Current()->payload == shared_forest,
                "serving bench: prepare_once forest payload diverges from "
                "the independent ingest baseline");

  PrepareOnceRow r;
  r.n = n;
  r.updates = updates.size();
  r.shared_seconds = shared.best_secs;
  r.independent_seconds = independent.best_secs;
  return r;
}

void WriteJson(const std::vector<ServingResult>& rows,
               const std::vector<PrepareOnceRow>& prepare_rows) {
  FILE* f = std::fopen("BENCH_serving.json", "w");
  if (f == nullptr) {
    std::printf("could not open BENCH_serving.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serving\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServingResult& r = rows[i];
    std::fprintf(
        f,
        "    {\"n\": %zu, \"stream_updates\": %zu, \"epoch_updates\": %zu,\n"
        "     \"query_threads\": %zu, \"ingest_seconds\": %.6f,\n"
        "     \"queries_during_ingest\": %llu, \"queries_per_sec\": %.1f,\n"
        "     \"max_staleness_updates\": %llu, \"staleness_bound\": %llu,\n"
        "     \"post_flush_queries_per_sec\": %.1f,\n"
        "     \"wire_queries_per_sec\": %.1f,\n"
        "     \"epochs_sealed\": %llu, \"epochs_merged\": %llu,\n"
        "     \"cache_hits\": %llu, \"cache_rebuilds\": %llu,\n"
        "     \"updates_ingested\": %llu, \"updates_merged\": %llu}%s\n",
        r.n, r.stream_updates, r.epoch_updates, r.query_threads,
        r.ingest_seconds,
        static_cast<unsigned long long>(r.queries_during_ingest),
        r.queries_per_sec, static_cast<unsigned long long>(r.max_staleness),
        static_cast<unsigned long long>(r.staleness_bound),
        r.post_flush_queries_per_sec, r.wire_queries_per_sec,
        static_cast<unsigned long long>(r.engine.epochs_sealed),
        static_cast<unsigned long long>(r.engine.epochs_merged),
        static_cast<unsigned long long>(r.engine.cache_hits),
        static_cast<unsigned long long>(r.engine.cache_rebuilds),
        static_cast<unsigned long long>(r.engine.updates_ingested),
        static_cast<unsigned long long>(r.engine.updates_merged),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"prepare_once\": [\n");
  for (size_t i = 0; i < prepare_rows.size(); ++i) {
    const PrepareOnceRow& r = prepare_rows[i];
    std::fprintf(
        f,
        "    {\"n\": %zu, \"updates\": %zu, \"shared_seconds\": %.6f,\n"
        "     \"independent_seconds\": %.6f, "
        "\"prepare_once_speedup\": %.3f}%s\n",
        r.n, r.updates, r.shared_seconds, r.independent_seconds,
        r.independent_seconds / std::max(r.shared_seconds, 1e-9),
        i + 1 < prepare_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_serving.json\n");
}

int Run(bool smoke) {
  bench::Banner("EXPERIMENT serving (DESIGN.md §13)",
                "Sustained queries/s against epoch snapshots while the "
                "stream keeps ingesting; staleness <= 1 sealed + 1 open "
                "epoch.");

  std::vector<ServingResult> rows;
  std::vector<PrepareOnceRow> prepare_rows;
  if (smoke) {
    rows.push_back(RunServing(/*n=*/512, /*decoys=*/2000,
                              /*epoch_updates=*/1024, /*query_threads=*/2,
                              /*require_rate=*/false, /*seed=*/11));
    prepare_rows.push_back(
        RunPrepareOnce(/*n=*/512, /*decoys=*/2000, /*seed=*/21));
  } else {
    rows.push_back(RunServing(/*n=*/2000, /*decoys=*/20000,
                              /*epoch_updates=*/4096, /*query_threads=*/2,
                              /*require_rate=*/true, /*seed=*/11));
    rows.push_back(RunServing(/*n=*/2000, /*decoys=*/20000,
                              /*epoch_updates=*/16384, /*query_threads=*/4,
                              /*require_rate=*/true, /*seed=*/12));
    prepare_rows.push_back(
        RunPrepareOnce(/*n=*/2000, /*decoys=*/20000, /*seed=*/21));
  }

  Table table({"n", "updates", "epoch", "qthreads", "ingest", "queries/s",
               "max_stale", "bound", "idle q/s", "wire q/s", "hits",
               "rebuilds"});
  for (const ServingResult& r : rows) {
    table.AddRow({Table::Fmt(r.n), Table::Fmt(r.stream_updates),
               Table::Fmt(r.epoch_updates), Table::Fmt(r.query_threads),
               Table::Fmt(r.ingest_seconds, 3) + "s",
               bench::Rate(r.queries_per_sec), Table::Fmt(r.max_staleness),
               Table::Fmt(r.staleness_bound),
               bench::Rate(r.post_flush_queries_per_sec),
               bench::Rate(r.wire_queries_per_sec),
               Table::Fmt(r.engine.cache_hits),
               Table::Fmt(r.engine.cache_rebuilds)});
  }
  table.Print();

  Table prepare_table(
      {"n", "updates", "shared_s", "independent_s", "prep1x"});
  for (const PrepareOnceRow& r : prepare_rows) {
    prepare_table.AddRow(
        {Table::Fmt(r.n), Table::Fmt(r.updates),
         Table::Fmt(r.shared_seconds, 3), Table::Fmt(r.independent_seconds, 3),
         Table::Fmt(r.independent_seconds / std::max(r.shared_seconds, 1e-9),
                    2)});
  }
  prepare_table.Print(
      "prepare_once: one shared encode/route pass (Ingest) vs per-engine "
      "re-prepare (IngestIndependent), forest + vc + skeleton");

  if (!smoke) WriteJson(rows, prepare_rows);
  std::printf("serving bench: all assertions held\n");
  return 0;
}

}  // namespace
}  // namespace gms

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--serve_smoke") == 0;
  return gms::Run(smoke);
}
