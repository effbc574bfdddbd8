// batch_dense: the offline analytics job. A temporal-churn stream with
// ~80 updates per vertex (2.5x the sparse threshold, so every column
// escalates) is decoded in 2048-update chunks into TwoEdgeConnect, then one
// Query answers connectivity and bridges. The plane fan-out, the dense L0
// kernel with its escalation replay, and real Borůvka rounds dominate;
// there is no serve layer.
#include <algorithm>
#include <optional>

#include "graph/traversal.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr size_t kQueriesPerPass = 3;

gms::ForestSketchParams AppParams() {
  return gms::ForestSketchParams::Builder()
      .Config(gms::SketchConfig::Light())
      .Build();
}

struct Pass {
  double setup_s = 0;
  double open_s = 0;
  double ingest_s = 0;
  std::vector<double> answer_s;
};

std::vector<uint64_t> EdgeKeys(const std::vector<gms::Hyperedge>& edges) {
  std::vector<uint64_t> keys;
  for (const gms::Hyperedge& e : edges) {
    keys.push_back(static_cast<uint64_t>(e[0]) << 32 | e[1]);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

gms::testkit::StreamSpec BatchDenseSpec(uint64_t seed, Size size) {
  gms::testkit::StreamSpec spec;
  spec.family = gms::testkit::Family::kTemporalChurn;
  // 2^12 vertices keep peak RSS near 1.1 GB with every column dense (two
  // layers plus the query's residual copy); 2^13 needs about 2.5 GB.
  spec.n = size == Size::kFull ? 1u << 12 : 1u << 9;
  // m + 2 * decoys = 40 n updates: ~80 endpoint updates per vertex.
  spec.m = 4 * spec.n;
  spec.decoys = 18 * spec.n;
  return spec.WithTrial(seed);
}

void RunBatchDense(const Options& opt, Report* report) {
  Tracer tr(opt.trace);
  std::vector<Pass> passes;
  std::optional<gms::QueryResult<gms::apps::TwoEdgeConnectAnswer>> answer;
  double dense_frac = 0, bytes_per_vertex = 0;
  size_t n = 0;
  uint64_t total = 0;

  const Clock::time_point run_start = Clock::now();
  for (size_t p = 0; MorePasses(opt, run_start, p); ++p) {
    const bool trace_pass = opt.trace && p % 2 == 1;
    Pass pass;
    Clock::time_point t0 = Clock::now();
    gms::workload::BinaryFileStream file = OpenStream(opt.file);
    pass.open_s = SecondsSince(t0);
    n = file.n();
    total = file.num_updates();
    gms::apps::TwoEdgeConnect app(n, 2, opt.seed, AppParams());
    pass.setup_s = SecondsSince(t0);

    std::vector<gms::StreamUpdate> chunk;
    t0 = Clock::now();
    for (uint64_t done = 0; done < total;) {
      DecodeChunk(file, done, total, &chunk);
      if (trace_pass) {
        Tracer::Scope s(&tr, "apps.two_edge.process");
        app.Process(chunk);
      } else {
        app.Process(chunk);
      }
      done += chunk.size();
    }
    pass.ingest_s = SecondsSince(t0);

    // The query is non-destructive, so each pass repeats it for more
    // samples of answer_s at a fraction of a pass's cost.
    for (size_t q = 0; q < kQueriesPerPass; ++q) {
      t0 = Clock::now();
      answer.emplace(TwoEdgeQuery(app));
      pass.answer_s.push_back(SecondsSince(t0));
    }
    passes.push_back(pass);

    dense_frac = DenseColumnFrac(app.layer1());
    bytes_per_vertex =
        static_cast<double>(app.MemoryBytes()) / static_cast<double>(n);
  }
  const double peak_rss = PeakRssMb();

  // --- Off the clock: phase guard, oracle, traced replay. ---
  if (!answer->ok()) throw RunAborted{"TwoEdgeConnect query failed"};
  const gms::ExtractStats& stats = answer->stats();
  Guard(dense_frac >= 0.99,
        "batch_dense must run dense columns, dense_column_frac=" +
            std::to_string(dense_frac));
  Guard(stats.summed_words > 0, "batch_dense extraction summed no words");
  Guard(stats.sparse_exact_forests == 0,
        "batch_dense took the sparse-exact shortcut");

  gms::workload::BinaryFileStream file = OpenStream(opt.file);
  const gms::Hypergraph final_graph = FinalGraph(file);
  const gms::apps::TwoEdgeConnectAnswer& got = answer->value();
  const std::vector<uint64_t> want_bridges =
      EdgeKeys(gms::BridgeHyperedges(final_graph));
  const std::vector<uint64_t> got_bridges = EdgeKeys(got.bridges);
  std::vector<uint64_t> diff;
  std::set_symmetric_difference(want_bridges.begin(), want_bridges.end(),
                                got_bridges.begin(), got_bridges.end(),
                                std::back_inserter(diff));
  // Answer set per pass: one bridge verdict per final edge, plus the
  // component count and the connected flag. The answer is a deterministic
  // function of (seed, file), so every pass gives the same verdicts.
  const uint64_t per_pass = final_graph.NumEdges() + 2;
  const uint64_t wrong =
      diff.size() +
      (got.num_components == gms::NumComponents(final_graph) ? 0 : 1) +
      (got.connected == gms::IsConnected(final_graph) ? 0 : 1);
  report->attempted += per_pass * passes.size();
  report->failed += wrong * passes.size();

  std::vector<double> setup, open, ingest, answer_s;
  for (const Pass& p : passes) {
    setup.push_back(p.setup_s);
    open.push_back(p.open_s);
    ingest.push_back(static_cast<double>(total) / p.ingest_s);
    answer_s.insert(answer_s.end(), p.answer_s.begin(), p.answer_s.end());
  }
  report->n = n;
  report->updates = total;
  report->phase = "dense (dense_column_frac=" + std::to_string(dense_frac) + ")";
  ReportEndToEnd(setup, ingest, answer_s, InterquartileMean(answer_s),
                 peak_rss, report);

  report->Layer("workload.open_s", Median(open), "s");
  report->Layer("sketch.dense_column_frac", dense_frac, "ratio");
  report->Layer("sketch.bytes_per_vertex", bytes_per_vertex, "B");
  report->Layer("apps.two_edge.query_s", Median(answer_s), "s");
  report->Layer("connectivity.rounds_run", stats.rounds_run, "count");
  report->Layer("connectivity.summed_words",
                static_cast<double>(stats.summed_words), "count");
  report->Layer("connectivity.sample_attempts",
                static_cast<double>(stats.sample_attempts), "count");
  report->Layer("connectivity.decode_attempts",
                static_cast<double>(stats.decode_attempts), "count");
  report->Layer("connectivity.sparse_exact_forests",
                static_cast<double>(stats.sparse_exact_forests), "count");

  if (opt.trace) {
    // Layer replay: the app's own plane path, one stage at a time, then
    // one layer's extraction and the full app query.
    gms::apps::TwoEdgeConnect replay(n, 2, opt.seed, AppParams());
    gms::IngestPlane plane;
    std::vector<gms::StreamUpdate> chunk;
    uint64_t sink = 0;
    std::optional<gms::QueryResult<gms::apps::TwoEdgeConnectAnswer>> again;
    {
      Tracer::Scope root(&tr, "replay");
      for (uint64_t done = 0; done < total;) {
        {
          Tracer::Scope s(&tr, "workload.decode");
          DecodeChunk(file, done, total, &chunk);
        }
        {
          Tracer::Scope s(&tr, "stream.prepare");
          sink += PrepareOnly(replay.codec(), chunk);
        }
        {
          Tracer::Scope s(&tr, "stream.plane");
          PlaneProcess(&plane, chunk, &replay);
        }
        done += chunk.size();
      }
      {
        Tracer::Scope s(&tr, "connectivity.extract");
        sink += replay.layer1().Query().stats().rounds_run;
      }
      {
        Tracer::Scope s(&tr, "apps.two_edge.query");
        again.emplace(TwoEdgeQuery(replay));
      }
    }
    KeepAlive(sink);
    if (!again->ok() || again->value().skeleton.Edges() != got.skeleton.Edges()) {
      report->Fail("replayed TwoEdgeConnect answer differs from the measured one");
    }
    std::vector<double> pass_ingest_s;
    for (const Pass& p : passes) pass_ingest_s.push_back(p.ingest_s);
    ReportReplay(tr, pass_ingest_s, opt, report);
  }
  report->notes.push_back(
      "batch_dense: passes=" + std::to_string(passes.size()) +
      " bridges=" + std::to_string(want_bridges.size()) +
      " bridge_mismatches=" + std::to_string(diff.size()));
}

}  // namespace perfbench
