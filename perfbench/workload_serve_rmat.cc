// serve_rmat: the always-on monitor. An rmat stream with churn is decoded
// from its GMSB file in 2048-update chunks and fed to a forest-only
// SketchServer while one open-loop thread sends wire queries at a fixed
// rate. The serve layer (seal, merge, per-epoch re-extraction, index
// rebuild) sits on the critical path: ingest waits on backpressure.
//
// Traced runs add a synchronous layer replay of the same epochs: plane
// ingest into a delta, MergeFrom + Clear, Query, ComponentIndex. Its final
// payload must equal the server's flushed snapshot edge for edge.
#include <atomic>
#include <optional>
#include <thread>

#include "graph/traversal.h"
#include "harness.h"
#include "util/random.h"

namespace perfbench {
namespace {

using gms::serve::ServeOp;

constexpr double kQueryRate = 20000;  // open-loop requests per second
constexpr size_t kAnswerPairs = 1 << 16;  // post-flush kConnected answers
// answer_s is the fastest of the run's answer sets (about 200 in a 30 s
// run): one set takes about 40 ms, far shorter than the host's
// interference bursts (see ReportEndToEnd).
constexpr size_t kAnswerRepeats = 32;
constexpr size_t kProbeCalls = 20000;  // closed-loop protocol probe

size_t EpochUpdates(Size size) {
  return size == Size::kFull ? gms::kDefaultServingEpochUpdates : 2048;
}

gms::ForestSketchParams ForestParams() {
  return gms::ForestSketchParams::Builder()
      .Config(gms::SketchConfig::Light())
      .Build();
}

gms::serve::SketchServerParams ServerParams(Size size) {
  return gms::serve::SketchServerParams::Builder()
      .Forest(ForestParams())
      .EpochUpdates(EpochUpdates(size))
      .Build();
}

struct Pass {
  double setup_s = 0;
  double open_s = 0;
  double ingest_s = 0;
  std::vector<double> answer_s;  // one sample per answer-set repetition
  std::vector<double> freshness_ms;
  std::vector<double> latency_us;  // open loop, from each request's due time
  std::vector<double> late_us;     // send time - due time
  uint64_t requests = 0;
  uint64_t refusals = 0;
};

/// Open-loop load: one request due every 1/kQueryRate seconds from start;
/// ~90% kConnected on random pairs, the rest kNumComponents / kPing. Logs
/// the first time each new snapshot prefix is seen, for freshness.
class LoadGen {
 public:
  LoadGen(gms::serve::SketchServer* server, size_t n, uint64_t seed)
      : server_(server), n_(n), rng_(seed) {}

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  /// Stop once a response has covered `prefix` updates, then join.
  void StopAfter(uint64_t prefix) {
    const Clock::time_point t0 = Clock::now();
    while (max_prefix_.load(std::memory_order_acquire) < prefix &&
           SecondsSince(t0) < 30) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

  std::vector<std::pair<uint64_t, Clock::time_point>> prefix_log;
  std::vector<double> latency_us, late_us;
  uint64_t refusals = 0;

 private:
  void Loop() {
    WireClient client(server_);
    const Clock::time_point t0 = Clock::now();
    const double period_ns = 1e9 / kQueryRate;
    for (uint64_t i = 0; !stop_.load(std::memory_order_acquire); ++i) {
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(
                   static_cast<int64_t>(static_cast<double>(i) * period_ns));
      Clock::time_point now = Clock::now();
      while (now < due) {
        if (due - now > std::chrono::microseconds(200)) {
          std::this_thread::sleep_for(due - now -
                                      std::chrono::microseconds(100));
        }
        now = Clock::now();
      }
      const uint64_t pick = rng_.Below(100);
      const ServeOp op = pick < 90   ? ServeOp::kConnected
                         : pick < 95 ? ServeOp::kNumComponents
                                     : ServeOp::kPing;
      const gms::serve::ServeResponse resp =
          client.Call(Request(op, rng_.Below(n_), rng_.Below(n_)));
      const Clock::time_point done = Clock::now();
      late_us.push_back(std::chrono::duration<double, std::micro>(now - due)
                            .count());
      latency_us.push_back(
          std::chrono::duration<double, std::micro>(done - due).count());
      if (resp.code != gms::StatusCode::kOk) ++refusals;
      if (prefix_log.empty() || resp.prefix_updates > prefix_log.back().first) {
        prefix_log.emplace_back(resp.prefix_updates, done);
        max_prefix_.store(resp.prefix_updates, std::memory_order_release);
      }
    }
  }

  gms::serve::SketchServer* server_;
  size_t n_;
  gms::Rng rng_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> max_prefix_{0};
  std::thread thread_;
};

/// Layer replay of the server's forest engine, one synchronous stage at a
/// time, `epoch` updates per epoch. Its final payload must equal the
/// server's flushed snapshot.
struct ReplayResult {
  gms::Hypergraph payload;
  uint64_t epochs = 0;
  uint64_t cache_hits = 0;
  gms::ExtractStats stats;
  double dense_frac = 0;
  double bytes_per_vertex = 0;
  double index_build_ms = 0;
};

ReplayResult Replay(const gms::workload::BinaryFileStream& file, size_t epoch,
                    uint64_t seed, Tracer* tr) {
  const uint64_t total = file.num_updates();
  gms::SpanningForestSketch serving(file.n(), 2, seed, ForestParams());
  gms::SpanningForestSketch delta = serving.CloneEmpty();
  gms::IngestPlane plane;
  std::vector<gms::StreamUpdate> chunk;
  ReplayResult out;
  out.payload = serving.Query().value();
  uint64_t sink = 0;
  {
    Tracer::Scope root(tr, "replay");
    for (uint64_t done = 0; done < total;) {
      const uint64_t epoch_end = std::min<uint64_t>(total, done + epoch);
      while (done < epoch_end) {
        {
          Tracer::Scope s(tr, "workload.decode");
          DecodeChunk(file, done, epoch_end, &chunk);
        }
        {
          Tracer::Scope s(tr, "stream.prepare");
          sink += PrepareOnly(serving.codec(), chunk);
        }
        {
          Tracer::Scope s(tr, "stream.plane");
          PlaneProcess(&plane, chunk, &delta);
        }
        done += chunk.size();
      }
      ++out.epochs;
      {
        // The merger's whole epoch step: the dirty check that decides a
        // cache hit, then MergeFrom + Clear.
        Tracer::Scope s(tr, "serve.merge");
        if (!delta.SnapshotDirty()) {
          ++out.cache_hits;
          continue;
        }
        if (!serving.MergeFrom(delta).ok()) throw RunAborted{"replay merge"};
        delta.Clear();
      }
      std::optional<gms::QueryResult<gms::Hypergraph>> q;
      {
        Tracer::Scope s(tr, "connectivity.extract");
        q.emplace(serving.Query());
      }
      if (!q->ok()) throw RunAborted{"replay extraction failed"};
      gms::AccumulateExtractStats(q->stats(), &out.stats);
      {
        Tracer::Scope s(tr, "serve.index_build");
        gms::serve::ComponentIndex index(file.n(), q->value());
        sink += index.num_components();
      }
      {
        Tracer::Scope s(tr, "serve.publish");  // frees the previous payload
        out.payload = std::move(*q).value();
      }
    }
  }
  const Clock::time_point t0 = Clock::now();
  gms::serve::ComponentIndex index(file.n(), out.payload);
  out.index_build_ms = SecondsSince(t0) * 1e3;
  out.dense_frac = DenseColumnFrac(serving);
  out.bytes_per_vertex = static_cast<double>(serving.MemoryBytes()) /
                         static_cast<double>(file.n());
  KeepAlive(sink);
  return out;
}

}  // namespace

gms::testkit::StreamSpec ServeRmatSpec(uint64_t seed, Size size) {
  gms::testkit::StreamSpec spec;
  spec.family = gms::testkit::Family::kRmat;
  // 2^15 vertices keep peak RSS near 1.3 GB (three forest sketches: the
  // serving copy and two recycled deltas); 2^16 needs about 2 GB.
  spec.n = size == Size::kFull ? 1u << 15 : 1u << 11;
  spec.m = 4 * spec.n;
  spec.churn = gms::testkit::Churn::kWithChurn;
  spec.decoys = spec.n;
  return spec.WithTrial(seed);
}

void RunServeRmat(const Options& opt, Report* report) {
  Tracer tr(opt.trace);
  const size_t epoch = EpochUpdates(opt.size);
  std::vector<Pass> passes;
  std::vector<double> ingest_call_s;
  std::shared_ptr<const gms::Hypergraph> served;
  uint64_t served_prefix = 0;
  gms::serve::SketchServer::ForestEngine::Stats engine_stats;
  double roundtrip_ns = 0, handle_ns = 0;
  std::vector<std::pair<std::pair<uint64_t, uint64_t>, uint64_t>> answers;
  uint64_t num_components_answer = 0;
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
    gms::serve::SketchServer server(n, ServerParams(opt.size), opt.seed);
    pass.setup_s = SecondsSince(t0);

    LoadGen load(&server, n, gms::Mix64(opt.seed ^ 0x51));
    load.Start();
    std::vector<Clock::time_point> call_start;
    std::vector<gms::StreamUpdate> chunk;
    double call_s = 0;
    t0 = Clock::now();
    for (uint64_t done = 0; done < total;) {
      DecodeChunk(file, done, total, &chunk);
      call_start.push_back(Clock::now());
      if (trace_pass) {
        Tracer::Scope s(&tr, "serve.ingest_call");
        server.Ingest(chunk);
        call_s += SecondsSince(call_start.back());
      } else {
        server.Ingest(chunk);
      }
      done += chunk.size();
    }
    server.Flush();
    pass.ingest_s = SecondsSince(t0);
    load.StopAfter(total);

    // Freshness: for each full-epoch prefix P, from the start of the
    // Ingest call carrying update P to the first response covering P.
    for (uint64_t P = epoch; P <= total; P += epoch) {
      const Clock::time_point sent = call_start[(P - 1) / kDecodeChunk];
      for (const auto& [prefix, seen] : load.prefix_log) {
        if (prefix >= P) {
          pass.freshness_ms.push_back(
              std::chrono::duration<double, std::milli>(seen - sent).count());
          break;
        }
      }
    }
    pass.latency_us = std::move(load.latency_us);
    pass.late_us = std::move(load.late_us);
    pass.requests = pass.latency_us.size();
    pass.refusals = load.refusals;

    // The fixed post-flush answer set, closed loop: one kNumComponents
    // (the first one builds the index for the final payload) and
    // kAnswerPairs kConnected on pairs drawn from the run seed. Repeated
    // for more samples; every repetition must give the same answers.
    WireClient client(&server);
    for (size_t r = 0; r < kAnswerRepeats; ++r) {
      gms::Rng rng(gms::Mix64(opt.seed ^ 0xa5));
      answers.clear();
      t0 = Clock::now();
      const gms::serve::ServeResponse nc =
          client.Call(Request(ServeOp::kNumComponents));
      for (size_t i = 0; i < kAnswerPairs; ++i) {
        const uint64_t u = rng.Below(n), v = rng.Below(n);
        const gms::serve::ServeResponse resp =
            client.Call(Request(ServeOp::kConnected, u, v));
        answers.push_back(
            {{u, v}, resp.code == gms::StatusCode::kOk ? resp.value : 2});
      }
      pass.answer_s.push_back(SecondsSince(t0));
      num_components_answer =
          nc.code == gms::StatusCode::kOk ? nc.value : ~uint64_t{0};
    }

    // Closed-loop protocol probe on the idle server: full wire round trip
    // vs the decoded Handle call.
    t0 = Clock::now();
    for (size_t i = 0; i < kProbeCalls; ++i) {
      client.Call(Request(ServeOp::kConnected, i % n, (i * 7919) % n));
    }
    roundtrip_ns = SecondsSince(t0) * 1e9 / kProbeCalls;
    t0 = Clock::now();
    for (size_t i = 0; i < kProbeCalls; ++i) {
      server.Handle(Request(ServeOp::kConnected, i % n, (i * 7919) % n));
    }
    handle_ns = SecondsSince(t0) * 1e9 / kProbeCalls;

    const auto snap = server.forest_engine().Current();
    served = snap->payload;
    served_prefix = snap->prefix_updates;
    engine_stats = server.forest_engine().stats();
    passes.push_back(std::move(pass));
    if (trace_pass) ingest_call_s.push_back(call_s);
  }
  const double peak_rss = PeakRssMb();

  // --- Off the clock: checks, phase guard, oracles. ---
  std::vector<double> setup, ingest, answer, freshness, latency, late, open;
  for (Pass& p : passes) {
    setup.push_back(p.setup_s);
    open.push_back(p.open_s);
    ingest.push_back(static_cast<double>(total) / p.ingest_s);
    answer.insert(answer.end(), p.answer_s.begin(), p.answer_s.end());
    freshness.insert(freshness.end(), p.freshness_ms.begin(),
                     p.freshness_ms.end());
    latency.insert(latency.end(), p.latency_us.begin(), p.latency_us.end());
    late.insert(late.end(), p.late_us.begin(), p.late_us.end());
    report->attempted += p.requests;
    report->failed += p.refusals;
  }

  gms::workload::BinaryFileStream file = OpenStream(opt.file);
  // Untraced runs replay the whole stream as one epoch: by linearity the
  // final state, and so the payload, is the same; only the traced replay
  // pays for (and times) every epoch.
  const ReplayResult replay =
      Replay(file, opt.trace ? epoch : total, opt.seed, &tr);
  if (served == nullptr || served_prefix != total) {
    report->Fail("server did not publish a snapshot covering the stream");
  } else if (served->Edges() != replay.payload.Edges()) {
    report->Fail("replay payload differs from the served snapshot");
  }
  if (opt.trace && (engine_stats.epochs_merged != replay.epochs ||
                    engine_stats.cache_hits != replay.cache_hits)) {
    report->Fail("replay epochs differ from the server's");
  }
  Guard(replay.dense_frac > 0 && replay.dense_frac < 1,
        "serve_rmat must mix sparse and dense columns, dense_column_frac=" +
            std::to_string(replay.dense_frac));

  // The post-flush answers repeat identically in every repetition and pass
  // (same seed, same payload), so the last set stands for all of them.
  const gms::Hypergraph final_graph = FinalGraph(file);
  const std::vector<uint32_t> comp = gms::ConnectedComponents(final_graph);
  uint64_t wrong = num_components_answer == gms::NumComponents(final_graph)
                       ? 0 : 1;
  for (const auto& [pair, value] : answers) {
    wrong += value == (comp[pair.first] == comp[pair.second] ? 1u : 0u) ? 0 : 1;
  }
  report->attempted += (answers.size() + 1) * kAnswerRepeats * passes.size();
  report->failed += wrong * kAnswerRepeats * passes.size();

  report->n = n;
  report->updates = total;
  report->phase = "sparse+dense (dense_column_frac=" +
                  std::to_string(replay.dense_frac) + ")";

  ReportEndToEnd(setup, ingest, answer, Quantile(answer, 0), peak_rss,
                 report);

  report->Layer("serve.freshness_p50_ms", Quantile(freshness, 0.5), "ms");
  report->Layer("serve.freshness_p75_ms", Quantile(freshness, 0.75), "ms");
  report->Layer("protocol.query_p50_us", Quantile(latency, 0.5), "us");
  report->Layer("protocol.query_p99_us", Quantile(latency, 0.99), "us");
  report->Layer("loadgen.late_p99_us", Quantile(late, 0.99), "us");
  report->Layer("protocol.roundtrip_ns", roundtrip_ns, "ns");
  report->Layer("protocol.handle_ns", handle_ns, "ns");
  report->Layer("workload.open_s", Median(open), "s");
  report->Layer("sketch.dense_column_frac", replay.dense_frac, "ratio");
  report->Layer("sketch.bytes_per_vertex", replay.bytes_per_vertex, "B");
  report->Layer("serve.epochs", static_cast<double>(engine_stats.epochs_merged),
                "count");
  report->Layer("serve.cache_hit_frac",
                engine_stats.epochs_merged == 0
                    ? 0.0
                    : static_cast<double>(engine_stats.cache_hits) /
                          static_cast<double>(engine_stats.epochs_merged),
                "ratio");
  report->Layer("serve.index_build_ms", replay.index_build_ms, "ms");
  report->Layer("connectivity.rounds_run", replay.stats.rounds_run, "count");
  report->Layer("connectivity.summed_words",
                static_cast<double>(replay.stats.summed_words), "count");
  report->Layer("connectivity.sample_attempts",
                static_cast<double>(replay.stats.sample_attempts), "count");
  report->Layer("connectivity.decode_attempts",
                static_cast<double>(replay.stats.decode_attempts), "count");
  report->Layer("connectivity.sparse_exact_forests",
                static_cast<double>(replay.stats.sparse_exact_forests),
                "count");
  if (opt.trace) {
    std::vector<double> pass_ingest_s;
    for (const Pass& p : passes) pass_ingest_s.push_back(p.ingest_s);
    ReportReplay(tr, pass_ingest_s, opt, report);
    report->Layer("serve.merge_s", tr.Total("serve.merge"), "s");
    report->Layer("serve.backpressure_s",
                  Median(ingest_call_s) - tr.Total("stream.plane"), "s");
  }
  report->notes.push_back("serve_rmat: passes=" +
                          std::to_string(passes.size()) +
                          " freshness_samples=" +
                          std::to_string(freshness.size()) +
                          " requests=" + std::to_string(latency.size()));
}

}  // namespace perfbench
