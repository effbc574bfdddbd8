// cuts_road: the paper's Theorem 4 / Theorem 14 queries on an idle server
// (reads only). A road-like stream with churn feeds a SketchServer with
// forest, vertex-connectivity and 2-skeleton engines, and the same decoded
// chunks feed ApproxMinCut. A fixed answer set then runs: kVcAtLeast,
// one min cut, kDisconnects, kIsBridge and kSkeletonEdgeCount. Ingest is
// negligible; vertexconn, skeleton extraction, apps and exact dominate.
#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "exact/hypergraph_mincut.h"
#include "exact/vertex_connectivity.h"
#include "graph/traversal.h"
#include "harness.h"
#include "util/random.h"

namespace perfbench {
namespace {

using gms::serve::ServeOp;

constexpr size_t kVcK = 2;
constexpr size_t kVcR = 62;  // the most that fits 64 route bits beside forest + skeleton
constexpr size_t kSkeletonK = 2;
constexpr size_t kMinCutCap = 4;
constexpr uint64_t kVcThresholds[] = {2, 3, 2, 3};
constexpr size_t kIngestsPerPass = 8;

struct AnswerSetSize {
  size_t disconnects;
  size_t is_bridge;
};

AnswerSetSize AnswerSet(Size size) {
  return size == Size::kFull ? AnswerSetSize{10000, 100000}
                             : AnswerSetSize{1000, 10000};
}

gms::ForestSketchParams ForestParams() {
  return gms::ForestSketchParams::Builder()
      .Config(gms::SketchConfig::Light())
      .Build();
}

gms::VcQueryParams VcParams() {
  return gms::VcQueryParams::Builder()
      .K(kVcK)
      .ExplicitR(kVcR)
      .Forest(ForestParams())
      .Build();
}

gms::serve::SketchServerParams ServerParams() {
  return gms::serve::SketchServerParams::Builder()
      .Forest(ForestParams())
      .Vc(VcParams())
      .SkeletonK(kSkeletonK)
      .Build();
}

/// The fixed requests, drawn from the run seed and the stream: random
/// separator candidates of size 1-2, and bridge probes on edges the stream
/// touched (about half of them decoys that were deleted again).
struct Requests {
  std::vector<gms::serve::ServeRequest> disconnects;
  std::vector<gms::serve::ServeRequest> is_bridge;
};

Requests MakeRequests(const gms::workload::BinaryFileStream& file,
                      uint64_t seed, Size size) {
  const AnswerSetSize sizes = AnswerSet(size);
  gms::Rng rng(gms::Mix64(seed ^ 0xc7));
  Requests out;
  for (size_t i = 0; i < sizes.disconnects; ++i) {
    gms::serve::ServeRequest req = Request(ServeOp::kDisconnects);
    const size_t count = 1 + rng.Below(2);
    for (size_t j = 0; j < count; ++j) {
      req.query_set.push_back(static_cast<gms::VertexId>(rng.Below(file.n())));
    }
    out.disconnects.push_back(std::move(req));
  }
  gms::StreamUpdate u;
  for (size_t i = 0; i < sizes.is_bridge; ++i) {
    file.ReadRecord(rng.Below(file.num_updates()), &u);
    out.is_bridge.push_back(Request(ServeOp::kIsBridge, u.edge[0], u.edge[1]));
  }
  return out;
}

std::string WrongByOp(const std::map<std::string, uint64_t>& wrong) {
  std::string out;
  for (const auto& [op, count] : wrong) {
    out += " " + op + ":" + std::to_string(count);
  }
  return out;
}

struct Pass {
  std::vector<double> setup_s;
  std::vector<double> open_s;
  std::vector<double> ingest_s;  // seconds per ingest, kIngestsPerPass each
  double answer_s = 0;
  double mincut_s = 0;
  std::vector<double> cheap_us;  // closed-loop latency of the cheap ops
};

struct Answers {
  std::vector<gms::serve::ServeResponse> vc_at_least;
  std::vector<gms::serve::ServeResponse> disconnects;
  std::vector<gms::serve::ServeResponse> is_bridge;
  gms::serve::ServeResponse skeleton_edges;
  std::optional<gms::QueryResult<gms::apps::MinCutEstimate>> mincut;
};

/// Per-layer replay of the server's three engines through one shared
/// plane, plus the min-cut ladder's rungs. Also the phase guard: every
/// engine must share the plane within the 64 route bits.
struct ReplayResult {
  gms::Hypergraph skeleton;
  gms::Graph vc_union;
  gms::ExtractStats forest_stats;
  double dense_frac = 0;
  double bytes = 0;
  double vc_at_least_ms = 0;
  double disconnects_us = 0;
  double index_build_ms = 0;
  size_t levels_extracted = 0;
};

ReplayResult Replay(const gms::workload::BinaryFileStream& file, uint64_t seed,
                    const gms::apps::ApproxMinCut& mincut,
                    const gms::apps::MinCutEstimate& estimate,
                    const Requests& requests, Tracer* tr) {
  const size_t n = file.n();
  const uint64_t total = file.num_updates();
  gms::SpanningForestSketch forest(n, 2, seed, ForestParams());
  gms::VcQuerySketch vc(n, VcParams(), seed + 1);
  gms::KSkeletonSketch skeleton(n, 2, kSkeletonK, seed + 2, ForestParams());
  gms::IngestPlane plane;
  std::vector<gms::StreamUpdate> chunk;
  ReplayResult out;
  uint64_t sink = 0;
  {
    Tracer::Scope root(tr, "replay");
    for (uint64_t done = 0; done < total;) {
      {
        Tracer::Scope s(tr, "workload.decode");
        DecodeChunk(file, done, total, &chunk);
      }
      {
        Tracer::Scope s(tr, "stream.prepare");
        sink += PrepareOnly(forest.codec(), chunk);
      }
      {
        Tracer::Scope s(tr, "stream.plane");
        Guard(PlaneProcess(&plane, chunk, &forest, &vc, &skeleton),
              "cuts_road: an engine cannot share the ingest plane");
      }
      done += chunk.size();
    }
    Guard(plane.route_bits_used() == 2 + kVcR && plane.route_bits_used() <= 64,
          "cuts_road: route bits " + std::to_string(plane.route_bits_used()) +
              " outside the budget");
    std::optional<gms::QueryResult<gms::Hypergraph>> f, k;
    std::optional<gms::QueryResult<gms::VcUnionSnapshot>> h;
    {
      Tracer::Scope s(tr, "connectivity.extract");
      f.emplace(forest.Query());
    }
    {
      Tracer::Scope s(tr, "skeleton.extract");
      k.emplace(skeleton.Query());
    }
    {
      Tracer::Scope s(tr, "vertexconn.extract");
      h.emplace(vc.Query());
    }
    if (!f->ok() || !k->ok() || !h->ok()) {
      throw RunAborted{"cuts_road: replay extraction failed"};
    }
    {
      Tracer::Scope s(tr, "serve.index_build");
      const Clock::time_point t0 = Clock::now();
      gms::serve::ComponentIndex components(n, f->value());
      gms::serve::BridgeIndex bridges(n, k->value());
      out.index_build_ms = SecondsSince(t0) * 1e3;
      sink += components.num_components() + bridges.num_bridges();
    }
    // Per-call timings on the detached snapshots and the ladder's rungs:
    // traced runs only, they are per-layer numbers.
    if (tr->enabled()) {
      {
        Tracer::Scope s(tr, "vertexconn.vc_at_least");
        const Clock::time_point t0 = Clock::now();
        for (uint64_t t : kVcThresholds) {
          sink += h->value().VertexConnectivityAtLeast(t).ok() ? 1 : 0;
        }
        out.vc_at_least_ms =
            SecondsSince(t0) * 1e3 / static_cast<double>(std::size(kVcThresholds));
      }
      {
        Tracer::Scope s(tr, "vertexconn.disconnects");
        const Clock::time_point t0 = Clock::now();
        for (const auto& req : requests.disconnects) {
          sink += h->value().Disconnects(req.query_set).ok() ? 1 : 0;
        }
        out.disconnects_us = SecondsSince(t0) * 1e6 /
                             static_cast<double>(requests.disconnects.size());
      }
      // The ladder rungs the app extracted, one min cut each.
      for (size_t i = 0; i < mincut.num_levels(); ++i) {
        std::optional<gms::QueryResult<gms::Hypergraph>> rung;
        {
          Tracer::Scope s(tr, "apps.mincut.rung_extract");
          rung.emplace(mincut.level(i).Query());
        }
        {
          Tracer::Scope s(tr, "exact.mincut");
          sink += static_cast<uint64_t>(gms::HypergraphMinCut(rung->value()).value);
        }
        ++out.levels_extracted;
        if (mincut.level(i).k() == estimate.resolved_k) break;
      }
    }
    out.skeleton = std::move(*k).value();
    out.vc_union = h->value().union_graph();
    out.forest_stats = f->stats();
  }
  KeepAlive(sink);
  out.dense_frac = DenseColumnFrac(forest);
  out.bytes = static_cast<double>(forest.MemoryBytes() + vc.MemoryBytes() +
                                  skeleton.MemoryBytes() + mincut.MemoryBytes());
  return out;
}

}  // namespace

gms::testkit::StreamSpec CutsRoadSpec(uint64_t seed, Size size) {
  gms::testkit::StreamSpec spec;
  spec.family = gms::testkit::Family::kRoadLike;
  // At 1024 vertices one answer set takes ~9 s (min cut ~4 s, kVcAtLeast
  // ~1.2 s a call), too few samples per run; 512 takes ~2 s.
  spec.n = size == Size::kFull ? 512 : 128;
  spec.m = spec.n / 16;  // highway shortcuts
  spec.churn = gms::testkit::Churn::kWithChurn;
  spec.decoys = spec.n;
  return spec.WithTrial(seed);
}

void RunCutsRoad(const Options& opt, Report* report) {
  Tracer tr(opt.trace);
  std::vector<Pass> passes;
  Answers answers;
  std::optional<gms::apps::ApproxMinCut> mincut;  // the last pass's app
  std::shared_ptr<const gms::Hypergraph> served_skeleton;
  std::shared_ptr<const gms::VcUnionSnapshot> served_vc;
  double roundtrip_ns = 0, handle_ns = 0;
  size_t n = 0;
  uint64_t total = 0;
  uint64_t refusals = 0;

  const Requests requests = [&] {
    gms::workload::BinaryFileStream file = OpenStream(opt.file);
    return MakeRequests(file, opt.seed, opt.size);
  }();

  const Clock::time_point run_start = Clock::now();
  for (size_t p = 0; MorePasses(opt, run_start, p); ++p) {
    const bool trace_pass = opt.trace && p % 2 == 1;
    Pass pass;
    // Ingest is short here, so each pass sets up and ingests several times
    // for more samples; the last server and app answer the query set.
    std::optional<gms::workload::BinaryFileStream> file;
    std::optional<gms::serve::SketchServer> server;
    for (size_t r = 0; r < kIngestsPerPass; ++r) {
      // Tear the last ingest down off the clock: setup_s times construction
      // and Open only.
      server.reset();
      mincut.reset();
      file.reset();
      Clock::time_point t0 = Clock::now();
      file.emplace(OpenStream(opt.file));
      pass.open_s.push_back(SecondsSince(t0));
      n = file->n();
      total = file->num_updates();
      server.emplace(n, ServerParams(), opt.seed);
      mincut.emplace(n, 2, kMinCutCap, opt.seed + 3, ForestParams());
      pass.setup_s.push_back(SecondsSince(t0));

      std::vector<gms::StreamUpdate> chunk;
      t0 = Clock::now();
      for (uint64_t done = 0; done < total;) {
        DecodeChunk(*file, done, total, &chunk);
        if (trace_pass) {
          Tracer::Scope s(&tr, "serve.ingest_call");
          server->Ingest(chunk);
          mincut->Process(chunk);
        } else {
          server->Ingest(chunk);
          mincut->Process(chunk);
        }
        done += chunk.size();
      }
      server->Flush();
      pass.ingest_s.push_back(SecondsSince(t0));
    }

    WireClient client(&*server);
    Answers got;
    auto call = [&](const gms::serve::ServeRequest& req) {
      gms::serve::ServeResponse resp = client.Call(req);
      if (resp.code != gms::StatusCode::kOk) ++refusals;
      return resp;
    };
    auto cheap = [&](const gms::serve::ServeRequest& req) {
      const Clock::time_point c0 = Clock::now();
      gms::serve::ServeResponse resp = call(req);
      pass.cheap_us.push_back(SecondsSince(c0) * 1e6);
      return resp;
    };
    Clock::time_point t0 = Clock::now();
    for (uint64_t t : kVcThresholds) {
      gms::serve::ServeRequest req = Request(ServeOp::kVcAtLeast);
      req.t = t;
      got.vc_at_least.push_back(call(req));
    }
    const Clock::time_point m0 = Clock::now();
    got.mincut.emplace(MinCutQuery(*mincut));
    pass.mincut_s = SecondsSince(m0);
    for (const auto& req : requests.disconnects) {
      got.disconnects.push_back(cheap(req));
    }
    for (const auto& req : requests.is_bridge) {
      got.is_bridge.push_back(cheap(req));
    }
    got.skeleton_edges = cheap(Request(ServeOp::kSkeletonEdgeCount));
    pass.answer_s = SecondsSince(t0);

    t0 = Clock::now();
    for (const auto& req : requests.is_bridge) client.Call(req);
    roundtrip_ns = SecondsSince(t0) * 1e9 /
                   static_cast<double>(requests.is_bridge.size());
    t0 = Clock::now();
    for (const auto& req : requests.is_bridge) server->Handle(req);
    handle_ns = SecondsSince(t0) * 1e9 /
                static_cast<double>(requests.is_bridge.size());

    served_skeleton = server->skeleton_engine().Current()->payload;
    served_vc = server->vc_engine().Current()->payload;
    answers = std::move(got);
    passes.push_back(std::move(pass));
  }
  const double peak_rss = PeakRssMb();

  // --- Off the clock: phase guard + payload checks (replay), oracles. ---
  gms::workload::BinaryFileStream file = OpenStream(opt.file);
  if (!answers.mincut->ok()) throw RunAborted{"min cut query failed"};
  const gms::apps::MinCutEstimate& estimate = answers.mincut->value();
  const ReplayResult replay =
      Replay(file, opt.seed, *mincut, estimate, requests, &tr);
  if (served_skeleton == nullptr || served_vc == nullptr ||
      served_skeleton->Edges() != replay.skeleton.Edges() ||
      !(served_vc->union_graph() == replay.vc_union)) {
    report->Fail("replayed skeleton/vc payloads differ from the served ones");
  }

  const gms::Hypergraph final_hyper = FinalGraph(file);
  const gms::Graph final_graph = final_hyper.ToGraph();
  uint64_t attempted = 0, wrong = 0;
  std::map<std::string, uint64_t> wrong_by_op;
  auto check = [&](bool agrees, const char* op) {
    ++attempted;
    if (!agrees) {
      ++wrong;
      ++wrong_by_op[op];
    }
  };
  for (size_t i = 0; i < std::size(kVcThresholds); ++i) {
    check(answers.vc_at_least[i].value ==
          (gms::IsKVertexConnected(final_graph, kVcThresholds[i]) ? 1u : 0u),
          "vc_at_least");
  }
  const gms::HypergraphCut exact = gms::HypergraphMinCut(final_hyper);
  const size_t lambda = static_cast<size_t>(exact.value);
  check(estimate.value == std::min(lambda, kMinCutCap) &&
        estimate.exact == (lambda < kMinCutCap),
        "min_cut");
  for (size_t i = 0; i < requests.disconnects.size(); ++i) {
    const bool want = !gms::IsConnectedExcluding(
        final_graph, requests.disconnects[i].query_set);
    check(answers.disconnects[i].value == (want ? 1u : 0u), "disconnects");
  }
  std::vector<uint64_t> bridges;
  for (const gms::Hyperedge& e : gms::BridgeHyperedges(final_hyper)) {
    bridges.push_back(static_cast<uint64_t>(e[0]) << 32 | e[1]);
  }
  std::sort(bridges.begin(), bridges.end());
  for (size_t i = 0; i < requests.is_bridge.size(); ++i) {
    const auto& req = requests.is_bridge[i];
    const uint64_t key = std::min(req.u, req.v) << 32 | std::max(req.u, req.v);
    check(answers.is_bridge[i].value ==
          (std::binary_search(bridges.begin(), bridges.end(), key) ? 1u : 0u),
          "is_bridge");
  }
  const uint64_t skel = answers.skeleton_edges.value;
  check(skel == replay.skeleton.NumEdges() &&
        skel + gms::NumComponents(final_graph) >= n &&
        skel <= kSkeletonK * (n - 1),
        "skeleton_edge_count");
  report->attempted += attempted * passes.size();
  report->failed += wrong * passes.size() + refusals;

  std::vector<double> setup, open, ingest, answer_s, mincut_s, cheap;
  for (const Pass& p : passes) {
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    open.insert(open.end(), p.open_s.begin(), p.open_s.end());
    for (double s : p.ingest_s) {
      ingest.push_back(static_cast<double>(total) / s);
    }
    answer_s.push_back(p.answer_s);
    mincut_s.push_back(p.mincut_s);
    cheap.insert(cheap.end(), p.cheap_us.begin(), p.cheap_us.end());
  }
  report->n = n;
  report->updates = total;
  report->phase = "shared plane, R=" + std::to_string(kVcR) +
                  " (dense_column_frac=" + std::to_string(replay.dense_frac) +
                  ")";
  ReportEndToEnd(setup, ingest, answer_s, InterquartileMean(answer_s),
                 peak_rss, report);

  report->Layer("protocol.query_p50_us", Quantile(cheap, 0.5), "us");
  report->Layer("protocol.query_p99_us", Quantile(cheap, 0.99), "us");
  report->Layer("protocol.roundtrip_ns", roundtrip_ns, "ns");
  report->Layer("protocol.handle_ns", handle_ns, "ns");
  report->Layer("workload.open_s", Median(open), "s");
  report->Layer("sketch.dense_column_frac", replay.dense_frac, "ratio");
  report->Layer("sketch.bytes_per_vertex", replay.bytes / static_cast<double>(n),
                "B");
  report->Layer("serve.index_build_ms", replay.index_build_ms, "ms");
  report->Layer("connectivity.rounds_run", replay.forest_stats.rounds_run,
                "count");
  report->Layer("connectivity.summed_words",
                static_cast<double>(replay.forest_stats.summed_words), "count");
  report->Layer("connectivity.sample_attempts",
                static_cast<double>(replay.forest_stats.sample_attempts),
                "count");
  report->Layer("connectivity.decode_attempts",
                static_cast<double>(replay.forest_stats.decode_attempts),
                "count");
  report->Layer("connectivity.sparse_exact_forests",
                static_cast<double>(replay.forest_stats.sparse_exact_forests),
                "count");
  report->Layer("vertexconn.vc_at_least_ms", replay.vc_at_least_ms, "ms");
  report->Layer("vertexconn.disconnects_us", replay.disconnects_us, "us");
  report->Layer("apps.mincut.query_s", Median(mincut_s), "s");
  report->Layer("apps.mincut.levels_extracted",
                static_cast<double>(replay.levels_extracted), "count");
  if (opt.trace) {
    std::vector<double> pass_ingest_s;
    for (const Pass& p : passes) pass_ingest_s.push_back(Median(p.ingest_s));
    ReportReplay(tr, pass_ingest_s, opt, report);
    report->Layer("skeleton.extract_s", tr.Total("skeleton.extract"), "s");
    report->Layer("vertexconn.extract_s", tr.Total("vertexconn.extract"), "s");
    report->Layer("exact.mincut_s", tr.Total("exact.mincut"), "s");
  }
  report->notes.push_back(
      "cuts_road: passes=" + std::to_string(passes.size()) +
      " lambda=" + std::to_string(lambda) +
      " mincut=" + std::to_string(estimate.value) +
      " resolved_k=" + std::to_string(estimate.resolved_k) +
      " wrong_answers=" + std::to_string(wrong) + WrongByOp(wrong_by_op) +
      " refusals=" + std::to_string(refusals));
}

}  // namespace perfbench
