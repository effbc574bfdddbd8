#include "testkit/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "connectivity/connectivity_query.h"
#include "exact/hypergraph_mincut.h"
#include "serve/sketch_server.h"
#include "exact/strength.h"
#include "graph/edge_codec.h"
#include "graph/traversal.h"
#include "reconstruct/light_recovery.h"
#include "sketch/l0_sampler.h"
#include "sparsify/sparsifier_sketch.h"
#include "sparsify/verify.h"
#include "util/random.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace testkit {

namespace {

/// The stream as the sketch sees it: every update the fault hook drops is
/// withheld. Exact algorithms always consume the TRUE final graph.
std::vector<StreamUpdate> SketchSideUpdates(const DynamicStream& stream,
                                            const FaultHook& fault) {
  std::vector<StreamUpdate> out;
  out.reserve(stream.size());
  for (const StreamUpdate& u : stream) {
    if (!fault.Drops(u)) out.push_back(u);
  }
  return out;
}

VcQueryParams VcParams(const OracleOptions& opt) {
  VcQueryParams p;
  p.k = opt.k;
  if (opt.explicit_r > 0) {
    p.explicit_r = opt.explicit_r;
  } else {
    // Half the paper's R = 16 k^2 ln n: the sized-down constant the unit
    // suites established as empirically reliable at these scales.
    p.r_multiplier = 0.5;
  }
  p.forest.config = SketchConfig::Light();
  return p;
}

/// Removal-set queries for the VC oracles: the planted separator first (the
/// one set the family GUARANTEES disconnects), then seeded random sets.
std::vector<std::vector<VertexId>> VcQuerySets(
    size_t n, const std::vector<VertexId>& planted, uint64_t seed,
    const OracleOptions& opt) {
  std::vector<std::vector<VertexId>> queries;
  if (!planted.empty() && planted.size() <= opt.k) queries.push_back(planted);
  Rng rng(Mix64(seed ^ 0x71c7a9d05c9f2e3bULL));
  for (size_t q = 0; q < opt.num_queries; ++q) {
    size_t want = 1 + rng.Below(std::max<size_t>(opt.k, 1));
    want = std::min(want, n > 0 ? n - 1 : 0);
    std::vector<VertexId> s;
    size_t attempts = 0;
    while (s.size() < want && ++attempts < 64 * (want + 1)) {
      VertexId v = static_cast<VertexId>(rng.Below(n));
      bool dup = false;
      for (VertexId w : s) dup |= w == v;
      if (!dup) s.push_back(v);
    }
    if (!s.empty()) queries.push_back(std::move(s));
  }
  return queries;
}

std::string DescribeSet(const std::vector<VertexId>& s) {
  std::string out = "{";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(s[i]);
  }
  out += "}";
  return out;
}

OracleOutcome Disagree(std::string detail) {
  OracleOutcome out;
  out.agreed = false;
  out.detail = std::move(detail);
  return out;
}

OracleOutcome DecodeFailed(const Status& st) {
  OracleOutcome out;
  out.decode_failure = true;
  out.detail = st.ToString();
  return out;
}

OracleOutcome NotApplicable() {
  OracleOutcome out;
  out.applicable = false;
  return out;
}

/// Ground-truth bridges by the definition: hyperedge e is a bridge iff
/// deleting it increases the component count. Deliberately independent of
/// the Tarjan-based BridgeHyperedges the apps use (quadratic, but the spec
/// grid is tiny).
std::vector<Hyperedge> BruteBridges(const Hypergraph& g) {
  const std::vector<Hyperedge>& edges = g.Edges();
  const size_t base = NumComponents(g);
  std::vector<Hyperedge> bridges;
  for (size_t i = 0; i < edges.size(); ++i) {
    Hypergraph h(g.NumVertices());
    for (size_t j = 0; j < edges.size(); ++j) {
      if (j != i) h.AddEdge(edges[j]);
    }
    if (NumComponents(h) > base) bridges.push_back(edges[i]);
  }
  return bridges;
}

}  // namespace

const char* OracleName(OracleKind k) {
  switch (k) {
    case OracleKind::kComponents:
      return "components";
    case OracleKind::kSpanningNoGhost:
      return "spanning_no_ghost";
    case OracleKind::kEdgeConnectivity:
      return "edge_connectivity";
    case OracleKind::kLightRecovery:
      return "light_recovery";
    case OracleKind::kVcQuery:
      return "vc_query";
    case OracleKind::kHyperVcQuery:
      return "hyper_vc_query";
    case OracleKind::kSparsifier:
      return "sparsifier";
    case OracleKind::kL0Sampler:
      return "l0_sampler";
    case OracleKind::kTwoEdgeConnect:
      return "two_edge_connect";
    case OracleKind::kApproxMinCut:
      return "approx_min_cut";
    case OracleKind::kBridgeQuery:
      return "bridge_query";
  }
  return "unknown";
}

std::vector<OracleKind> AllOracles() {
  return {OracleKind::kComponents,   OracleKind::kSpanningNoGhost,
          OracleKind::kEdgeConnectivity, OracleKind::kLightRecovery,
          OracleKind::kVcQuery,      OracleKind::kHyperVcQuery,
          OracleKind::kSparsifier,   OracleKind::kL0Sampler,
          OracleKind::kTwoEdgeConnect, OracleKind::kApproxMinCut,
          OracleKind::kBridgeQuery};
}

OracleOutcome RunOracleOnStream(OracleKind kind, size_t n, size_t max_rank,
                                const DynamicStream& stream,
                                const Hypergraph& truth,
                                const std::vector<VertexId>& planted_separator,
                                uint64_t sketch_seed,
                                const OracleOptions& opt) {
  if (n < 2) return NotApplicable();
  const std::vector<StreamUpdate> updates =
      SketchSideUpdates(stream, opt.fault);
  const std::span<const StreamUpdate> span(updates);

  switch (kind) {
    case OracleKind::kComponents: {
      ConnectivityQuery q(n, max_rank, sketch_seed);
      for (const StreamUpdate& u : span) q.Update(u.edge, u.delta);
      auto got = q.NumComponents();
      if (!got.ok()) return DecodeFailed(got.status());
      size_t want = NumComponents(truth);
      if (*got != want) {
        return Disagree("components: sketch=" + std::to_string(*got) +
                        " exact=" + std::to_string(want));
      }
      return OracleOutcome();
    }

    case OracleKind::kSpanningNoGhost: {
      ConnectivityQuery q(n, max_rank, sketch_seed);
      for (const StreamUpdate& u : span) q.Update(u.edge, u.delta);
      auto span_graph = q.SpanningGraph();
      if (!span_graph.ok()) return DecodeFailed(span_graph.status());
      for (const Hyperedge& e : span_graph->Edges()) {
        if (!truth.HasEdge(e)) {
          return Disagree("spanning_no_ghost: ghost edge " + e.ToString());
        }
      }
      return OracleOutcome();
    }

    case OracleKind::kEdgeConnectivity: {
      EdgeConnectivityQuery q(n, max_rank, opt.k, sketch_seed);
      for (const StreamUpdate& u : span) q.Update(u.edge, u.delta);
      auto got = q.EdgeConnectivityCapped();
      if (!got.ok()) return DecodeFailed(got.status());
      size_t exact = 0;
      if (truth.NumVertices() >= 2 && IsConnected(truth)) {
        exact = static_cast<size_t>(HypergraphMinCut(truth).value + 0.5);
      }
      size_t want = std::min(exact, opt.k);
      if (*got != want) {
        return Disagree("edge_connectivity: sketch=" + std::to_string(*got) +
                        " exact=" + std::to_string(want));
      }
      return OracleOutcome();
    }

    case OracleKind::kLightRecovery: {
      LightRecoverySketch sketch(n, max_rank, opt.k, sketch_seed);
      sketch.Process(span);
      auto rec = sketch.Recover();
      if (!rec.ok()) return DecodeFailed(rec.status());
      LightDecomposition offline = OfflineLightEdges(truth, opt.k);
      if (rec->light.NumEdges() != offline.light.NumEdges()) {
        return Disagree(
            "light_recovery: sketch recovered " +
            std::to_string(rec->light.NumEdges()) + " edges, offline light_k has " +
            std::to_string(offline.light.NumEdges()));
      }
      for (const Hyperedge& e : rec->light.Edges()) {
        if (!offline.light.HasEdge(e)) {
          return Disagree("light_recovery: non-light edge " + e.ToString());
        }
      }
      return OracleOutcome();
    }

    case OracleKind::kVcQuery: {
      if (truth.Rank() > 2) return NotApplicable();
      Graph g(n);
      for (const Hyperedge& e : truth.Edges()) g.AddEdge(e.AsEdge());
      VcQuerySketch sketch(n, VcParams(opt), sketch_seed);
      sketch.Process(span);
      auto snap = sketch.Query();
      if (!snap.ok()) return DecodeFailed(snap.status());
      for (const auto& s :
           VcQuerySets(n, planted_separator, sketch_seed, opt)) {
        auto got = snap.value().Disconnects(s);
        if (!got.ok()) return DecodeFailed(got.status());
        bool want = !IsConnectedExcluding(g, s);
        if (*got != want) {
          return Disagree("vc_query: S=" + DescribeSet(s) + " sketch=" +
                          (*got ? "disconnects" : "stays connected") +
                          " exact=" + (want ? "disconnects" : "stays connected"));
        }
      }
      return OracleOutcome();
    }

    case OracleKind::kHyperVcQuery: {
      HyperVcQuerySketch sketch(n, max_rank, VcParams(opt), sketch_seed);
      sketch.Process(span);
      auto snap = sketch.Query();
      if (!snap.ok()) return DecodeFailed(snap.status());
      for (const auto& s :
           VcQuerySets(n, planted_separator, sketch_seed, opt)) {
        auto got = snap.value().Disconnects(s);
        if (!got.ok()) return DecodeFailed(got.status());
        bool want = !IsConnectedExcluding(truth, s);
        if (*got != want) {
          return Disagree("hyper_vc_query: S=" + DescribeSet(s) + " sketch=" +
                          (*got ? "disconnects" : "stays connected") +
                          " exact=" + (want ? "disconnects" : "stays connected"));
        }
      }
      return OracleOutcome();
    }

    case OracleKind::kSparsifier: {
      SparsifierParams params;
      params.epsilon = opt.sparsifier_epsilon;
      params.levels = opt.sparsifier_levels;
      params.k = opt.sparsifier_k;
      HypergraphSparsifierSketch sketch(n, max_rank, params, sketch_seed);
      sketch.Process(span);
      auto out = sketch.ExtractSparsifier();
      if (!out.ok()) return DecodeFailed(out.status());
      if (out->truncated) {
        return DecodeFailed(Status::DecodeFailure(
            "sparsifier: deepest level still held heavy edges"));
      }
      SparsifierReport report = VerifySparsifier(
          truth, out->sparsifier, opt.verify_epsilon,
          /*exhaustive_threshold=*/16, /*samples=*/400, /*seed=*/sketch_seed);
      if (!report.within_epsilon) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "sparsifier: max relative cut error %.3f > %.3f "
                      "(zero mismatches: %zu)",
                      report.stats.max_rel_error, opt.verify_epsilon,
                      report.stats.zero_mismatches);
        return Disagree(buf);
      }
      return OracleOutcome();
    }

    case OracleKind::kL0Sampler: {
      EdgeCodec codec(n, max_rank);
      L0Sampler sampler(codec.DomainSize(), SketchConfig::Default(),
                        sketch_seed);
      for (const StreamUpdate& u : span) {
        sampler.Update(codec.Encode(u.edge), u.delta);
      }
      auto sample = sampler.Sample();
      if (truth.NumEdges() == 0) {
        // The support is empty; an honest sampler must refuse to answer.
        if (sample.ok()) {
          return Disagree("l0_sampler: sampled value " +
                          std::to_string(sample->value) +
                          " from an empty support");
        }
        return OracleOutcome();
      }
      if (!sample.ok()) return DecodeFailed(sample.status());
      auto edge = codec.Decode(sample->index);
      if (!edge.ok()) {
        return Disagree("l0_sampler: sampled index outside the codec domain");
      }
      if (!truth.HasEdge(*edge)) {
        return Disagree("l0_sampler: sampled edge " + edge->ToString() +
                        " not in the final graph");
      }
      if (sample->value != 1) {
        return Disagree("l0_sampler: edge " + edge->ToString() +
                        " has multiplicity " + std::to_string(sample->value) +
                        " (want 1)");
      }
      return OracleOutcome();
    }

    case OracleKind::kTwoEdgeConnect: {
      apps::TwoEdgeConnect app(n, max_rank, sketch_seed);
      app.Process(span);
      auto got = app.Query();
      if (!got.ok()) return DecodeFailed(got.status());
      const apps::TwoEdgeConnectAnswer& ans = got.value();
      const size_t want_components = NumComponents(truth);
      if (ans.num_components != want_components) {
        return Disagree("two_edge_connect: components sketch=" +
                        std::to_string(ans.num_components) +
                        " exact=" + std::to_string(want_components));
      }
      for (const Hyperedge& e : ans.skeleton.Edges()) {
        if (!truth.HasEdge(e)) {
          return Disagree("two_edge_connect: ghost skeleton edge " +
                          e.ToString());
        }
      }
      const Hypergraph got_bridges(n, ans.bridges);
      const Hypergraph want_bridges(n, BruteBridges(truth));
      if (!(got_bridges == want_bridges)) {
        return Disagree("two_edge_connect: bridge set mismatch (sketch " +
                        std::to_string(got_bridges.NumEdges()) + ", exact " +
                        std::to_string(want_bridges.NumEdges()) + ")");
      }
      const bool want_2ec =
          want_components == 1 && want_bridges.NumEdges() == 0;
      if (ans.two_edge_connected != want_2ec) {
        return Disagree("two_edge_connect: verdict sketch=" +
                        std::to_string(ans.two_edge_connected) +
                        " exact=" + std::to_string(want_2ec));
      }
      return OracleOutcome();
    }

    case OracleKind::kApproxMinCut: {
      apps::ApproxMinCut app(n, max_rank, /*k_cap=*/opt.k, sketch_seed);
      app.Process(span);
      auto got = app.Query();
      if (!got.ok()) return DecodeFailed(got.status());
      const apps::MinCutEstimate& est = got.value();
      size_t lambda = 0;
      if (IsConnected(truth)) {
        const HypergraphCut exact = truth.NumVertices() <= 16
                                        ? HypergraphMinCutBrute(truth)
                                        : HypergraphMinCut(truth);
        lambda = static_cast<size_t>(exact.value + 0.5);
      }
      const size_t want = std::min(lambda, opt.k);
      if (est.value != want) {
        return Disagree("approx_min_cut: sketch=" + std::to_string(est.value) +
                        " exact=" + std::to_string(want) +
                        " (lambda=" + std::to_string(lambda) + ")");
      }
      if (est.exact) {
        // An exact answer must certify itself: value below the resolving
        // level's k, and a shore of the TRUE graph achieving it.
        if (est.value >= est.resolved_k) {
          return Disagree("approx_min_cut: exact answer " +
                          std::to_string(est.value) +
                          " not below resolved_k=" +
                          std::to_string(est.resolved_k));
        }
        if (est.shore.size() != n ||
            truth.CutSize(est.shore) != est.value) {
          return Disagree("approx_min_cut: shore does not achieve the "
                          "claimed cut value " + std::to_string(est.value));
        }
      } else if (lambda < opt.k) {
        return Disagree("approx_min_cut: saturated at k_cap=" +
                        std::to_string(opt.k) + " but lambda=" +
                        std::to_string(lambda));
      }
      return OracleOutcome();
    }

    case OracleKind::kBridgeQuery: {
      if (truth.Rank() > 2) return NotApplicable();
      serve::SketchServerParams params =
          serve::SketchServerParams::Builder()
              .MaxRank(max_rank)
              .SkeletonK(std::max<size_t>(2, opt.k))
              .Build();
      serve::SketchServer server(n, params, sketch_seed);
      server.Ingest(span);
      server.Flush();
      const Hypergraph exact_bridges(n, BruteBridges(truth));
      // Every true edge, then random (possibly absent) pairs: a non-edge
      // is never a bridge, and the server must say so too.
      std::vector<std::pair<VertexId, VertexId>> pairs;
      for (const Hyperedge& e : truth.Edges()) pairs.push_back({e[0], e[1]});
      Rng rng(Mix64(sketch_seed ^ 0x3c6ef372fe94f82bULL));
      for (size_t q = 0; q < opt.num_queries; ++q) {
        pairs.push_back({static_cast<VertexId>(rng.Below(n)),
                         static_cast<VertexId>(rng.Below(n))});
      }
      for (const auto& [u, v] : pairs) {
        serve::ServeRequest req;
        req.op = serve::ServeOp::kIsBridge;
        req.u = u;
        req.v = v;
        std::vector<uint8_t> frame, reply;
        serve::EncodeServeRequest(req, &frame);
        server.HandleFrame(frame, &reply);
        auto resp = serve::DecodeServeResponse(reply);
        if (!resp.ok()) return DecodeFailed(resp.status());
        if (resp->code != StatusCode::kOk) {
          return DecodeFailed(resp->status());
        }
        const bool want =
            u != v && exact_bridges.HasEdge(Hyperedge(std::vector<VertexId>{
                          std::min(u, v), std::max(u, v)}));
        if ((resp->value != 0) != want) {
          return Disagree("bridge_query: edge {" + std::to_string(u) + "," +
                          std::to_string(v) + "} sketch=" +
                          (resp->value ? "bridge" : "not bridge") +
                          " exact=" + (want ? "bridge" : "not bridge"));
        }
      }
      return OracleOutcome();
    }
  }
  return Disagree("unknown oracle kind");
}

OracleOutcome RunOracle(OracleKind kind, const StreamSpec& spec,
                        uint64_t sketch_seed, const OracleOptions& opt) {
  BuiltStream built = spec.Build();
  OracleOutcome out =
      RunOracleOnStream(kind, spec.n, built.max_rank, built.stream,
                        built.final_graph, built.separator, sketch_seed, opt);
  if (!out.Succeeded() && out.applicable) {
    out.detail = std::string(OracleName(kind)) + ";sketch_seed=" +
                 std::to_string(sketch_seed) + ";" + spec.ToString() + " :: " +
                 out.detail;
  }
  return out;
}

WilsonInterval Wilson(size_t successes, size_t trials, double z) {
  WilsonInterval w;
  if (trials == 0) return w;  // vacuous [0, 1]
  const double nt = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / nt;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nt;
  const double center = phat + z2 / (2.0 * nt);
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / nt + z2 / (4.0 * nt * nt));
  w.lo = std::max(0.0, (center - margin) / denom);
  w.hi = std::min(1.0, (center + margin) / denom);
  return w;
}

SweepResult RunSweep(OracleKind kind, const StreamSpec& base, size_t trials,
                     const OracleOptions& opt) {
  SweepResult result;
  for (size_t t = 0; t < trials; ++t) {
    StreamSpec spec = base.WithTrial(t);
    uint64_t sketch_seed =
        Mix64(base.gseed ^ (0xa5a5a5a5a5a5a5a5ULL + 2 * t + 1));
    OracleOutcome out = RunOracle(kind, spec, sketch_seed, opt);
    if (!out.applicable) continue;
    ++result.trials;
    if (out.Succeeded()) {
      ++result.successes;
    } else {
      if (out.decode_failure) {
        ++result.decode_failures;
      } else {
        ++result.disagreements;
      }
      result.failures.push_back(out.detail);
    }
  }
  return result;
}

}  // namespace testkit
}  // namespace gms
