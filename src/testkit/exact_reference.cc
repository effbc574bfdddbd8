#include "testkit/exact_reference.h"

#include <algorithm>

#include "exact/dinic.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace gms {
namespace testkit {

namespace {

// Queyranne key contribution of a hyperedge with |e| = s, |e ∩ A| = c and
// weight w, towards a candidate vertex v in e \ A:
//   key(v) = f({v}) + f(A) - f(A ∪ {v}) summed over incident edges, where
// f is the hypergraph cut function. Per edge this works out to
//   0   if c == 0,
//   w   if 1 <= c <= s - 2,
//   2w  if c == s - 1.
double KeyVal(size_t c, size_t s, double w) {
  if (c == 0) return 0;
  if (c + 1 == s) return 2 * w;
  return w;
}

// Node-split flow network: in(v) = 2v, out(v) = 2v+1; unit vertex
// capacities except the terminals, infinite arcs along edges.
Dinic BuildSplitNetwork(const Graph& g, VertexId s, VertexId t) {
  size_t n = g.NumVertices();
  Dinic net(2 * n);
  for (VertexId v = 0; v < n; ++v) {
    int64_t cap = (v == s || v == t) ? Dinic::kInf : 1;
    net.AddArc(2 * v, 2 * v + 1, cap);
  }
  for (const Edge& e : g.Edges()) {
    net.AddArc(2 * e.u() + 1, 2 * e.v(), Dinic::kInf);
    net.AddArc(2 * e.v() + 1, 2 * e.u(), Dinic::kInf);
  }
  return net;
}

}  // namespace

int64_t VertexDisjointPathsReference(const Graph& g, VertexId u, VertexId v,
                                     int64_t limit) {
  GMS_CHECK(u != v);
  GMS_CHECK_MSG(!g.HasEdge(u, v),
                "vertex cut undefined for adjacent endpoints");
  Dinic net = BuildSplitNetwork(g, u, v);
  int64_t cap = limit < 0 ? Dinic::kInf : limit;
  return net.MaxFlow(2 * u + 1, 2 * v, cap);
}

HypergraphCut HypergraphMinCutReference(size_t n,
                                        const std::vector<Hyperedge>& edges,
                                        const std::vector<double>& weights) {
  GMS_CHECK(n >= 2);
  GMS_CHECK(edges.size() == weights.size());
  // Contraction state: each original vertex points at a supernode id.
  std::vector<uint32_t> super(n);
  for (size_t v = 0; v < n; ++v) super[v] = static_cast<uint32_t>(v);
  std::vector<std::vector<uint32_t>> merged(n);
  for (size_t v = 0; v < n; ++v) merged[v] = {static_cast<uint32_t>(v)};
  std::vector<uint32_t> alive(n);
  for (size_t v = 0; v < n; ++v) alive[v] = static_cast<uint32_t>(v);

  HypergraphCut best;
  best.value = -1;

  while (alive.size() > 1) {
    // Project edges onto current supernodes; drop collapsed edges.
    std::vector<std::vector<uint32_t>> pe;   // projected edges
    std::vector<double> pw;
    std::vector<std::vector<uint32_t>> incident(n);
    for (size_t i = 0; i < edges.size(); ++i) {
      std::vector<uint32_t> vs;
      for (VertexId v : edges[i]) vs.push_back(super[v]);
      std::sort(vs.begin(), vs.end());
      vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
      if (vs.size() < 2) continue;
      uint32_t id = static_cast<uint32_t>(pe.size());
      for (uint32_t v : vs) incident[v].push_back(id);
      pe.push_back(std::move(vs));
      pw.push_back(weights[i]);
    }

    // One maximum-adjacency (pendant-pair) phase.
    std::vector<double> key(n, 0);
    std::vector<bool> in_a(n, false);
    std::vector<uint32_t> cnt(pe.size(), 0);
    uint32_t prev = alive[0], last = alive[0];

    auto absorb = [&](uint32_t sel) {
      in_a[sel] = true;
      for (uint32_t id : incident[sel]) {
        size_t c = cnt[id], s = pe[id].size();
        for (uint32_t u : pe[id]) {
          if (!in_a[u]) key[u] += KeyVal(c + 1, s, pw[id]) - KeyVal(c, s, pw[id]);
        }
        cnt[id] = static_cast<uint32_t>(c + 1);
      }
    };

    absorb(last);
    for (size_t step = 1; step < alive.size(); ++step) {
      uint32_t sel = UINT32_MAX;
      for (uint32_t v : alive) {
        if (!in_a[v] && (sel == UINT32_MAX || key[v] > key[sel])) sel = v;
      }
      prev = last;
      last = sel;
      absorb(sel);
    }
    // Cut of the phase: delta({last}) in the contracted hypergraph.
    double cut_of_phase = 0;
    for (uint32_t id : incident[last]) cut_of_phase += pw[id];
    if (best.value < 0 || cut_of_phase < best.value) {
      best.value = cut_of_phase;
      best.side.assign(n, false);
      for (uint32_t orig : merged[last]) best.side[orig] = true;
    }
    // Contract last into prev.
    for (uint32_t orig : merged[last]) super[orig] = prev;
    merged[prev].insert(merged[prev].end(), merged[last].begin(),
                        merged[last].end());
    alive.erase(std::find(alive.begin(), alive.end(), last));
  }
  // side is indexed by original vertex id already (size n).
  best.side.resize(n);
  return best;
}

HypergraphCut HypergraphMinCutReference(const Hypergraph& g) {
  std::vector<double> w(g.NumEdges(), 1.0);
  return HypergraphMinCutReference(g.NumVertices(), g.Edges(), w);
}

size_t VertexConnectivityReference(const Graph& g) {
  size_t n = g.NumVertices();
  if (n <= 1) return 0;
  if (!IsConnected(g)) return 0;
  size_t ans = n - 1;
  // Even-Tarjan schedule: pair v_0..v_{ans} against every non-neighbor.
  // Any minimum separator S (|S| = kappa) misses some v_i with i <= kappa,
  // and v_i has a non-neighbor across S, so the loop finds kappa.
  for (VertexId i = 0; i < n && static_cast<size_t>(i) <= ans; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i == j || g.HasEdge(i, j)) continue;
      int64_t paths = VertexDisjointPathsReference(g, i, j,
                                                   static_cast<int64_t>(ans));
      ans = std::min(ans, static_cast<size_t>(paths));
    }
  }
  return ans;
}

bool IsKVertexConnectedReference(const Graph& g, size_t k) {
  size_t n = g.NumVertices();
  if (k == 0) return true;
  if (n < k + 1) return false;
  if (g.MinDegree() < k) {
    // kappa <= delta always; quick reject (also handles disconnected).
    return false;
  }
  for (VertexId i = 0; i < n && static_cast<size_t>(i) <= k; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i == j || g.HasEdge(i, j)) continue;
      if (VertexDisjointPathsReference(g, i, j, static_cast<int64_t>(k)) <
          static_cast<int64_t>(k)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace testkit
}  // namespace gms
