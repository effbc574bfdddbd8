#include "exact/vertex_connectivity.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/traversal.h"
#include "util/check.h"

namespace gms {

namespace {

// Node-split flow network of g, built once per call and reused by every
// pair: in(v) = 2v, out(v) = 2v+1, a unit arc in(v) -> out(v) per vertex
// and an uncapacitated arc out(u) -> in(v) per direction of each edge.
// Flows are 0/1 (unit vertex capacities bound every arc), so the residual
// state is one byte per vertex arc and per directed edge arc. Paths() finds
// unit augmenting paths by BFS with epoch-stamped visited marks and undoes
// only the arcs it touched before the next pair: nothing is allocated per
// pair.
//
// The source is out(s) and the sink in(t), so the terminals' own vertex
// arcs never carry flow and need no infinite capacity.
class SplitNetwork {
 public:
  explicit SplitNetwork(const Graph& g) : n_(g.NumVertices()) {
    GMS_CHECK_MSG(g.NumEdges() < (size_t{1} << 31), "graph too large");
    offset_.assign(n_ + 1, 0);
    for (VertexId v = 0; v < n_; ++v) offset_[v + 1] = offset_[v] + g.Degree(v);
    nbr_.resize(offset_[n_]);
    rev_.resize(offset_[n_]);
    // Both directions of edge {u < v} are placed when u is visited, with u
    // ascending and u's larger neighbors sorted: every list ends up sorted.
    std::vector<uint32_t> fill(offset_.begin(), offset_.end() - 1);
    std::vector<VertexId> larger;
    for (VertexId u = 0; u < n_; ++u) {
      larger.clear();
      for (VertexId v : g.Neighbors(u)) {
        if (v > u) larger.push_back(v);
      }
      std::sort(larger.begin(), larger.end());
      for (VertexId v : larger) {
        const uint32_t a = fill[u]++, b = fill[v]++;
        nbr_[a] = v;
        nbr_[b] = u;
        rev_[a] = b;
        rev_[b] = a;
      }
    }
    vflow_.assign(n_, 0);
    eflow_.assign(nbr_.size(), 0);
    stamp_.assign(2 * n_, 0);
    parent_.resize(2 * n_);
    parent_arc_.resize(2 * n_);
    queue_.resize(2 * n_);
  }

  size_t Degree(VertexId v) const { return offset_[v + 1] - offset_[v]; }

  /// Number of internally vertex-disjoint s-t paths for non-adjacent
  /// s != t, capped at `limit`. The flow stays in place until the next
  /// call, so MinCut can read the residual network.
  size_t Paths(VertexId s, VertexId t, size_t limit) {
    ClearFlow();
    // Each path leaves s and enters t through a distinct neighbor.
    limit = std::min({limit, Degree(s), Degree(t)});
    size_t flow = 0;
    while (flow < limit && Augment(s, t)) ++flow;
    return flow;
  }

  /// A minimum s-t vertex cut: the vertices whose in-node but not out-node
  /// is reachable from out(s) in the residual network of a maximum flow.
  /// That set is the same for every maximum flow.
  std::vector<VertexId> MinCut(VertexId s, VertexId t) {
    const size_t flow = Paths(s, t, std::numeric_limits<size_t>::max());
    GMS_CHECK(!Augment(s, t));  // leaves the residual reachable set stamped
    std::vector<VertexId> cut;
    for (VertexId v = 0; v < n_; ++v) {
      if (v != s && v != t && stamp_[2 * v] == epoch_ &&
          stamp_[2 * v + 1] != epoch_) {
        cut.push_back(v);
      }
    }
    GMS_CHECK_MSG(cut.size() == flow, "residual cut size mismatch");
    return cut;
  }

 private:
  static constexpr uint32_t kVertexArc = std::numeric_limits<uint32_t>::max();

  void ClearFlow() {
    for (uint32_t a : touched_arcs_) eflow_[a] = 0;
    for (uint32_t v : touched_vertices_) vflow_[v] = 0;
    touched_arcs_.clear();
    touched_vertices_.clear();
  }

  // One BFS from out(s) over the residual network; on reaching in(t),
  // pushes one unit along the BFS path and returns true.
  bool Augment(VertexId s, VertexId t) {
    if (++epoch_ == 0) {  // wrapped: old marks could alias the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    const uint32_t src = 2 * s + 1, sink = 2 * t;
    size_t head = 0, tail = 0;
    stamp_[src] = epoch_;
    queue_[tail++] = src;
    auto visit = [&](uint32_t x, uint32_t from, uint32_t arc) {
      if (stamp_[x] == epoch_) return false;
      stamp_[x] = epoch_;
      parent_[x] = from;
      parent_arc_[x] = arc;
      queue_[tail++] = x;
      return x == sink;
    };
    bool found = false;
    while (!found && head < tail) {
      const uint32_t x = queue_[head++];
      const VertexId v = x >> 1;
      if (x & 1) {
        // out(v): back across v's vertex arc if it carries flow, then
        // forward along every edge arc (uncapacitated).
        if (vflow_[v]) visit(2 * v, x, kVertexArc);
        for (uint32_t a = offset_[v]; a < offset_[v + 1] && !found; ++a) {
          found = visit(2 * nbr_[a], x, a);
        }
      } else if (!vflow_[v]) {
        // in(v) with v's vertex arc free: no flow enters in(v) either.
        visit(2 * v + 1, x, kVertexArc);
      } else {
        // in(v) with its vertex arc saturated: back along the one edge arc
        // u -> v that carries the unit into v.
        for (uint32_t a = offset_[v]; a < offset_[v + 1]; ++a) {
          if (eflow_[rev_[a]]) visit(2 * nbr_[a] + 1, x, a);
        }
      }
    }
    if (!found) return false;
    for (uint32_t x = sink; x != src; x = parent_[x]) {
      const uint32_t a = parent_arc_[x];
      if (a == kVertexArc) {
        vflow_[x >> 1] = x & 1;  // forward into out(v), backward into in(v)
        touched_vertices_.push_back(x >> 1);
      } else if (x & 1) {
        eflow_[rev_[a]] = 0;  // in(v) -> out(u) cancels the flow on u -> v
      } else {
        // out(u) -> in(v) is never the reverse of out(v) -> in(u): both
        // may carry flow, a harmless circulation that ClearFlow undoes.
        eflow_[a] = 1;
        touched_arcs_.push_back(a);
      }
    }
    return true;
  }

  size_t n_;
  std::vector<uint32_t> offset_;  // v's arcs: [offset_[v], offset_[v + 1])
  std::vector<VertexId> nbr_;     // head of each directed edge arc
  std::vector<uint32_t> rev_;     // index of the opposite direction
  std::vector<uint8_t> vflow_;    // flow on in(v) -> out(v)
  std::vector<uint8_t> eflow_;    // flow on out(u) -> in(nbr_[a])
  std::vector<uint32_t> touched_arcs_, touched_vertices_;
  // BFS workspace over the 2n nodes.
  std::vector<uint32_t> stamp_, parent_, parent_arc_, queue_;
  uint32_t epoch_ = 0;
};

}  // namespace

int64_t VertexDisjointPaths(const Graph& g, VertexId u, VertexId v,
                            int64_t limit) {
  GMS_CHECK(u != v);
  GMS_CHECK_MSG(!g.HasEdge(u, v),
                "vertex cut undefined for adjacent endpoints");
  SplitNetwork net(g);
  const size_t cap = limit < 0 ? std::numeric_limits<size_t>::max()
                               : static_cast<size_t>(limit);
  return static_cast<int64_t>(net.Paths(u, v, cap));
}

size_t VertexConnectivity(const Graph& g) {
  size_t n = g.NumVertices();
  if (n <= 1) return 0;
  if (!IsConnected(g)) return 0;
  SplitNetwork net(g);
  size_t ans = n - 1;
  // Even-Tarjan schedule: pair v_0..v_{ans} against every non-neighbor.
  // Any minimum separator S (|S| = kappa) misses some v_i with i <= kappa,
  // and v_i has a non-neighbor across S, so the loop finds kappa.
  for (VertexId i = 0; i < n && static_cast<size_t>(i) <= ans; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i == j || g.HasEdge(i, j)) continue;
      ans = std::min(ans, net.Paths(i, j, ans));
    }
  }
  return ans;
}

bool IsKVertexConnected(const Graph& g, size_t k) {
  size_t n = g.NumVertices();
  if (k == 0) return true;
  if (n < k + 1) return false;
  if (g.MinDegree() < k) {
    // kappa <= delta always; quick reject (also handles disconnected).
    return false;
  }
  SplitNetwork net(g);
  for (VertexId i = 0; i < n && static_cast<size_t>(i) <= k; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i == j || g.HasEdge(i, j)) continue;
      if (net.Paths(i, j, k) < k) return false;
    }
  }
  return true;
}

std::optional<std::vector<VertexId>> MinimumVertexCut(const Graph& g) {
  size_t n = g.NumVertices();
  if (n <= 1) return std::nullopt;
  if (!IsConnected(g)) return std::vector<VertexId>{};
  SplitNetwork net(g);
  size_t best = n - 1;
  std::optional<std::pair<VertexId, VertexId>> best_pair;
  for (VertexId i = 0; i < n && static_cast<size_t>(i) <= best; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i == j || g.HasEdge(i, j)) continue;
      // Capping at `best` cannot hide an improvement: only paths < best
      // replaces the pair after the first.
      const size_t paths = net.Paths(i, j, best);
      if (!best_pair || paths < best) {
        best = paths;
        best_pair = {i, j};
      }
    }
  }
  if (!best_pair) return std::nullopt;  // complete graph
  // Re-run the winning pair uncapped and read the cut off the residual.
  return net.MinCut(best_pair->first, best_pair->second);
}

namespace {

// Shared subset-odometer search for the smallest disconnecting set.
template <typename G>
size_t BruteForceKappa(const G& g) {
  size_t n = g.NumVertices();
  GMS_CHECK_MSG(n <= 22, "brute force limited to tiny graphs");
  if (n <= 1) return 0;
  if (!IsConnected(g)) return 0;
  for (size_t size = 1; size <= n - 2; ++size) {
    std::vector<VertexId> pick(size);
    std::iota(pick.begin(), pick.end(), 0);
    while (true) {
      if (!IsConnectedExcluding(g, pick)) return size;
      size_t i = size;
      while (i > 0 && pick[i - 1] == n - size + (i - 1)) --i;
      if (i == 0) break;
      ++pick[i - 1];
      for (size_t j = i; j < size; ++j) pick[j] = pick[j - 1] + 1;
    }
  }
  return n - 1;
}

}  // namespace

size_t VertexConnectivityBrute(const Graph& g) { return BruteForceKappa(g); }

size_t VertexConnectivityBrute(const Hypergraph& g) {
  return BruteForceKappa(g);
}

}  // namespace gms
