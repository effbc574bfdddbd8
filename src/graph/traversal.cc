#include "graph/traversal.h"

#include <algorithm>

#include "graph/union_find.h"

namespace gms {

std::vector<uint32_t> ConnectedComponents(const Graph& g) {
  UnionFind uf(g.NumVertices());
  for (const Edge& e : g.Edges()) uf.Union(e.u(), e.v());
  return uf.ComponentIds();
}

std::vector<uint32_t> ConnectedComponents(const Hypergraph& g) {
  UnionFind uf(g.NumVertices());
  for (const auto& e : g.Edges()) {
    for (size_t i = 1; i < e.size(); ++i) uf.Union(e[0], e[i]);
  }
  return uf.ComponentIds();
}

namespace {
template <typename G>
size_t NumComponentsImpl(const G& g) {
  auto ids = ConnectedComponents(g);
  uint32_t max_id = 0;
  for (uint32_t id : ids) max_id = std::max(max_id, id);
  return ids.empty() ? 0 : static_cast<size_t>(max_id) + 1;
}
}  // namespace

size_t NumComponents(const Graph& g) { return NumComponentsImpl(g); }
size_t NumComponents(const Hypergraph& g) { return NumComponentsImpl(g); }

bool IsConnected(const Graph& g) {
  return g.NumVertices() <= 1 || NumComponents(g) == 1;
}
bool IsConnected(const Hypergraph& g) {
  return g.NumVertices() <= 1 || NumComponents(g) == 1;
}

bool IsConnectedExcluding(const Graph& g,
                          const std::vector<VertexId>& removed) {
  // One BFS over the adjacency from the first surviving vertex; connected
  // iff it reaches every survivor.
  const size_t n = g.NumVertices();
  std::vector<uint8_t> seen(n, 0);  // removed vertices count as seen
  size_t survivors = n;
  for (VertexId v : removed) {
    if (!seen[v]) --survivors;
    seen[v] = 1;
  }
  if (survivors <= 1) return true;
  std::vector<VertexId> queue(survivors);
  size_t head = 0, tail = 0;
  VertexId first = 0;
  while (seen[first]) ++first;
  seen[first] = 1;
  queue[tail++] = first;
  while (head < tail) {
    for (VertexId v : g.Neighbors(queue[head++])) {
      if (seen[v]) continue;
      seen[v] = 1;
      queue[tail++] = v;
    }
  }
  return tail == survivors;
}

bool IsConnectedExcluding(const Hypergraph& g,
                          const std::vector<VertexId>& removed) {
  std::vector<bool> gone(g.NumVertices(), false);
  for (VertexId v : removed) gone[v] = true;
  UnionFind uf(g.NumVertices());
  for (const auto& e : g.Edges()) {
    bool alive = true;
    for (VertexId v : e) alive &= !gone[v];
    if (!alive) continue;
    for (size_t i = 1; i < e.size(); ++i) uf.Union(e[0], e[i]);
  }
  VertexId first = 0;
  bool seen_first = false;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (gone[v]) continue;
    if (!seen_first) {
      first = v;
      seen_first = true;
    } else if (!uf.Connected(first, v)) {
      return false;
    }
  }
  return true;
}

Graph SpanningForest(const Graph& g) {
  Graph forest(g.NumVertices());
  UnionFind uf(g.NumVertices());
  for (const Edge& e : g.Edges()) {
    if (uf.Union(e.u(), e.v())) forest.AddEdge(e);
  }
  return forest;
}

Hypergraph SpanningSubhypergraph(const Hypergraph& g) {
  Hypergraph span(g.NumVertices());
  UnionFind uf(g.NumVertices());
  for (const auto& e : g.Edges()) {
    bool useful = false;
    for (size_t i = 1; i < e.size(); ++i) {
      if (uf.Union(e[0], e[i])) useful = true;
    }
    if (useful) span.AddEdge(e);
  }
  return span;
}

std::vector<uint32_t> BridgeHyperedgeIndices(const Hypergraph& g) {
  // Articulation points of the bipartite incidence graph B: nodes
  // [0, n) are g's vertices, node n + i is hyperedge i, and B links a
  // hyperedge node to each of its member vertices. A component of B
  // always contains vertex nodes (hyperedge nodes have degree >= 2), so
  // components of B restricted to vertex nodes are exactly components of
  // g, with or without any one hyperedge -- hence hyperedge i is a bridge
  // of g iff node n + i is an articulation point of B.
  const size_t n = g.NumVertices();
  const auto& edges = g.Edges();
  const size_t total = n + edges.size();
  std::vector<uint32_t> out;
  if (edges.empty()) return out;

  // Neighbor j of node x, materialized lazily from the incidence lists.
  auto neighbor_count = [&](size_t x) {
    return x < n ? g.IncidentIndices(static_cast<VertexId>(x)).size()
                 : edges[x - n].size();
  };
  auto neighbor = [&](size_t x, size_t j) -> size_t {
    return x < n ? n + g.IncidentIndices(static_cast<VertexId>(x))[j]
                 : static_cast<size_t>(edges[x - n][j]);
  };

  constexpr uint32_t kUnvisited = 0xffffffffu;
  std::vector<uint32_t> disc(total, kUnvisited);
  std::vector<uint32_t> low(total, 0);
  std::vector<bool> is_cut(total, false);
  // Explicit DFS stack: (node, parent, next neighbor index to visit).
  struct Frame {
    uint32_t node;
    uint32_t parent;
    uint32_t next;
  };
  std::vector<Frame> stack;
  uint32_t time = 0;
  for (size_t root = 0; root < total; ++root) {
    if (disc[root] != kUnvisited) continue;
    size_t root_children = 0;
    disc[root] = low[root] = time++;
    stack.push_back({static_cast<uint32_t>(root), kUnvisited, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next < neighbor_count(f.node)) {
        const size_t w = neighbor(f.node, f.next++);
        if (disc[w] == kUnvisited) {
          if (f.node == root) ++root_children;
          disc[w] = low[w] = time++;
          stack.push_back({static_cast<uint32_t>(w), f.node, 0});
        } else if (w != f.parent) {
          low[f.node] = std::min(low[f.node], disc[w]);
        }
      } else {
        const Frame done = f;
        stack.pop_back();
        if (done.parent != kUnvisited) {
          low[done.parent] = std::min(low[done.parent], low[done.node]);
          if (done.parent != root && low[done.node] >= disc[done.parent]) {
            is_cut[done.parent] = true;
          }
        }
      }
    }
    if (root_children >= 2) is_cut[root] = true;
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    if (is_cut[n + i]) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

std::vector<Hyperedge> BridgeHyperedges(const Hypergraph& g) {
  std::vector<Hyperedge> out;
  for (uint32_t i : BridgeHyperedgeIndices(g)) out.push_back(g.Edges()[i]);
  return out;
}

}  // namespace gms
