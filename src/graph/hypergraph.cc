#include "graph/hypergraph.h"

#include <algorithm>

namespace gms {

std::string Hyperedge::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(vertices_[i]);
  }
  out += "}";
  return out;
}

Hypergraph Hypergraph::FromGraph(const Graph& g) {
  Hypergraph h(g.NumVertices());
  for (const Edge& e : g.Edges()) h.AddEdge(Hyperedge(e));
  return h;
}

Hypergraph Hypergraph::FromDistinctEdges(size_t n,
                                         std::vector<Hyperedge> edges) {
  GMS_CHECK_MSG(edges.size() < (size_t{1} << 32), "too many hyperedges");
  Hypergraph h(n);
  // reserve(0) would still allocate a bucket array; an empty graph (every
  // fresh sketch's first snapshot) keeps the map's inline bucket.
  if (!edges.empty()) h.index_.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    GMS_CHECK_MSG(edges[i].vertices().back() < n,
                  "hyperedge vertex out of range");
    const auto idx = static_cast<uint32_t>(i);
    [[maybe_unused]] const bool inserted =
        h.index_.emplace(edges[i], idx).second;
    GMS_DCHECK(inserted);
    for (VertexId v : edges[i]) h.incident_[v].push_back(idx);
  }
  h.edges_ = std::move(edges);
  return h;
}

size_t Hypergraph::Rank() const {
  size_t r = 0;
  for (const auto& e : edges_) r = std::max(r, e.size());
  return r;
}

bool Hypergraph::AddEdge(const Hyperedge& e) {
  GMS_CHECK_MSG(e.vertices().back() < NumVertices(),
                "hyperedge vertex out of range");
  auto [it, inserted] =
      index_.emplace(e, static_cast<uint32_t>(edges_.size()));
  if (!inserted) return false;
  edges_.push_back(e);
  uint32_t idx = it->second;
  for (VertexId v : e) incident_[v].push_back(idx);
  return true;
}

bool Hypergraph::RemoveEdge(const Hyperedge& e) {
  auto it = index_.find(e);
  if (it == index_.end()) return false;
  uint32_t idx = it->second;
  uint32_t last = static_cast<uint32_t>(edges_.size()) - 1;

  auto erase_incidence = [&](const Hyperedge& edge, uint32_t edge_idx) {
    for (VertexId v : edge) {
      auto& list = incident_[v];
      list.erase(std::find(list.begin(), list.end(), edge_idx));
    }
  };

  erase_incidence(e, idx);
  index_.erase(it);
  if (idx != last) {
    // Move the last edge into the vacated slot and rewrite its references.
    Hyperedge moved = edges_[last];
    erase_incidence(moved, last);
    edges_[idx] = moved;
    index_[moved] = idx;
    for (VertexId v : moved) incident_[v].push_back(idx);
  }
  edges_.pop_back();
  return true;
}

void Hypergraph::AddAll(const Hypergraph& other) {
  GMS_CHECK(other.NumVertices() == NumVertices());
  for (const auto& e : other.Edges()) AddEdge(e);
}

Hypergraph Hypergraph::InducedExcluding(
    const std::vector<VertexId>& removed) const {
  std::vector<bool> gone(NumVertices(), false);
  for (VertexId v : removed) {
    GMS_CHECK(v < NumVertices());
    gone[v] = true;
  }
  Hypergraph out(NumVertices());
  for (const auto& e : edges_) {
    bool keep = true;
    for (VertexId v : e) {
      if (gone[v]) {
        keep = false;
        break;
      }
    }
    if (keep) out.AddEdge(e);
  }
  return out;
}

bool Hypergraph::operator==(const Hypergraph& other) const {
  if (NumVertices() != other.NumVertices()) return false;
  if (NumEdges() != other.NumEdges()) return false;
  for (const auto& e : edges_) {
    if (!other.HasEdge(e)) return false;
  }
  return true;
}

Graph Hypergraph::ToGraph() const {
  Graph g(NumVertices());
  for (const auto& e : edges_) {
    GMS_CHECK_MSG(e.IsGraphEdge(), "hyperedge of cardinality > 2");
    g.AddEdge(e.AsEdge());
  }
  return g;
}

size_t Hypergraph::CutSize(const std::vector<bool>& in_s) const {
  GMS_CHECK(in_s.size() == NumVertices());
  size_t count = 0;
  for (const auto& e : edges_) {
    bool any_in = false, any_out = false;
    for (VertexId v : e) {
      (in_s[v] ? any_in : any_out) = true;
      if (any_in && any_out) break;
    }
    if (any_in && any_out) ++count;
  }
  return count;
}

}  // namespace gms
