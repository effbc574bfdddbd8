#include "exact/hypergraph_mincut.h"

#include <algorithm>
#include <iterator>
#include <queue>

#include "util/check.h"

namespace gms {

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

}  // namespace

HypergraphCut HypergraphMinCut(size_t n, const std::vector<Hyperedge>& edges,
                               const std::vector<double>& weights) {
  GMS_CHECK(n >= 2);
  GMS_CHECK(edges.size() == weights.size());
  for (double w : weights) GMS_CHECK_MSG(w >= 0, "negative or NaN weight");
  const size_t m = edges.size();
  // Each hyperedge projected onto the current supernodes: pins[begin[i],
  // begin[i] + size[i]) holds its distinct supernode ids, ascending. An
  // edge that collapses into one supernode gets size 0 and is dropped from
  // every incidence list for good.
  std::vector<uint32_t> pins, begin(m), size(m);
  std::vector<std::vector<uint32_t>> incident(n);  // live edge ids, ascending
  for (size_t i = 0; i < m; ++i) {
    begin[i] = static_cast<uint32_t>(pins.size());
    pins.insert(pins.end(), edges[i].begin(), edges[i].end());
    const auto first = pins.begin() + begin[i];
    std::sort(first, pins.end());
    pins.erase(std::unique(first, pins.end()), pins.end());
    size[i] = static_cast<uint32_t>(pins.end() - first);
    if (size[i] < 2) {
      pins.resize(begin[i]);
      size[i] = 0;
      continue;
    }
    for (auto it = first; it != pins.end(); ++it) {
      incident[*it].push_back(static_cast<uint32_t>(i));
    }
  }
  std::vector<std::vector<uint32_t>> merged(n);
  for (size_t v = 0; v < n; ++v) merged[v] = {static_cast<uint32_t>(v)};
  std::vector<uint32_t> alive(n);
  for (size_t v = 0; v < n; ++v) alive[v] = static_cast<uint32_t>(v);

  // Phase workspace. The next vertex of the maximum-adjacency order is the
  // one outside A with the largest key, ties to the smallest id -- the
  // vertex the reference's linear scan "first strictly larger key, in id
  // order" picks, so both return the same cut. A lazy-deletion max-heap on
  // (key, smallest id) holds every vertex whose key has grown, one entry
  // per raise. Keys only grow, so a vertex's newest entry surfaces before
  // its older ones, which are dropped when they surface with the vertex
  // already in A. Weights are >= 0, so a heap vertex beats every vertex
  // still at key 0; once the heap is empty, the next vertex is the
  // smallest live id outside A, found by a cursor over the ascending alive
  // list.
  struct Entry {
    double key;
    uint32_t id;
    bool operator<(const Entry& o) const {
      return key < o.key || (key == o.key && id > o.id);
    }
  };
  std::vector<double> key(n);
  std::vector<uint8_t> in_a(n);
  std::vector<uint32_t> cnt(m);
  std::vector<uint32_t> union_ids;

  HypergraphCut best;
  best.value = -1;

  while (alive.size() > 1) {
    // One maximum-adjacency (pendant-pair) phase; it starts at alive[0].
    for (uint32_t v : alive) {
      key[v] = 0;
      in_a[v] = 0;
    }
    std::priority_queue<Entry> heap;
    size_t cursor = 0;
    std::fill(cnt.begin(), cnt.end(), 0);
    uint32_t prev = alive[0], last = alive[0];
    for (size_t step = 0; step < alive.size(); ++step) {
      while (!heap.empty() && in_a[heap.top().id]) heap.pop();
      prev = last;
      if (!heap.empty()) {
        last = heap.top().id;
        heap.pop();
      } else {
        while (in_a[alive[cursor]]) ++cursor;
        last = alive[cursor];
      }
      in_a[last] = 1;
      for (uint32_t id : incident[last]) {
        const size_t c = cnt[id], s = size[id];
        const double delta =
            KeyVal(c + 1, s, weights[id]) - KeyVal(c, s, weights[id]);
        cnt[id] = static_cast<uint32_t>(c + 1);
        // +0 changes no key, and the one negative delta comes when the
        // edge's last pin joins A, leaving no pin outside A to update.
        if (delta <= 0) continue;
        for (uint32_t i = begin[id]; i < begin[id] + s; ++i) {
          const uint32_t u = pins[i];
          if (in_a[u]) continue;
          key[u] += delta;
          heap.push({key[u], u});
        }
      }
    }
    // Cut of the phase: delta({last}) in the contracted hypergraph.
    double cut_of_phase = 0;
    for (uint32_t id : incident[last]) cut_of_phase += weights[id];
    if (best.value < 0 || cut_of_phase < best.value) {
      best.value = cut_of_phase;
      best.side.assign(n, false);
      for (uint32_t orig : merged[last]) best.side[orig] = true;
    }
    // Contract last into prev: rewrite only the edges incident to last.
    for (uint32_t id : incident[last]) {
      uint32_t* const p = pins.data() + begin[id];
      uint32_t* const end = p + size[id];
      uint32_t* out = std::remove(p, end, last);
      if (std::find(p, out, prev) == out) {
        *out++ = prev;
        std::sort(p, out);
      }
      size[id] = static_cast<uint32_t>(out - p);
      if (size[id] < 2) size[id] = 0;
    }
    // incident[prev] := incident[prev] ∪ incident[last], minus dead edges.
    union_ids.clear();
    std::set_union(incident[prev].begin(), incident[prev].end(),
                   incident[last].begin(), incident[last].end(),
                   std::back_inserter(union_ids));
    std::erase_if(union_ids, [&](uint32_t id) { return size[id] == 0; });
    incident[prev].swap(union_ids);
    incident[last].clear();
    merged[prev].insert(merged[prev].end(), merged[last].begin(),
                        merged[last].end());
    alive.erase(std::find(alive.begin(), alive.end(), last));
  }
  // side is indexed by original vertex id already (size n).
  best.side.resize(n);
  return best;
}

HypergraphCut HypergraphMinCut(const Hypergraph& g) {
  std::vector<double> w(g.NumEdges(), 1.0);
  return HypergraphMinCut(g.NumVertices(), g.Edges(), w);
}

HypergraphCut HypergraphMinCutBrute(size_t n,
                                    const std::vector<Hyperedge>& edges,
                                    const std::vector<double>& weights) {
  GMS_CHECK(n >= 2 && n <= 24);
  HypergraphCut best;
  best.value = -1;
  for (uint64_t mask = 1; mask < (1ULL << (n - 1)); ++mask) {
    // Vertex n-1 always on the 0-side: enumerate each cut once.
    double value = 0;
    for (size_t i = 0; i < edges.size(); ++i) {
      bool any_in = false, any_out = false;
      for (VertexId v : edges[i]) {
        bool in = v < n - 1 && ((mask >> v) & 1);
        (in ? any_in : any_out) = true;
      }
      if (any_in && any_out) value += weights[i];
    }
    if (best.value < 0 || value < best.value) {
      best.value = value;
      best.side.assign(n, false);
      for (size_t v = 0; v + 1 < n; ++v) best.side[v] = (mask >> v) & 1;
    }
  }
  return best;
}

HypergraphCut HypergraphMinCutBrute(const Hypergraph& g) {
  std::vector<double> w(g.NumEdges(), 1.0);
  return HypergraphMinCutBrute(g.NumVertices(), g.Edges(), w);
}

}  // namespace gms
