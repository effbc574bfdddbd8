#include "testkit/forest_reference.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/union_find.h"
#include "util/parallel.h"

namespace gms {
namespace testkit {

QueryResult<Hypergraph> ExtractSpanningGraphReference(
    const SpanningForestSketch& s, size_t threads) {
  if (threads == 0) threads = s.params_.threads;
  ExtractStats stats;
  if (s.num_active_ <= 1) {
    return QueryResult<Hypergraph>(Hypergraph(s.n_), std::move(stats));
  }
  UnionFind uf(s.n_);
  std::vector<Hyperedge> forest;
  if (s.Hybrid()) stats.edges_found += s.SparsePreRound(&uf, &forest);
  std::vector<VertexId> active_vertices;
  for (VertexId v = 0; v < s.n_; ++v) {
    if (s.IsActive(v)) active_vertices.push_back(v);
  }

  std::atomic<uint64_t> summed_words{0};
  std::atomic<uint64_t> entries_replayed{0};
  std::atomic<uint64_t> sample_attempts{0};
  std::atomic<uint64_t> decode_attempts{0};
  std::atomic<bool> round_saw_nonzero{false};
  std::vector<std::vector<VertexId>> groups;
  std::vector<int64_t> comp(s.n_, -1);
  std::vector<int64_t> dense(s.n_, -1);

  for (int t = 0; t < s.rounds_; ++t) {
    groups.clear();
    std::fill(comp.begin(), comp.end(), -1);
    std::fill(dense.begin(), dense.end(), -1);
    for (VertexId v : active_vertices) {
      const VertexId r = uf.Find(v);
      if (dense[r] < 0) {
        dense[r] = static_cast<int64_t>(groups.size());
        groups.emplace_back();
      }
      comp[v] = dense[r];
      groups[static_cast<size_t>(dense[r])].push_back(v);
    }
    stats.rounds_run = t + 1;
    stats.groups_per_round.push_back(groups.size());
    if (groups.size() <= 1) break;

    const L0Shape& shape = *s.round_shapes_[static_cast<size_t>(t)];
    std::vector<Hyperedge> found(groups.size());
    std::vector<char> has_found(groups.size(), 0);
    round_saw_nonzero.store(false, std::memory_order_relaxed);
    ParallelForAligned(
        threads, groups.size(), /*grain=*/64, [&](size_t begin, size_t end) {
          std::vector<uint64_t> acc(s.state_words_);
          uint64_t local_samples = 0, local_decodes = 0;
          uint64_t local_words = 0, local_entries = 0;
          bool local_nonzero = false;
          for (size_t g = begin; g < end; ++g) {
            const auto& group = groups[g];
            const uint64_t* src = s.ArenaAt(group[0], t);
            if (group.size() > 1) {
              // Re-sum every member from an explicit zero block, each
              // sparse member by replaying its whole buffer.
              std::memset(acc.data(), 0, s.state_words_ * sizeof(uint64_t));
              for (VertexId member : group) {
                const size_t ord = static_cast<size_t>(s.state_index_[member]);
                if (s.Escalated(ord)) {
                  L0AddRaw(shape, acc.data(), s.ColAt(ord, t));
                  continue;
                }
                uint64_t scratch_mask = 0;
                s.ReplayEntries(s.buffers_[ord], t, t + 1, acc.data(),
                                &scratch_mask);
                local_entries += s.buffers_[ord].size();
              }
              local_words += group.size() * s.state_words_;
              src = acc.data();
            }
            // Dense scans throughout (mask ~0): the masked production
            // reads must match them.
            L0SampleProbe probe;
            Hyperedge e;
            ++local_samples;
            if (s.SampleGroupEdge(t, src, ~uint64_t{0}, comp, g, &e,
                                  &probe)) {
              found[g] = std::move(e);
              has_found[g] = 1;
            }
            local_decodes += static_cast<uint64_t>(probe.decode_attempts);
            local_nonzero |= probe.saw_nonzero;
          }
          sample_attempts.fetch_add(local_samples, std::memory_order_relaxed);
          decode_attempts.fetch_add(local_decodes, std::memory_order_relaxed);
          summed_words.fetch_add(local_words, std::memory_order_relaxed);
          entries_replayed.fetch_add(local_entries, std::memory_order_relaxed);
          if (local_nonzero) {
            round_saw_nonzero.store(true, std::memory_order_relaxed);
          }
        });

    size_t merges = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (!has_found[g]) continue;
      Hyperedge& e = found[g];
      bool merged = false;
      for (size_t i = 1; i < e.size(); ++i) merged |= uf.Union(e[0], e[i]);
      if (merged) {
        forest.push_back(std::move(e));
        ++merges;
      }
    }
    stats.edges_found += merges;
    if (merges == 0) {
      if (!round_saw_nonzero.load(std::memory_order_relaxed)) {
        stats.early_exit = true;
        break;
      }
    }
  }
  stats.summed_words = summed_words.load(std::memory_order_relaxed);
  stats.sparse_entries_replayed =
      entries_replayed.load(std::memory_order_relaxed);
  stats.sample_attempts = sample_attempts.load(std::memory_order_relaxed);
  stats.decode_attempts = decode_attempts.load(std::memory_order_relaxed);
  return QueryResult<Hypergraph>(
      Hypergraph::FromDistinctEdges(s.n_, std::move(forest)),
      std::move(stats));
}

}  // namespace testkit
}  // namespace gms
