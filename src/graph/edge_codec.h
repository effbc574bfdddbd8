// Combinadic codec between hyperedges and coordinate indices.
//
// The paper's incidence vectors a^i live in dimension d = sum_{s=2..r} C(n,s)
// (Section 4.1): one coordinate per possible hyperedge of cardinality 2..r.
// This space is never materialized; sketches address it through this codec,
// which ranks a canonical hyperedge into a u128 index (sizes blocked
// consecutively, colexicographic rank within a size class) and unranks
// indices back to hyperedges. Pairs unrank in O(1) (closed form); larger
// hyperedges unrank, and all hyperedges rank, in O(r log n).
#ifndef GMS_GRAPH_EDGE_CODEC_H_
#define GMS_GRAPH_EDGE_CODEC_H_

#include <vector>

#include "graph/edge.h"
#include "util/status.h"
#include "util/uint128.h"

namespace gms {

/// C(m, j) as u128, saturating at U128_MAX on overflow.
u128 Binomial(uint64_t m, unsigned j);

class EdgeCodec {
 public:
  /// Codec for hyperedges over n <= 2^32 vertices (ids are 32-bit) with
  /// cardinality in [2, max_rank].
  /// max_rank is clamped to n (larger ranks are unrealizable and add no
  /// coordinates), so max_rank() always satisfies the wire-format shape
  /// validation. CHECK-fails if the domain does not fit in 126 bits.
  EdgeCodec(size_t n, size_t max_rank);

  /// The domain a codec for (n, max_rank) would have, as a Status instead
  /// of the constructor's CHECK: wire-sourced shapes are validated with
  /// this BEFORE any codec (or sketch) is constructed, so hostile
  /// (n, max_rank) pairs surface as InvalidArgument rather than an abort.
  /// O(min(max_rank, 126)) time, no allocation.
  static Result<u128> DomainSizeFor(size_t n, size_t max_rank);

  size_t n() const { return n_; }
  size_t max_rank() const { return max_rank_; }

  /// Total number of coordinates d = sum_{s=2..r} C(n, s).
  u128 DomainSize() const { return domain_size_; }

  /// Rank a canonical hyperedge into [0, DomainSize()).
  u128 Encode(const Hyperedge& e) const;

  /// Unrank. Returns InvalidArgument for out-of-range indices.
  Result<Hyperedge> Decode(u128 index) const;

 private:
  size_t n_;
  size_t max_rank_;
  u128 domain_size_;
  // offset_[s] = first index of the size-s block, for s in [2, max_rank].
  std::vector<u128> offset_;
};

}  // namespace gms

#endif  // GMS_GRAPH_EDGE_CODEC_H_
