#include "graph/edge_codec.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gms {

namespace {
constexpr u128 kU128Max = ~static_cast<u128>(0);
// Vertex ids are 32-bit, so a codec spans at most 2^32 vertices.
constexpr size_t kMaxVertices = size_t{1} << 32;
}  // namespace

u128 Binomial(uint64_t m, unsigned j) {
  if (j > m) return 0;
  if (j == 0) return 1;
  if (j > m - j) j = static_cast<unsigned>(m - j);
  u128 result = 1;
  for (unsigned i = 1; i <= j; ++i) {
    uint64_t factor = m - j + i;
    // result * factor / i is exact (prefix products of binomials are
    // integers); saturate if the multiply would overflow.
    if (result > kU128Max / factor) return kU128Max;
    result = result * factor / i;
  }
  return result;
}

Result<u128> EdgeCodec::DomainSizeFor(size_t n, size_t max_rank) {
  if (n < 2 || n > kMaxVertices || max_rank < 2 || max_rank > n) {
    return Status::InvalidArgument("edge codec: bad (n, max_rank)");
  }
  u128 total = 0;
  for (size_t s = 2; s <= max_rank; ++s) {
    u128 block = Binomial(n, static_cast<unsigned>(s));
    if (block == kU128Max || total > kU128Max - block ||
        ((total + block) >> 126) != 0) {
      // The early exit also bounds the loop: partial sums are monotone, so
      // at most ~126 size classes are ever summed before overflow triggers.
      return Status::InvalidArgument(
          "edge codec: coordinate domain exceeds 126 bits");
    }
    total += block;
  }
  return total;
}

EdgeCodec::EdgeCodec(size_t n, size_t max_rank)
    // Ranks above n are unrealizable (a hyperedge holds at most n distinct
    // vertices; C(n, s) = 0 for s > n), so clamping changes no coordinate.
    // It keeps the shape inside the stricter wire-side validation, which
    // rejects max_rank > n: without the clamp, a sketch constructed with
    // such a shape would serialize a frame its own Deserialize refuses.
    : n_(n), max_rank_(std::min(max_rank, n)) {
  GMS_CHECK_MSG(max_rank >= 2, "max_rank must be >= 2");
  GMS_CHECK_MSG(n >= 2, "need at least 2 vertices");
  GMS_CHECK_MSG(n <= kMaxVertices, "vertex ids are 32-bit");
  max_rank = max_rank_;
  offset_.assign(max_rank + 1, 0);
  u128 total = 0;
  for (size_t s = 2; s <= max_rank; ++s) {
    offset_[s] = total;
    u128 block = Binomial(n, static_cast<unsigned>(s));
    GMS_CHECK_MSG(block != kU128Max && total <= kU128Max - block,
                  "coordinate domain overflows u128");
    total += block;
  }
  GMS_CHECK_MSG((total >> 126) == 0, "coordinate domain exceeds 126 bits");
  domain_size_ = total;
}

u128 EdgeCodec::Encode(const Hyperedge& e) const {
  size_t s = e.size();
  GMS_CHECK_MSG(s >= 2 && s <= max_rank_, "hyperedge cardinality out of range");
  GMS_CHECK_MSG(e.vertices().back() < n_, "vertex id out of range");
  // Colexicographic rank: sum_i C(v_i, i+1) over sorted vertices.
  u128 rank = 0;
  for (size_t i = 0; i < s; ++i) {
    rank += Binomial(e[i], static_cast<unsigned>(i + 1));
  }
  return offset_[s] + rank;
}

Result<Hyperedge> EdgeCodec::Decode(u128 index) const {
  if (index >= domain_size_) {
    return Status::InvalidArgument("coordinate index out of range");
  }
  // Pairs unrank in closed form: v1 is the largest m with C(m, 2) <= r and
  // v0 = r - C(m, 2). With n <= 2^32, r < C(n, 2) < 2^63, so the seed is at
  // most 2^32 and m(m-1), m(m+1) fit in u64. The double sqrt only seeds m;
  // the exact integer comparisons below settle it, so rounding cannot reach
  // the result.
  const u128 pair_end = max_rank_ == 2 ? domain_size_ : offset_[3];
  if (index < pair_end) {
    const uint64_t r = static_cast<uint64_t>(index);
    uint64_t m = static_cast<uint64_t>(
        (1.0 + std::sqrt(8.0 * static_cast<double>(r) + 1.0)) / 2.0);
    while (m * (m - 1) / 2 > r) --m;
    while ((m + 1) * m / 2 <= r) ++m;
    return Hyperedge(Edge(static_cast<VertexId>(r - m * (m - 1) / 2),
                          static_cast<VertexId>(m)));
  }
  // Locate the size block (>= 3: pairs returned above).
  size_t s = max_rank_;
  for (size_t cand = 3; cand <= max_rank_; ++cand) {
    u128 end = (cand == max_rank_) ? domain_size_ : offset_[cand + 1];
    if (index < end) {
      s = cand;
      break;
    }
  }
  u128 rank = index - offset_[s];
  std::vector<VertexId> vs(s);
  // Greedy colex unranking from the largest position down.
  uint64_t upper = n_;  // exclusive bound for the next vertex
  for (size_t pos = s; pos >= 1; --pos) {
    // Largest m in [pos-1, upper) with C(m, pos) <= rank.
    uint64_t lo = static_cast<uint64_t>(pos) - 1, hi = upper - 1, best = lo;
    while (lo <= hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      if (Binomial(mid, static_cast<unsigned>(pos)) <= rank) {
        best = mid;
        lo = mid + 1;
      } else {
        if (mid == 0) break;
        hi = mid - 1;
      }
    }
    vs[pos - 1] = static_cast<VertexId>(best);
    rank -= Binomial(best, static_cast<unsigned>(pos));
    upper = best;
    if (pos == 1) break;
  }
  if (rank != 0) {
    return Status::Internal("combinadic unranking left a residue");
  }
  return Hyperedge(std::move(vs));
}

}  // namespace gms
