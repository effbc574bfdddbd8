#include "sketch/sparse_recovery.h"

#include <algorithm>

#include "util/check.h"
#include "util/random.h"

namespace gms {

void SparseBufferAdd(std::vector<SparseEntry>* buf, u128 key,
                     int64_t weight) {
  auto it = std::lower_bound(
      buf->begin(), buf->end(), key,
      [](const SparseEntry& entry, u128 k) { return entry.index < k; });
  if (it != buf->end() && it->index == key) {
    it->value = static_cast<int64_t>(static_cast<uint64_t>(it->value) +
                                     static_cast<uint64_t>(weight));
    if (it->value == 0) buf->erase(it);
  } else {
    buf->insert(it, SparseEntry{key, weight});
  }
}

FingerprintBasis::FingerprintBasis(uint64_t z) : z_(z) {
  GMS_CHECK(z >= 1 && z < kMersenne61);
  // Window w holds z^(256^w * d) for d in [0, 256), so z^e is the product
  // of one entry per base-256 digit of e. Each window is a running product
  // seeded by the previous window's 256th power.
  uint64_t base = z_;  // z^(256^w)
  for (int w = 0; w < kWindows; ++w) {
    uint64_t* row = &table_[static_cast<size_t>(w) * kDigits];
    row[0] = 1;
    for (int d = 1; d < kDigits; ++d) row[d] = FpMul(row[d - 1], base);
    base = FpMul(row[kDigits - 1], base);
  }
}

SSparseShape::SSparseShape(u128 domain, int capacity, int rows, int buckets,
                           uint64_t seed)
    : domain_(domain), capacity_(capacity), rows_(rows), buckets_(buckets) {
  GMS_CHECK(capacity >= 1 && rows >= 1 && buckets >= 1);
  GMS_CHECK(rows <= kMaxSketchRows);
  GMS_CHECK_MSG((domain >> 126) == 0, "domain exceeds 126 bits");
  Rng rng(seed);
  // Uniform nonzero field element; same draw position as the pre-basis
  // kernel so the row hashes below see an unchanged seed sequence.
  basis_ = std::make_shared<FingerprintBasis>(rng.Below(kMersenne61 - 2) + 1);
  row_hash_.reserve(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    row_hash_.emplace_back(/*independence=*/2, rng.Fork());
  }
}

SSparseShape::SSparseShape(u128 domain, int capacity, int rows, int buckets,
                           uint64_t seed,
                           std::shared_ptr<const FingerprintBasis> basis)
    : domain_(domain),
      capacity_(capacity),
      rows_(rows),
      buckets_(buckets),
      basis_(std::move(basis)) {
  GMS_CHECK(capacity >= 1 && rows >= 1 && buckets >= 1);
  GMS_CHECK(rows <= kMaxSketchRows);
  GMS_CHECK_MSG((domain >> 126) == 0, "domain exceeds 126 bits");
  GMS_CHECK(basis_ != nullptr);
  Rng rng(seed);
  row_hash_.reserve(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) {
    row_hash_.emplace_back(/*independence=*/2, rng.Fork());
  }
}

void SSparseSegmentAdd(const SSparseShape& shape, uint64_t* seg,
                       const uint64_t* other) {
  const size_t cells = static_cast<size_t>(shape.NumCells());
  uint64_t* w = seg;
  uint64_t* il = w + cells;
  uint64_t* ih = il + cells;
  uint64_t* fp = ih + cells;
  const uint64_t* ow = other;
  const uint64_t* oil = ow + cells;
  const uint64_t* oih = oil + cells;
  const uint64_t* ofp = oih + cells;
  for (size_t i = 0; i < cells; ++i) w[i] += ow[i];
  for (size_t i = 0; i < cells; ++i) {
    const uint64_t nl = il[i] + oil[i];
    ih[i] += oih[i] + (nl < il[i] ? 1 : 0);
    il[i] = nl;
  }
  for (size_t i = 0; i < cells; ++i) fp[i] = FpAdd(fp[i], ofp[i]);
}

SSparseState::SSparseState(const SSparseShape* shape)
    : shape_(shape), buf_(SSparseSegmentWords(*shape), 0) {}

void SSparseState::Add(const SSparseState& other) {
  GMS_CHECK_MSG(shape_ == other.shape_, "adding states of different shapes");
  SSparseSegmentAdd(*shape_, buf_.data(), other.buf_.data());
}

bool SSparseState::IsZero() const {
  // Every component of a zero cell is a zero word, so the whole buffer
  // being zero is exactly "all cells zero" -- one linear scan.
  return std::all_of(buf_.begin(), buf_.end(),
                     [](uint64_t v) { return v == 0; });
}

int DecodeOneSparse(const OneSparseCell& cell, const SSparseShape& shape,
                    SparseEntry* out) {
  if (cell.IsZero()) return 0;
  if (cell.weight == 0) return -1;
  i128 s = static_cast<i128>(cell.index_sum);
  i128 w = cell.weight;
  if (s % w != 0) return -1;
  i128 idx = s / w;
  if (idx < 0 || static_cast<u128>(idx) >= shape.domain()) return -1;
  u128 index = static_cast<u128>(idx);
  uint64_t expect =
      FpMul(FpFromInt64(cell.weight), shape.FingerprintPower(index));
  if (expect != cell.fingerprint) return -1;
  out->index = index;
  out->value = cell.weight;
  return 1;
}

Result<std::vector<SparseEntry>> SSparseDecoder::Decode(
    const SSparseShape& shape, const uint64_t* seg) {
  const size_t cells = static_cast<size_t>(shape.NumCells());
  const int rows = shape.rows();
  const int buckets = shape.buckets();
  // Copy into owned scratch (assign reuses capacity: no allocation when
  // this decoder is reused, which the Decode() thread_local guarantees).
  scratch_.assign(seg, seg + 4 * cells);
  uint64_t* w = scratch_.data();
  uint64_t* il = w + cells;
  uint64_t* ih = il + cells;
  uint64_t* fp = ih + cells;
  auto cell_zero = [&](size_t i) {
    return (w[i] | il[i] | ih[i] | fp[i]) == 0;
  };
  // Count of nonzero cells, maintained incrementally as items are peeled,
  // so the termination test is O(1) per iteration instead of a full scan.
  size_t nonzero = 0;
  for (size_t i = 0; i < cells; ++i) nonzero += cell_zero(i) ? 0 : 1;

  std::vector<SparseEntry> recovered;
  // Peel: repeatedly find a decodable 1-sparse cell whose claimed index
  // actually routes to that cell, remove the item everywhere, repeat.
  const int max_iters = shape.capacity() * 4 + 8;
  for (int iter = 0; iter < max_iters; ++iter) {
    if (nonzero == 0) {
      // Merge duplicate extractions (an index can be peeled twice if a
      // ghost decode temporarily drove it negative).
      std::sort(recovered.begin(), recovered.end(),
                [](const SparseEntry& a, const SparseEntry& b) {
                  return a.index < b.index;
                });
      std::vector<SparseEntry> merged;
      for (const auto& e : recovered) {
        if (!merged.empty() && merged.back().index == e.index) {
          merged.back().value += e.value;
        } else {
          merged.push_back(e);
        }
      }
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [](const SparseEntry& e) {
                                    return e.value == 0;
                                  }),
                   merged.end());
      return merged;
    }
    bool progress = false;
    for (int r = 0; r < rows && !progress; ++r) {
      for (int b = 0; b < buckets && !progress; ++b) {
        const size_t i = static_cast<size_t>(r) * buckets + b;
        if (cell_zero(i)) continue;
        OneSparseCell cell;
        cell.weight = static_cast<int64_t>(w[i]);
        cell.index_sum = (static_cast<u128>(ih[i]) << 64) | il[i];
        cell.fingerprint = fp[i];
        SparseEntry entry;
        if (DecodeOneSparse(cell, shape, &entry) != 1) continue;
        const PreparedCoord pc = PrepareCoord(entry.index);
        if (shape.BucketFolded(r, pc.fold) != b) continue;  // ghost guard
        // Subtract the item from every row.
        const uint64_t fp_delta =
            FpMul(FpFromInt64(entry.value),
                  shape.FingerprintPowerFromExp(pc.exponent));
        const u128 is_delta =
            entry.index * static_cast<u128>(static_cast<i128>(entry.value));
        const uint64_t is_lo = static_cast<uint64_t>(is_delta);
        const uint64_t is_hi = static_cast<uint64_t>(is_delta >> 64);
        for (int rr = 0; rr < rows; ++rr) {
          const size_t j =
              static_cast<size_t>(rr) * buckets +
              static_cast<size_t>(shape.BucketFolded(rr, pc.fold));
          const bool was_nonzero = !cell_zero(j);
          w[j] -= static_cast<uint64_t>(entry.value);
          const uint64_t nl = il[j] - is_lo;
          ih[j] -= is_hi + (il[j] < is_lo ? 1 : 0);
          il[j] = nl;
          fp[j] = FpSub(fp[j], fp_delta);
          nonzero += (cell_zero(j) ? 0 : 1) - (was_nonzero ? 1 : 0);
        }
        recovered.push_back(entry);
        progress = true;
      }
    }
    if (!progress && nonzero != 0) {
      return Status::DecodeFailure("sparse-recovery peeling stuck");
    }
  }
  return Status::DecodeFailure("sparse-recovery iteration cap reached");
}

Result<std::vector<SparseEntry>> SSparseState::Decode() const {
  // One decoder per thread: Decode() is const and read-only on the state,
  // and concurrent decodes (the parallel extraction path) each reuse their
  // own thread's scratch.
  static thread_local SSparseDecoder decoder;
  return decoder.Decode(*shape_, buf_.data());
}

}  // namespace gms
