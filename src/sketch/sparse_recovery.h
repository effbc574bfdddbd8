// Exact sparse recovery of dynamically-updated integer vectors over a huge
// implicit index domain (up to 2^120 coordinates).
//
// OneSparseCell is the classic (sum, index-weighted sum, fingerprint)
// triple: it decodes a vector that is exactly 1-sparse and detects (whp,
// via a random-evaluation fingerprint over F_{2^61-1}) every other case.
// SSparseRecovery hashes coordinates into rows x buckets of cells and
// decodes any vector of support <= capacity by IBLT-style peeling.
//
// Shapes vs. states: an SSparseShape holds the hash functions and
// fingerprint randomness; an SSparseState holds only the cells. All states
// sharing a shape implement the SAME linear measurement, so states can be
// added coordinate-wise -- this is what makes per-vertex sketches summable
// across a component in the AGM decode loop, and what lets k-skeleton /
// light-edge recovery subtract previously-recovered subgraphs (Section 4).
//
// Update kernel (the hot path every stream update funnels through):
//   * Fingerprint powers z^(e mod p-1) come from a windowed power table
//     (FingerprintBasis: z^(256^w * d) for window w in [0,8), digit d in
//     [0,256)): one table load per base-256 digit of e up to its top
//     nonzero one (3 for a rank-2 key at n = 2^12) instead of a
//     ~60-multiply FpPow. The binary-exponentiation path survives as
//     testkit::FingerprintPowerRef for differential testing. A basis can
//     be SHARED by many shapes (the L0 sampler shares one across its
//     ~log(domain) levels) -- soundness only needs the per-cell
//     fingerprint collision bound, which is a union bound and does not
//     require independent z per level.
//   * Bucket choice is division-free (Lemire multiply-shift, FieldToBucket)
//     and each 128-bit key is folded to field halves ONCE per update
//     (FoldedKey / PreparedCoord), shared across all row hashes and the
//     sampler's level hash instead of re-folding per row. A caller that
//     prefetches before writing resolves the cells once (CellsFolded) and
//     hands the same indices to SSparseSegmentPrefetch and
//     SSparseSegmentApply.
//   * Cells are stored structure-of-arrays in one contiguous "segment" of
//     four equal uint64 arrays (weight | index_sum.lo | index_sum.hi |
//     fingerprint). The segment kernels (SSparseSegment*) operate on raw
//     buffers so containers (the L0 sampler) can pack MANY measurements
//     into one allocation; SSparseState wraps a single owned segment.
//     Decode peels on a per-thread reusable scratch buffer (SSparseDecoder)
//     instead of allocating a cell-array copy per call.
#ifndef GMS_SKETCH_SPARSE_RECOVERY_H_
#define GMS_SKETCH_SPARSE_RECOVERY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/field.h"
#include "util/hash.h"
#include "util/status.h"
#include "util/uint128.h"

namespace gms {

/// One recovered coordinate: (index, value).
struct SparseEntry {
  u128 index = 0;
  int64_t value = 0;

  friend bool operator==(const SparseEntry&, const SparseEntry&) = default;
};

/// Sorted-insert one signed update into an exact sparse buffer (ascending
/// index, net weights), erasing the entry when its net weight reaches
/// zero. The weight sum wraps (like every count cell in the dense kernel),
/// so buffer merging stays associative and commutative even for hostile
/// out-of-range weights; stream-reachable weights never wrap, which is
/// what the hybrid escalation bit-identity argument needs.
void SparseBufferAdd(std::vector<SparseEntry>* buf, u128 key,
                     int64_t weight);

/// The 1-sparse recovery triple as a value type (states store these
/// structure-of-arrays; this view is used by the 1-sparse decode probe).
struct OneSparseCell {
  u128 index_sum = 0;       // sum of index*value, wrapping mod 2^128
  int64_t weight = 0;       // sum of values
  uint64_t fingerprint = 0; // sum of value * z^index over F_p

  void AddCell(const OneSparseCell& o) {
    weight += o.weight;
    index_sum += o.index_sum;
    fingerprint = FpAdd(fingerprint, o.fingerprint);
  }
  bool IsZero() const {
    return weight == 0 && index_sum == 0 && fingerprint == 0;
  }

  friend bool operator==(const OneSparseCell&, const OneSparseCell&) = default;
};

/// A coordinate index with its shape-independent per-update derivations:
/// the folded field halves (shared by every row/level hash) and the
/// exponent index mod p-1 (shared by every shape's fingerprint table).
/// Containers ingesting one coordinate into many sketches prepare it once.
struct PreparedCoord {
  u128 index = 0;
  FoldedKey fold;
  uint64_t exponent = 0;  // index mod (p - 1)
};

inline PreparedCoord PrepareCoord(u128 index) {
  return PreparedCoord{index, FoldKey128(index), FpReduceExp(index)};
}

/// Fingerprint randomness: a uniform nonzero field element z plus the
/// windowed table of its powers, z^(256^w * d) for w in [0,8), d in
/// [0,256). 8 windows of 8 bits cover any exponent < 2^64 >= p - 1, so a
/// power is <= 8 table loads + 7 multiplies. 16 KiB, held inline; share
/// one basis across shapes whose fingerprints never mix (e.g. L0 levels)
/// to keep the hot tables small.
class FingerprintBasis {
 public:
  static constexpr int kWindows = 8;
  static constexpr int kDigits = 256;

  explicit FingerprintBasis(uint64_t z);

  uint64_t z() const { return z_; }

  /// z^e for a reduced exponent e = index mod (p-1): the windowed product,
  /// stopping at e's top nonzero byte. Every higher window's digit is 0 and
  /// would multiply by z^0 = 1, so the short product is bit-identical to
  /// the all-windows one: a rank-2 key at n = 2^12 takes 3 windows, at
  /// n = 2^16 it takes 4.
  uint64_t PowerFromExp(uint64_t e) const {
    const uint64_t* row = table_.data();
    uint64_t r = row[e & 0xff];
    for (e >>= 8; e != 0; e >>= 8) {
      row += kDigits;
      r = FpMul(r, row[e & 0xff]);
    }
    return r;
  }

  /// Table entry z^(256^window * digit) (reference evaluations read it).
  uint64_t Entry(int window, int digit) const {
    return table_[static_cast<size_t>(window) * kDigits +
                  static_cast<size_t>(digit)];
  }

 private:
  uint64_t z_;
  std::array<uint64_t, static_cast<size_t>(kWindows) * kDigits>
      table_;  // [window][digit] = z^(256^w * d)
};

/// Upper bound on rows per s-sparse structure (lets hot paths keep
/// resolved cell indices in a stack array). Far above any sensible config;
/// enforced at shape construction.
inline constexpr int kMaxSketchRows = 16;

/// Shared measurement definition for an s-sparse recovery structure.
class SSparseShape {
 public:
  /// domain: exclusive upper bound on coordinate indices (< 2^126).
  /// capacity: max support size decodable. rows/buckets control the peeling
  /// hash table (buckets should be >= 2 * capacity). Draws its own
  /// fingerprint basis from the seed.
  SSparseShape(u128 domain, int capacity, int rows, int buckets,
               uint64_t seed);

  /// As above but fingerprinting with a caller-provided (typically shared)
  /// basis; the seed feeds only the row hashes.
  SSparseShape(u128 domain, int capacity, int rows, int buckets, uint64_t seed,
               std::shared_ptr<const FingerprintBasis> basis);

  u128 domain() const { return domain_; }
  int capacity() const { return capacity_; }
  int rows() const { return rows_; }
  int buckets() const { return buckets_; }
  int NumCells() const { return rows_ * buckets_; }
  uint64_t z() const { return basis_->z(); }
  const FingerprintBasis& basis() const { return *basis_; }

  /// Bucket of `index` in row r.
  int Bucket(int row, u128 index) const {
    return BucketFolded(row, FoldKey128(index));
  }

  /// As Bucket with the key folded once by the caller (division-free
  /// Lemire reduction on the row hash's field output).
  int BucketFolded(int row, FoldedKey fold) const {
    return static_cast<int>(
        row_hash_[static_cast<size_t>(row)].EvalBelowFolded(
            fold, static_cast<uint32_t>(buckets_)));
  }

  /// Every row's target cell for a folded key: cell[r] = r * buckets +
  /// BucketFolded(r, fold), the row-major index within a segment. The
  /// write and prefetch kernels below take these indices, so a caller that
  /// prefetches before writing hashes each row once.
  void CellsFolded(FoldedKey fold, uint32_t* cell) const {
    for (int r = 0; r < rows_; ++r) {
      cell[r] = static_cast<uint32_t>(r * buckets_ + BucketFolded(r, fold));
    }
  }

  /// Row r's bucket hash (reference evaluations read its coefficients).
  const PolyHash& row_hash(int r) const {
    return row_hash_[static_cast<size_t>(r)];
  }

  /// z^(index mod p-1): the fingerprint basis value for a coordinate.
  uint64_t FingerprintPower(u128 index) const {
    return basis_->PowerFromExp(FpReduceExp(index));
  }

  /// As FingerprintPower with the exponent reduced once by the caller.
  uint64_t FingerprintPowerFromExp(uint64_t e) const {
    return basis_->PowerFromExp(e);
  }

 private:
  u128 domain_;
  int capacity_;
  int rows_;
  int buckets_;
  std::shared_ptr<const FingerprintBasis> basis_;
  std::vector<PolyHash> row_hash_;
};

// ---------------------------------------------------------------------------
// Raw segment kernels. A "segment" is one s-sparse measurement's cells laid
// out structure-of-arrays in 4 * NumCells consecutive uint64 words:
//   [weight | index_sum.lo | index_sum.hi | fingerprint]
// (row-major [row][bucket] within each component array). Weights live as
// two's-complement uint64 -- linear updates are wrapping adds either way --
// and index sums keep their mod-2^128 wrap via an explicit lo->hi carry.
// Containers may pack many segments into one allocation (see L0State).
// ---------------------------------------------------------------------------

/// Words in one segment of `shape`.
inline size_t SSparseSegmentWords(const SSparseShape& shape) {
  return static_cast<size_t>(shape.NumCells()) * 4;
}

/// Apply precomputed per-cell deltas: for each of the `rows` cell indices
/// in `cell` (see SSparseShape::CellsFolded), weight += wdelta, index_sum
/// += is (mod 2^128), fingerprint += fp (over F_p). Callers that fan one
/// key out to several endpoint measurements (the incidence encoding: same
/// cells, same magnitudes, only the sign differs) resolve the cells and
/// deltas once and invoke this per endpoint.
inline void SSparseSegmentApply(uint64_t* seg, const uint32_t* cell, int rows,
                                size_t cells, int64_t wdelta, u128 is,
                                uint64_t fp) {
  const uint64_t is_lo = static_cast<uint64_t>(is);
  const uint64_t is_hi = static_cast<uint64_t>(is >> 64);
  uint64_t* w = seg;
  uint64_t* il = w + cells;
  uint64_t* ih = il + cells;
  uint64_t* fpp = ih + cells;
  for (int r = 0; r < rows; ++r) {
    const size_t i = cell[r];
    w[i] += static_cast<uint64_t>(wdelta);
    const uint64_t nl = il[i] + is_lo;
    ih[i] += is_hi + (nl < il[i] ? 1 : 0);
    il[i] = nl;
    fpp[i] = FpAdd(fpp[i], fp);
  }
}

/// The hot-path update: apply (coordinate, delta) to a segment, with the
/// coordinate prepared and the fingerprint power computed once by the
/// caller so several measurements ingesting the same coordinate share all
/// per-key arithmetic.
inline void SSparseSegmentUpdate(const SSparseShape& shape, uint64_t* seg,
                                 const PreparedCoord& pc, int64_t delta,
                                 uint64_t power) {
  GMS_DCHECK(pc.index < shape.domain());
  if (delta == 0) return;
  uint32_t cell[kMaxSketchRows];
  shape.CellsFolded(pc.fold, cell);
  SSparseSegmentApply(seg, cell, shape.rows(),
                      static_cast<size_t>(shape.NumCells()), delta,
                      pc.index * static_cast<u128>(static_cast<i128>(delta)),
                      FpMul(FpFromInt64(delta), power));
}

/// Prefetch, for writing, every line SSparseSegmentApply(seg, cell, rows,
/// cells, ...) touches: one line in each of the four component arrays per
/// row. Purely a hint; no state changes.
///
/// Always inlined, and so must be every wrapper around it: GCC's IPA
/// pure-const pass counts a prefetch as no side effect, so it deems a
/// function that only prefetches `const` and deletes each call to it that
/// was not inlined into code that writes.
[[gnu::always_inline]] inline void SSparseSegmentPrefetch(
    const uint64_t* seg, const uint32_t* cell, int rows, size_t cells) {
  for (int r = 0; r < rows; ++r) {
    const size_t i = cell[r];
    __builtin_prefetch(seg + i, 1, 1);
    __builtin_prefetch(seg + cells + i, 1, 1);
    __builtin_prefetch(seg + 2 * cells + i, 1, 1);
    __builtin_prefetch(seg + 3 * cells + i, 1, 1);
  }
}

/// seg += other, cell-wise (vector addition of the measured vectors).
void SSparseSegmentAdd(const SSparseShape& shape, uint64_t* seg,
                       const uint64_t* other);

/// Reassemble cell i of a segment as a value triple.
inline OneSparseCell SSparseSegmentCell(const SSparseShape& shape,
                                        const uint64_t* seg, size_t i) {
  const size_t cells = static_cast<size_t>(shape.NumCells());
  OneSparseCell c;
  c.weight = static_cast<int64_t>(seg[i]);
  c.index_sum =
      (static_cast<u128>(seg[2 * cells + i]) << 64) | seg[cells + i];
  c.fingerprint = seg[3 * cells + i];
  return c;
}

/// Cell array implementing the shape's measurement. Linear: supports
/// Update (insert/delete = +/- delta) and Add (vector addition). Owns a
/// single segment; see the segment kernels above for the layout.
class SSparseState {
 public:
  explicit SSparseState(const SSparseShape* shape);

  void Update(u128 index, int64_t delta) {
    const PreparedCoord pc = PrepareCoord(index);
    UpdatePrepared(pc, delta, shape_->FingerprintPowerFromExp(pc.exponent));
  }

  /// Hot-path update with caller-prepared coordinate and power.
  void UpdatePrepared(const PreparedCoord& pc, int64_t delta, uint64_t power) {
    SSparseSegmentUpdate(*shape_, buf_.data(), pc, delta, power);
  }

  void Add(const SSparseState& other);
  bool IsZero() const;

  /// Exact recovery by peeling. Returns the full support (index, value)
  /// pairs if the vector's support is <= capacity (whp); DecodeFailure if
  /// peeling gets stuck or a consistency check fails. Uses a per-thread
  /// reusable SSparseDecoder, so repeated decodes do not allocate.
  Result<std::vector<SparseEntry>> Decode() const;

  size_t MemoryBytes() const {
    return buf_.size() * sizeof(uint64_t) + sizeof(*this);
  }

  /// Cell-wise equality (same measurement VALUE; the shapes may be distinct
  /// objects). Used by the determinism suite to assert that parallel
  /// ingestion leaves bit-identical state.
  friend bool operator==(const SSparseState& a, const SSparseState& b) {
    return a.buf_ == b.buf_;
  }

  const SSparseShape& shape() const { return *shape_; }
  const uint64_t* segment() const { return buf_.data(); }
  uint64_t* segment() { return buf_.data(); }

 private:
  const SSparseShape* shape_;
  std::vector<uint64_t> buf_;  // one segment
};

/// Reusable peeling workspace: decodes any segment by copying it into owned
/// scratch (capacity persists across calls, so decoding in a loop -- the
/// Boruvka / sampler read path -- never reallocates). Not thread-safe; use
/// one per thread (SSparseState::Decode() keeps a thread_local instance).
class SSparseDecoder {
 public:
  Result<std::vector<SparseEntry>> Decode(const SSparseShape& shape,
                                          const uint64_t* seg);

  Result<std::vector<SparseEntry>> Decode(const SSparseState& state) {
    return Decode(state.shape(), state.segment());
  }

 private:
  std::vector<uint64_t> scratch_;  // same four-array layout as a segment
};

/// Attempt to decode a single cell as exactly-1-sparse.
/// Returns: 1 with *out filled if 1-sparse, 0 if zero, -1 if undecodable.
int DecodeOneSparse(const OneSparseCell& cell, const SSparseShape& shape,
                    SparseEntry* out);

}  // namespace gms

#endif  // GMS_SKETCH_SPARSE_RECOVERY_H_
