// L0-sampling (Jowhari-Saglam-Tardos style): sample a (pseudo-)uniform
// nonzero coordinate of a dynamically-updated integer vector using
// polylog-size linear state.
//
// Construction: a pairwise-independent level hash partitions the index
// domain into geometric levels (P[level = j] ~ 2^-(j-1)); each level keeps
// an s-sparse recovery of the coordinates assigned to it. Whatever the
// support size F0, some level receives between 1 and s surviving
// coordinates in expectation, and its recovery decodes them exactly; the
// sampler returns the recovered coordinate with the smallest selection
// hash (stable and symmetric across coordinates, hence pseudo-uniform).
//
// Like the sparse-recovery layer, the randomness lives in a shared
// L0Shape; L0States of the same shape are linear and summable. This is the
// substrate for every sketch in the paper (Theorems 2, 13, 14, 15, 20).
#ifndef GMS_SKETCH_L0_SAMPLER_H_
#define GMS_SKETCH_L0_SAMPLER_H_

#include <memory>
#include <span>
#include <vector>

#include "sketch/sketch_config.h"
#include "sketch/sparse_recovery.h"
#include "util/hash.h"
#include "util/status.h"

namespace gms {

/// A coordinate resolved against one L0Shape: the level its key subsamples
/// to, each row's cell within that level's segment, and the fingerprint
/// power. This is all the per-key arithmetic of an update; the write is
/// then pure cell adds. Paths that prefetch before writing resolve once
/// and hand the same resolution to both passes.
///
/// Left uninitialized by default: hot paths keep arrays of these on the
/// stack and fill each entry before reading it.
struct L0Resolved {
  uint64_t power;
  int level;
  uint32_t cell[kMaxSketchRows];
};

class L0Shape {
 public:
  /// domain: exclusive upper bound on coordinate indices (< 2^126).
  L0Shape(u128 domain, const SketchConfig& config, uint64_t seed);

  u128 domain() const { return domain_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const SSparseShape& level_shape(int j) const { return levels_[j]; }

  /// All levels share one geometry, so every level segment has this many
  /// words; level j's segment starts at j * SegmentWords() in an L0State's
  /// flat buffer.
  size_t SegmentWords() const { return segment_words_; }
  size_t TotalWords() const { return segment_words_ * levels_.size(); }

  /// One fingerprint basis (z + 16 KiB power table) is shared by ALL
  /// levels: fingerprints never mix across levels and the per-cell
  /// collision bound is a union bound, so independent z per level buys
  /// nothing -- while sharing keeps the hot table resident instead of
  /// cycling ~log(domain) tables through cache.
  const FingerprintBasis& basis() const { return *basis_; }

  /// Which level an index belongs to (partition semantics: exactly one).
  int LevelOf(u128 index) const { return level_hash_.Level(index); }

  /// Resolve a prepared coordinate's level, cells and power (see
  /// L0Resolved). Every level shares one geometry and one basis, so only
  /// the cells depend on the level.
  void Resolve(const PreparedCoord& pc, L0Resolved* out) const {
    const int level = level_hash_.LevelFolded(pc.fold);
    out->level = level;
    levels_[static_cast<size_t>(level)].CellsFolded(pc.fold, out->cell);
    out->power = basis_->PowerFromExp(pc.exponent);
  }

  /// The subsampling level hash (reference evaluations read it).
  const LevelHash& level_hash() const { return level_hash_; }

  /// Selection hash used to break ties uniformly among recovered entries.
  uint64_t SelectionHash(u128 index) const {
    return Mix64(selection_hash_.Eval(index));
  }

  /// Cells across all levels (for space accounting).
  size_t TotalCells() const;

 private:
  u128 domain_;
  LevelHash level_hash_;
  PolyHash selection_hash_;
  std::shared_ptr<const FingerprintBasis> basis_;
  std::vector<SSparseShape> levels_;
  size_t segment_words_ = 0;
};

/// Add coeff times the coordinate pc, resolved against `shape` as `res`,
/// into `buf`, one flat L0 buffer of shape.TotalWords() words (an
/// L0State's, or one round column of a forest arena). Bit-identical to
/// SSparseSegmentUpdate on res.level's segment.
inline void L0ApplyResolved(const L0Shape& shape, uint64_t* buf,
                            const L0Resolved& res, const PreparedCoord& pc,
                            int64_t coeff) {
  const SSparseShape& ls = shape.level_shape(res.level);
  SSparseSegmentApply(
      buf + static_cast<size_t>(res.level) * shape.SegmentWords(), res.cell,
      ls.rows(), static_cast<size_t>(ls.NumCells()), coeff,
      pc.index * static_cast<u128>(static_cast<i128>(coeff)),
      FpMul(FpFromInt64(coeff), res.power));
}

/// Prefetch, for writing, the lines L0ApplyResolved(shape, buf, res, ...)
/// touches. Always inlined (see SSparseSegmentPrefetch).
[[gnu::always_inline]] inline void L0PrefetchResolved(const L0Shape& shape,
                                                      const uint64_t* buf,
                                                      const L0Resolved& res) {
  const SSparseShape& ls = shape.level_shape(res.level);
  SSparseSegmentPrefetch(
      buf + static_cast<size_t>(res.level) * shape.SegmentWords(), res.cell,
      ls.rows(), static_cast<size_t>(ls.NumCells()));
}

class L0State {
 public:
  explicit L0State(const L0Shape* shape);

  /// Apply a linear update: vector[index] += delta.
  void Update(u128 index, int64_t delta);

  /// Coordinate-wise addition of another state of the same shape.
  void Add(const L0State& other);

  /// Coordinate-wise addition of a raw flat buffer with this state's exact
  /// layout (shape->TotalWords() words, level segments in order). Lets
  /// containers that pack many L0 measurements into one arena (the forest
  /// sketch) accumulate without materializing L0State objects.
  void AddRaw(const uint64_t* buf);

  bool IsZero() const;

  /// Sample one nonzero coordinate. DecodeFailure if the vector is nonzero
  /// at no decodable level (the sketch's whp failure event), or if the
  /// vector appears to be zero everywhere.
  Result<SparseEntry> Sample() const;

  size_t MemoryBytes() const;

  /// Zero every cell (the measurement of the empty stream).
  void Clear();

  /// The flat cell buffer (shape->TotalWords() words; see sparse_recovery.h
  /// for the per-segment layout). Wire payloads are exactly these words.
  size_t NumWords() const { return buf_.size(); }
  const uint64_t* data() const { return buf_.data(); }
  uint64_t* data() { return buf_.data(); }

  /// Cell-wise equality across all levels (bit-identity of the measurement
  /// value; shapes may be distinct objects with the same randomness).
  friend bool operator==(const L0State& a, const L0State& b) {
    return a.buf_ == b.buf_;
  }

  const L0Shape& shape() const { return *shape_; }

  /// Level j's segment within the flat buffer (the four-array s-sparse
  /// layout; see sparse_recovery.h).
  const uint64_t* LevelSegment(int j) const {
    return buf_.data() + static_cast<size_t>(j) * shape_->SegmentWords();
  }

 private:
  const L0Shape* shape_;
  // All ~log(domain) level measurements packed into ONE allocation (levels
  // share a geometry, so segment offsets are a multiply). Random-vertex
  // ingest then costs two dependent cache misses (state object, segment
  // data) instead of chasing state -> level vector -> per-level heap cell
  // arrays.
  std::vector<uint64_t> buf_;
};

/// One linear coordinate update (the L0 sampler's "stream element").
struct L0Update {
  u128 index = 0;
  int64_t delta = 0;
};

/// Instrumentation from one L0SampleRaw call (for the extraction-engine
/// bench breakdown and the early-exit rule of the Borůvka decoder).
struct L0SampleProbe {
  /// s-sparse decode attempts (nonzero levels scanned).
  int decode_attempts = 0;
  /// Any level segment held a nonzero word. False means the sketched
  /// vector is (almost surely) identically zero -- retrying the same
  /// vector under fresh randomness cannot help.
  bool saw_nonzero = false;
};

/// Sample one nonzero coordinate straight from a raw flat buffer with the
/// shape's exact layout (shape.TotalWords() words, level segments in
/// order). This is L0State::Sample() without the L0State: containers that
/// pack many measurements into one arena (the forest sketch) sample
/// singleton components directly from their arena rows, skipping the
/// alloc + zero + add of a materialized accumulator.
Result<SparseEntry> L0SampleRaw(const L0Shape& shape, const uint64_t* buf,
                                L0SampleProbe* probe = nullptr);

/// Field-add `src` into `dst`, both raw flat buffers of this shape's
/// layout. Exact cell-wise addition (wrapping weights, mod-2^128 index
/// sums, mod-p fingerprints): associative and commutative, so ANY
/// accumulation order yields bit-identical stored values.
void L0AddRaw(const L0Shape& shape, uint64_t* dst, const uint64_t* src);

/// Level-mask summaries: bit min(j, 63) of a 64-bit mask covers level j,
/// so one word conservatively describes which level segments of a state
/// can be nonzero even for >64-level shapes (all levels >= 63 share bit
/// 63). A CLEAR bit guarantees the segment is identically zero; a set bit
/// promises nothing. Ingest paths maintain these per column (each update
/// routes to exactly one level), and the extraction/merge paths below then
/// skip the guaranteed-zero segments -- which for a low-degree vertex is
/// most of the state, since incident edges hash to ~log(degree) of the
/// ~log(domain) levels.
constexpr uint64_t LevelMaskBit(int level) {
  return uint64_t{1} << (level < 63 ? level : 63);
}

/// As L0AddRaw restricted to the levels `mask` marks. Clear bits are
/// guaranteed-zero segments of `src`, and adding zero is the field
/// identity, so the stored result is bit-identical to the dense add.
/// Returns the words actually touched (for extraction work accounting).
size_t L0AddRawMasked(const L0Shape& shape, uint64_t* dst,
                      const uint64_t* src, uint64_t mask);

/// As L0SampleRaw, skipping levels `mask` marks clear. The dense scan
/// would skip exactly those levels through its all-zero segment check, so
/// the sample AND the probe are bit-identical to L0SampleRaw -- the mask
/// only removes the wasted zero-segment reads.
Result<SparseEntry> L0SampleRawMasked(const L0Shape& shape,
                                      const uint64_t* buf, uint64_t mask,
                                      L0SampleProbe* probe = nullptr);

/// Cell words of an L0State over this (domain, config) shape, computed by
/// pure arithmetic without constructing the shape. Must agree with
/// L0Shape::TotalWords() (asserted by the serde suite); deserializers use
/// it to compare a frame's shape-implied payload size against the actual
/// payload BEFORE allocating any state. The config must already be
/// validated (wire-sourced configs come through ReadSketchConfig).
uint64_t L0StateWords(u128 domain, const SketchConfig& config);

/// Self-contained L0 sampler: owns its shape (shared on copy) and one
/// state, and implements the library-wide mergeable-sketch concept --
/// Process / MergeFrom / Serialize / Deserialize / SpaceBytes / Clear /
/// seed() -- so the substrate type can travel on the wire and participate
/// in merges like the graph sketches built on it. Purely linear, like the
/// paper's sampler: the config's sparse_threshold is ignored (stored as 0),
/// since the hybrid sparse phase is a property of the forest sketch's
/// vertex columns, not of one sampler.
class L0Sampler {
 public:
  using Params = SketchConfig;

  L0Sampler(u128 domain, const Params& config, uint64_t seed);

  u128 domain() const { return shape_->domain(); }
  uint64_t seed() const { return seed_; }
  const L0Shape& shape() const { return *shape_; }
  const L0State& state() const { return state_; }

  /// Linear update: vector[index] += delta.
  void Update(u128 index, int64_t delta) { state_.Update(index, delta); }

  /// Batched ingestion (updates applied in order; serial -- one state has
  /// a single column).
  void Process(std::span<const L0Update> updates);

  /// Sample one nonzero coordinate (see L0State::Sample).
  Result<SparseEntry> Sample() const { return state_.Sample(); }

  /// Cell-wise field addition. Valid iff the other sampler carries the
  /// SAME measurement: equal seed, domain, and config. After a successful
  /// merge this sampler sketches the sum (multiset union) of both streams.
  Status MergeFrom(const L0Sampler& other);

  /// Zero the state (the empty-stream measurement); shape is untouched.
  void Clear() { state_.Clear(); }

  /// A sampler of the SAME measurement (shared shape, same seed) with zero
  /// state: the clone a stream slice is sketched into before MergeFrom.
  /// The state here is one small flat buffer, so copy + Clear is already
  /// allocation-optimal.
  L0Sampler CloneEmpty() const {
    L0Sampler clone(*this);
    clone.Clear();
    return clone;
  }

  /// Append one wire frame (wire::FrameType::kL0Sampler) to *out.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parse a frame produced by Serialize. Truncation, corruption,
  /// out-of-range shape fields and the retired sparse cell repr return
  /// Status; never aborts.
  static Result<L0Sampler> Deserialize(std::span<const uint8_t> bytes);

  /// Measured size of the serialized frame in bytes (the protocol message
  /// size; this is what comm/ reports as bytes on the wire).
  size_t SpaceBytes() const;

  /// Equal measurement value (cell-wise).
  bool StateEquals(const L0Sampler& other) const {
    return state_ == other.state_;
  }

 private:
  uint64_t seed_;
  Params config_;
  std::shared_ptr<const L0Shape> shape_;
  L0State state_;
};

}  // namespace gms

#endif  // GMS_SKETCH_L0_SAMPLER_H_
