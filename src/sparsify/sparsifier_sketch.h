// Hypergraph sparsification in dynamic streams (Section 5, Theorems 19/20).
//
// Streaming state: nested half-samples G = G_0 ⊇ G_1 ⊇ ... ⊇ G_l (edge e
// belongs to G_i iff its sampling hash has >= i trailing zeros, so
// insertions and deletions route consistently), with one light-edge
// recovery sketch per level. Post-processing (the paper's algorithm):
//   F_i = light_k(H_i),  H_i = G_i \ (F_0 u ... u F_{i-1}),
// realized by linearly subtracting the already-extracted F_j (restricted to
// the edges that level i actually ingested) before recovering. The output
// sum_i 2^i F_i is a (1+eps)^l-sparsifier (Theorem 19); re-parameterizing
// eps <- eps/(2l) gives (1+eps) (Theorem 20) at the cost of a larger k.
#ifndef GMS_SPARSIFY_SPARSIFIER_SKETCH_H_
#define GMS_SPARSIFY_SPARSIFIER_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exact/cut_eval.h"
#include "reconstruct/light_recovery.h"
#include "util/hash.h"

namespace gms {

struct SparsifierParams {
  double epsilon = 1.0;
  /// Sampling levels l; 0 means the paper's 3*ceil(log2 n). In experiments
  /// ceil(log2 m) + 2 levels suffice (G_l must be empty whp).
  size_t levels = 0;
  /// Peeling threshold k; 0 means ceil(k_constant * eps^-2 * (ln n + r)).
  size_t k = 0;
  /// The O(.) constant in Lemma 18's k = O(eps^-2 (log n + r)).
  double k_constant = 0.5;
  /// Apply the Theorem 20 re-parameterization eps <- eps/(2*levels) when
  /// resolving k (costly; off by default so benches can sweep both).
  bool reparameterize = false;
  /// Worker threads sharding the level rows during batched Process (see
  /// util/parallel.h; outputs are bit-identical for every setting).
  size_t threads = 1;
  ForestSketchParams forest;

  size_t ResolveLevels(size_t n) const;
  size_t ResolveK(size_t n, size_t max_rank, size_t levels) const;

  class Builder;
};

/// Fluent construction: SparsifierParams::Builder().Epsilon(0.5).Levels(8)
///     .Threads(4).Build(). Build() validates the sparsifier knobs here
/// and the embedded forest params through ForestSketchParams::Builder.
class SparsifierParams::Builder {
 public:
  Builder() = default;
  /// Copy-with: seed the builder from existing params, override a few
  /// knobs, Build(). (Re-)validates everything, including untouched fields.
  explicit Builder(const SparsifierParams& from) : p_(from) {}

  Builder& Epsilon(double epsilon) {
    p_.epsilon = epsilon;
    return *this;
  }
  Builder& Levels(size_t levels) {
    p_.levels = levels;
    return *this;
  }
  Builder& K(size_t k) {
    p_.k = k;
    return *this;
  }
  Builder& KConstant(double k_constant) {
    p_.k_constant = k_constant;
    return *this;
  }
  Builder& Reparameterize(bool reparameterize) {
    p_.reparameterize = reparameterize;
    return *this;
  }
  Builder& Forest(const ForestSketchParams& forest) {
    p_.forest = forest;
    return *this;
  }
  Builder& Threads(size_t threads) {
    p_.threads = threads;
    return *this;
  }
  SparsifierParams Build() const {
    GMS_CHECK_MSG(p_.epsilon > 0.0, "SparsifierParams: epsilon must be > 0");
    GMS_CHECK_MSG(p_.k > 0 || p_.k_constant > 0.0,
                  "SparsifierParams: k_constant must be positive unless k "
                  "overrides the resolved threshold");
    GMS_CHECK_MSG(p_.threads >= 1, "SparsifierParams: threads must be >= 1");
    ForestSketchParams::Builder(p_.forest).Build();
    return p_;
  }

 private:
  SparsifierParams p_;
};

struct SparsifierOutput {
  WeightedEdgeSet sparsifier;
  /// Per-level edge counts |F_i| (diagnostics).
  std::vector<size_t> level_sizes;
  /// True if the deepest level still held (k+1)-heavy edges: the level
  /// budget was too small and some weight is missing (should not happen
  /// with the paper's l = 3 log n).
  bool truncated = false;
};

class HypergraphSparsifierSketch {
 public:
  using Params = SparsifierParams;

  HypergraphSparsifierSketch(size_t n, size_t max_rank, const Params& params,
                             uint64_t seed);

  size_t n() const { return n_; }
  size_t levels() const { return level_sketches_.size() - 1; }
  size_t k() const { return k_; }
  size_t max_rank() const { return codec_.max_rank(); }
  uint64_t seed() const { return seed_; }

  void Update(const Hyperedge& e, int delta);

  /// Batched ingestion: each update's codec index and sampling depth are
  /// computed once; the level rows (independent light-recovery sketches)
  /// are sharded across params.threads workers. Bit-identical to serial.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream);

  /// The non-destructive decode: run the per-level light-edge recoveries
  /// and assemble sum_i 2^i F_i. The per-level peelings run their own
  /// extraction loops, so only success/failure is reported -- the (empty)
  /// stats payload exists for surface uniformity.
  QueryResult<SparsifierOutput> Query() const;

  /// Serving hook (src/serve/): true iff any level row's measurement state
  /// changed since construction / the last Clear().
  bool SnapshotDirty() const;

  size_t MemoryBytes() const;

  /// Bit-identity of all level-row states (for the determinism suite).
  bool StateEquals(const HypergraphSparsifierSketch& other) const;

  /// Cell-wise field addition of another sketch of the SAME measurement
  /// (equal seed, n, max_rank, levels, k, and forest params -- the sampling
  /// hash then coincides by construction). Mismatches return
  /// InvalidArgument and leave the state untouched.
  Status MergeFrom(const HypergraphSparsifierSketch& other);

  /// Zero every level row (the empty-stream measurement).
  void Clear();

  /// A sketch of the SAME measurement with zero state (the clone a
  /// stream slice is sketched into before MergeFrom); the parent's cells are
  /// never copied.
  HypergraphSparsifierSketch CloneEmpty() const {
    return HypergraphSparsifierSketch(*this, CloneEmptyTag{});
  }

  /// Append one wire frame (wire::FrameType::kSparsifier) to *out; the
  /// header reconstructs the sampling hash and every level row's shapes
  /// from the seed, and the payload concatenates the rows' raw cells.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parse a frame produced by Serialize. Truncation, corruption, and shape
  /// mismatches return Status; never aborts.
  static Result<HypergraphSparsifierSketch> Deserialize(
      std::span<const uint8_t> bytes);

  /// Measured serialized-frame size in bytes.
  size_t SpaceBytes() const;

 private:
  HypergraphSparsifierSketch(const HypergraphSparsifierSketch& other,
                             CloneEmptyTag);

  /// Sampling depth of a hyperedge: e is in G_i iff SampleLevel(e) >= i.
  int SampleLevel(const Hyperedge& e) const;

  size_t n_;
  size_t k_;
  uint64_t seed_;
  Params params_;
  EdgeCodec codec_;
  LevelHash sample_hash_;
  std::vector<LightRecoverySketch> level_sketches_;  // index 0..levels
};

}  // namespace gms

#endif  // GMS_SPARSIFY_SPARSIFIER_SKETCH_H_
