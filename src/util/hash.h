// k-wise independent hash families over F_p, p = 2^61 - 1.
//
// A degree-(t-1) polynomial with uniformly random coefficients evaluated at
// the key is a t-wise independent family over F_p. Keys are coordinate
// indices in the (huge, implicit) hyperedge space and may be 128-bit; they
// are injected into F_p by splitting into two 61-bit-reducible halves and
// combining with an extra random multiplier, so distinct 128-bit keys map to
// distinct field points except with probability <= 2/p per pair (absorbed
// into the sketch failure probability).
//
// The halves themselves (a FoldedKey) carry no per-hash randomness, so a
// caller touching several hashes with the same key folds ONCE and hands the
// FoldedKey to every Eval*Folded / Level*Folded call; only the final
// mixer multiply is per-hash. This is the fold-once contract the sketch
// update kernel relies on.
#ifndef GMS_UTIL_HASH_H_
#define GMS_UTIL_HASH_H_

#include <cstdint>

#include "util/field.h"
#include "util/random.h"
#include "util/uint128.h"

namespace gms {

/// A 128-bit key folded to two field elements (low and high 64-bit halves,
/// each reduced mod p). Hash-independent: computable once per key and shared
/// across every PolyHash / LevelHash evaluation of that key.
struct FoldedKey {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

/// Fold a 128-bit key into its two field halves (both operands are < 2^64,
/// within FpReduce's 2^122 precondition).
inline FoldedKey FoldKey128(u128 key) {
  return FoldedKey{FpReduce(static_cast<u128>(static_cast<uint64_t>(key))),
                   FpReduce(static_cast<u128>(static_cast<uint64_t>(key >> 64)))};
}

/// Map a field element h in [0, p) to [0, bound) by Lemire multiply-shift:
/// (h * bound) >> 61. No division; since h < 2^61 the result is < bound,
/// and for bound <= 2^32 the per-bucket bias is O(bound / p), far below the
/// sketch failure probability. NOTE: this assigns different buckets than
/// `h % bound` would — sketch guarantees depend only on the hash family's
/// distribution, not on which reduction maps field values to buckets.
inline uint32_t FieldToBucket(uint64_t h, uint32_t bound) {
  return static_cast<uint32_t>((static_cast<u128>(h) * bound) >> 61);
}

/// Most coefficients a PolyHash keeps inline (independence t <= this).
/// Every production hash is 2-wise; the cap leaves room for the tests'
/// higher-independence families without a heap vector per hash.
inline constexpr int kMaxPolyIndependence = 4;

/// t-wise independent hash from u128 keys to [0, p).
class PolyHash {
 public:
  /// Build a hash with the given independence 2 <= t <=
  /// kMaxPolyIndependence, seeded deterministically.
  PolyHash(int independence, uint64_t seed);

  /// Default-constructed hash is unusable; assign before use.
  PolyHash() = default;

  /// Hash to a field element in [0, 2^61 - 1).
  uint64_t Eval(u128 key) const { return EvalFolded(FoldKey128(key)); }

  /// As Eval, with the key already folded by the caller (the hot path:
  /// fold once, evaluate many hashes). Bit-identical to Horner from zero
  /// with x = lo + hi * mixer: the first step FpMul(0, x) adds nothing, so
  /// Horner starts at the leading coefficient (a 2-wise hash is one
  /// multiply), and keys below 2^64 (hi == 0) skip the mixer product.
  uint64_t EvalFolded(FoldedKey k) const {
    GMS_DCHECK(t_ >= 2);
    const uint64_t x = k.hi == 0 ? k.lo : FpAdd(k.lo, FpMul(k.hi, mixer_));
    uint64_t acc = FpAdd(FpMul(coeffs_[0], x), coeffs_[1]);
    for (int i = 2; i < t_; ++i) acc = FpAdd(FpMul(acc, x), coeffs_[i]);
    return acc;
  }

  /// Hash to [0, bound) by Lemire multiply-shift on the field output (no
  /// division). bound must be <= 2^32 to keep the mapping bias negligible
  /// relative to p.
  uint32_t EvalBelow(u128 key, uint32_t bound) const {
    return FieldToBucket(Eval(key), bound);
  }

  /// As EvalBelow with a caller-folded key.
  uint32_t EvalBelowFolded(FoldedKey k, uint32_t bound) const {
    return FieldToBucket(EvalFolded(k), bound);
  }

  int independence() const { return t_; }

  /// Coefficient i, leading first (degree t-1 .. 0), and the high-half
  /// multiplier: what a reference evaluation needs.
  uint64_t coeff(int i) const { return coeffs_[i]; }
  uint64_t mixer() const { return mixer_; }

 private:
  uint64_t coeffs_[kMaxPolyIndependence] = {};  // degree t-1 .. 0
  int t_ = 0;
  uint64_t mixer_ = 1;  // random multiplier for the high half
};

/// Geometric level function for L0-sampler subsampling: level(key) = number
/// of consecutive low-order zero bits in a pairwise-independent-ish 64-bit
/// hash of the key, capped at max_level. P[level >= j] ~= 2^-j.
class LevelHash {
 public:
  LevelHash(uint64_t seed, int max_level)
      : hash_(/*independence=*/2, seed), max_level_(max_level) {}
  LevelHash() = default;

  int Level(u128 key) const { return LevelFolded(FoldKey128(key)); }

  /// As Level with a caller-folded key.
  int LevelFolded(FoldedKey k) const {
    uint64_t h = Mix64(hash_.EvalFolded(k));
    if (h == 0) return max_level_;
    int tz = __builtin_ctzll(h);
    return tz < max_level_ ? tz : max_level_;
  }

  int max_level() const { return max_level_; }
  const PolyHash& hash() const { return hash_; }

 private:
  PolyHash hash_;
  int max_level_ = 0;
};

}  // namespace gms

#endif  // GMS_UTIL_HASH_H_
