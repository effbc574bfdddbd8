// Reference evaluations of the per-key update arithmetic. Two generations:
// the pre-table kernel (fingerprint powers by binary exponentiation, row
// buckets by a hardware `%`), and the table kernel as it stood before the
// short-exponent and one-multiply rewrites (every polynomial hash by
// textbook Horner from zero with the high-half mixer product always
// taken, every fingerprint power as the product of all 8 table windows).
// The differential tests hold the production paths (PolyHash::EvalFolded,
// FingerprintBasis::PowerFromExp, L0Shape::Resolve) to these bit for bit,
// and the benches' kernel sections time them against each other.
// Header-only and inline, like the paths they check, so a timing compares
// arithmetic, not call overhead.
#ifndef GMS_TESTKIT_KERNEL_REFERENCE_H_
#define GMS_TESTKIT_KERNEL_REFERENCE_H_

#include <cstdint>

#include "sketch/l0_sampler.h"
#include "sketch/sparse_recovery.h"
#include "util/field.h"
#include "util/hash.h"
#include "util/random.h"

namespace gms::testkit {

/// z^(index mod p-1) by full binary exponentiation (the pre-table kernel).
inline uint64_t PowerRef(const FingerprintBasis& basis, u128 index) {
  return FpPow(basis.z(), static_cast<uint64_t>(index % (kMersenne61 - 1)));
}

/// PowerRef against a shape's fingerprint basis.
inline uint64_t FingerprintPowerRef(const SSparseShape& shape, u128 index) {
  return PowerRef(shape.basis(), index);
}

/// Row r's bucket by the pre-table kernel's hardware `%` reduction. NOT
/// the bucket the sketch uses (that is the Lemire multiply-shift); the
/// distribution tests compare the two.
inline int BucketRef(const SSparseShape& shape, int row, u128 index) {
  return static_cast<int>(shape.row_hash(row).Eval(index) %
                          static_cast<uint64_t>(shape.buckets()));
}

/// h(k) by Horner from acc = 0 over every coefficient, x = lo + hi * mixer.
inline uint64_t PolyHashRef(const PolyHash& h, FoldedKey k) {
  const uint64_t x = FpAdd(k.lo, FpMul(k.hi, h.mixer()));
  uint64_t acc = 0;
  for (int i = 0; i < h.independence(); ++i) {
    acc = FpAdd(FpMul(acc, x), h.coeff(i));
  }
  return acc;
}

/// LevelHash::LevelFolded over PolyHashRef.
inline int LevelRef(const LevelHash& h, FoldedKey k) {
  const uint64_t v = Mix64(PolyHashRef(h.hash(), k));
  if (v == 0) return h.max_level();
  const int tz = __builtin_ctzll(v);
  return tz < h.max_level() ? tz : h.max_level();
}

/// z^e as the product of all 8 windows, zero digits included.
inline uint64_t PowerAllWindows(const FingerprintBasis& basis, uint64_t e) {
  uint64_t r = basis.Entry(0, static_cast<int>(e & 0xff));
  for (int w = 1; w < FingerprintBasis::kWindows; ++w) {
    r = FpMul(r, basis.Entry(w, static_cast<int>((e >> (8 * w)) & 0xff)));
  }
  return r;
}

/// L0Shape::Resolve over the references above.
inline void ResolveRef(const L0Shape& shape, const PreparedCoord& pc,
                       L0Resolved* out) {
  const int level = LevelRef(shape.level_hash(), pc.fold);
  const SSparseShape& ls = shape.level_shape(level);
  out->level = level;
  for (int r = 0; r < ls.rows(); ++r) {
    out->cell[r] = static_cast<uint32_t>(
        r * ls.buckets() +
        static_cast<int>(FieldToBucket(PolyHashRef(ls.row_hash(r), pc.fold),
                                       static_cast<uint32_t>(ls.buckets()))));
  }
  out->power = PowerAllWindows(shape.basis(), pc.exponent);
}

}  // namespace gms::testkit

#endif  // GMS_TESTKIT_KERNEL_REFERENCE_H_
