// Old-vs-new timing of the per-update arithmetic kernel, shared by
// bench_l0_sampler (the substrate view) and bench_throughput (the
// before/after row in BENCH_throughput.json). Both loops perform the
// identical segment read-modify-write via the raw segment kernels; they
// differ only in the arithmetic the overhaul replaced:
//   old: fingerprint power by binary exponentiation and row buckets by
//        hardware `%` (testkit::FingerprintPowerRef, testkit::BucketRef);
//   new: windowed power table (PowerFromExp) and the Lemire multiply-shift
//        reduction, as baked into SSparseSegmentUpdate.
// CompareResolve times the per-(key, round) resolution alone -- level,
// cells and power, no cell writes -- against the reference arithmetic in
// testkit/kernel_reference.h (all 8 power windows, Horner from zero with
// the mixer product always taken).
#ifndef GMS_BENCH_KERNEL_COMPARE_H_
#define GMS_BENCH_KERNEL_COMPARE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sketch/l0_sampler.h"
#include "sketch/sketch_config.h"
#include "sketch/sparse_recovery.h"
#include "testkit/kernel_reference.h"
#include "util/random.h"
#include "util/timer.h"

namespace gms::bench {

struct KernelTimings {
  double old_ns = 0;  // per update, FpPow + `%` bucketing
  double new_ns = 0;  // per update, power table + multiply-shift
  double speedup = 0;
  size_t updates = 0;
};

inline KernelTimings CompareUpdateKernels(size_t updates = 200000) {
  const u128 domain = u128{1} << 80;
  SSparseShape shape(domain, /*capacity=*/8, /*rows=*/3, /*buckets=*/16,
                     /*seed=*/77);
  const int rows = shape.rows();
  const int buckets = shape.buckets();
  const size_t cells = static_cast<size_t>(shape.NumCells());
  std::vector<u128> keys;
  keys.reserve(updates);
  Rng rng(5);
  for (size_t i = 0; i < updates; ++i) {
    keys.push_back(((static_cast<u128>(rng.Next()) << 64) | rng.Next()) &
                   (domain - 1));
  }
  KernelTimings out;
  out.updates = updates;
  std::vector<uint64_t> seg(SSparseSegmentWords(shape), 0);
  {
    Timer t;
    for (const u128 k : keys) {
      const uint64_t power = testkit::FingerprintPowerRef(shape, k);
      uint32_t idx[kMaxSketchRows];
      for (int r = 0; r < rows; ++r) {
        idx[r] = static_cast<uint32_t>(r * buckets +
                                       testkit::BucketRef(shape, r, k));
      }
      // delta = 1, so the fingerprint delta is the power itself.
      SSparseSegmentApply(seg.data(), idx, rows, cells, 1, k, power);
    }
    out.old_ns = t.Seconds() * 1e9 / static_cast<double>(updates);
  }
  std::fill(seg.begin(), seg.end(), 0);
  {
    Timer t;
    for (const u128 k : keys) {
      const PreparedCoord pc = PrepareCoord(k);
      SSparseSegmentUpdate(shape, seg.data(), pc, 1,
                           shape.FingerprintPowerFromExp(pc.exponent));
    }
    out.new_ns = t.Seconds() * 1e9 / static_cast<double>(updates);
  }
  out.speedup = out.old_ns / std::max(out.new_ns, 1e-9);
  return out;
}

struct ResolveTimings {
  u128 domain = 0;
  int rounds = 0;
  size_t keys = 0;
  double ref_ns = 0;  // best rep, ns per (key, round), reference arithmetic
  double new_ns = 0;  // best rep, ns per (key, round), L0Shape::Resolve
  double speedup = 0;
  bool identical = false;  // both sides' checksums agree
};

/// Resolve `keys` random keys below `domain` against `rounds` Light round
/// shapes (the batch_dense forest's geometry), production and reference
/// alternating for `reps` reps each; report each side's best rep. Both
/// loops fold every resolution into a checksum, so neither is optimised
/// away and the checksums must agree.
inline ResolveTimings CompareResolve(u128 domain, int rounds = 14,
                                     size_t keys = 20000, int reps = 5) {
  std::vector<std::unique_ptr<L0Shape>> shapes;
  Rng rng(91);
  for (int t = 0; t < rounds; ++t) {
    shapes.push_back(std::make_unique<L0Shape>(
        domain, SketchConfig::Light(), rng.Fork()));
  }
  const int rows = shapes[0]->level_shape(0).rows();
  std::vector<PreparedCoord> pcs;
  pcs.reserve(keys);
  for (size_t i = 0; i < keys; ++i) {
    const u128 key = ((static_cast<u128>(rng.Next()) << 64) | rng.Next());
    pcs.push_back(PrepareCoord(key % domain));
  }
  const auto run = [&](auto&& resolve, uint64_t* sum) {
    Timer timer;
    uint64_t acc = 0;
    for (const auto& shape : shapes) {
      for (const PreparedCoord& pc : pcs) {
        L0Resolved res;
        resolve(*shape, pc, &res);
        acc += res.power + static_cast<uint64_t>(res.level);
        for (int r = 0; r < rows; ++r) acc += res.cell[r];
      }
    }
    *sum = acc;
    return timer.Seconds();
  };
  const auto prod = [](const L0Shape& shape, const PreparedCoord& pc,
                       L0Resolved* res) { shape.Resolve(pc, res); };
  const auto ref = [](const L0Shape& shape, const PreparedCoord& pc,
                      L0Resolved* res) { testkit::ResolveRef(shape, pc, res); };
  ResolveTimings out;
  out.domain = domain;
  out.rounds = rounds;
  out.keys = keys;
  out.identical = true;
  double ref_best = 0, new_best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t ref_sum = 0, new_sum = 0;
    const double r = run(ref, &ref_sum);
    const double p = run(prod, &new_sum);
    out.identical = out.identical && ref_sum == new_sum;
    ref_best = rep == 0 ? r : std::min(ref_best, r);
    new_best = rep == 0 ? p : std::min(new_best, p);
  }
  const double per = 1e9 / static_cast<double>(keys * shapes.size());
  out.ref_ns = ref_best * per;
  out.new_ns = new_best * per;
  out.speedup = ref_best / std::max(new_best, 1e-12);
  return out;
}

}  // namespace gms::bench

#endif  // GMS_BENCH_KERNEL_COMPARE_H_
