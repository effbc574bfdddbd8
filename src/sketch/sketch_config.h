// Tunable constants for the sketching stack. The paper's constants
// (Section 3: R = 16 k^2 ln n, etc.) guarantee 1 - 1/poly(n) success but
// are far larger than what laptop-scale experiments need; every algorithm
// takes a config with presets:
//   Paper()  -- constants as stated in the paper (huge, for small n only),
//   Default()-- empirically reliable at the benchmark scales,
//   Light()  -- minimum-footprint settings for space-scaling sweeps.
#ifndef GMS_SKETCH_SKETCH_CONFIG_H_
#define GMS_SKETCH_SKETCH_CONFIG_H_

#include <cstdint>

#include "util/status.h"

namespace gms {

namespace wire {
class Writer;
class Reader;
}  // namespace wire

struct SketchConfig {
  /// s-sparse recovery capacity per subsampling level (the structure decodes
  /// any vector with support <= sparse_capacity).
  int sparse_capacity = 3;

  /// Hash rows in the s-sparse recovery (IBLT-style peeling needs >= 2;
  /// 3 gives near-certain peeling at load 1/2).
  int rows = 2;

  /// Buckets per row as a multiple of sparse_capacity.
  int buckets_per_capacity = 2;

  /// Extra Borůvka rounds beyond ceil(log2 n) in the spanning-forest sketch
  /// (each round uses an independent sketch column; extras absorb per-round
  /// sampler failures).
  int extra_boruvka_rounds = 4;

  /// Hybrid sparse/dense representation: a vertex column buffers its first
  /// sparse_threshold updates exactly (signed adjacency, no field
  /// arithmetic) and escalates to the dense L0 arena by replaying the
  /// buffer once the count exceeds the threshold. 0 disables the sparse
  /// phase entirely (dense-from-the-start, the pre-hybrid behaviour).
  /// Forest columns only: a standalone L0Sampler is always dense.
  uint32_t sparse_threshold = 32;

  int BucketsPerRow() const { return sparse_capacity * buckets_per_capacity; }

  static SketchConfig Default() { return SketchConfig{}; }

  static SketchConfig Light() {
    SketchConfig c;
    c.sparse_capacity = 2;
    c.rows = 2;
    c.extra_boruvka_rounds = 2;
    return c;
  }

  static SketchConfig Paper() {
    SketchConfig c;
    c.sparse_capacity = 8;
    c.rows = 3;
    c.extra_boruvka_rounds = 8;
    c.sparse_threshold = 0;  // the paper's sketch is purely linear
    return c;
  }
};

/// Wire helpers: a config is part of every sketch frame's shape header (the
/// shape is rebuilt from seed + config on deserialize).
void WriteSketchConfig(const SketchConfig& config, wire::Writer* w);
Status ReadSketchConfig(wire::Reader* r, SketchConfig* config);

}  // namespace gms

#endif  // GMS_SKETCH_SKETCH_CONFIG_H_
