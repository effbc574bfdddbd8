// The re-summing reference decoder for SpanningForestSketch::Query.
//
// Query keeps per-component accumulators across rounds, skips buffered
// entries that cancel inside their component, and stops after the hybrid
// exact pre-round when every column is sparse. This oracle does none of
// that: after the same pre-round it re-sums every multi-vertex component
// from its members' arena rows (sparse members replay their buffers) in
// every round, with the same sampling, validation, union order and
// early-exit rule. Nothing in the library calls it; the extraction
// differential suite holds Query to it, and bench_throughput times it as
// the old-vs-new extraction row.
#ifndef GMS_TESTKIT_FOREST_REFERENCE_H_
#define GMS_TESTKIT_FOREST_REFERENCE_H_

#include <cstddef>

#include "connectivity/spanning_forest_sketch.h"
#include "graph/hypergraph.h"

namespace gms {
namespace testkit {

/// The spanning graph and counters of the pre-incremental decode of
/// `sketch` (threads = 0 uses the sketch's params.threads). Equals
/// sketch.Query(threads) edge for edge, order included. Every decision
/// counter (rounds_run, early_exit, sample_attempts, decode_attempts,
/// edges_found, groups_per_round) matches too whenever Query runs the
/// rounds, i.e. unless the sketch is AllSparse(); summed_words and
/// sparse_entries_replayed measure this path's work.
QueryResult<Hypergraph> ExtractSpanningGraphReference(
    const SpanningForestSketch& sketch, size_t threads);

}  // namespace testkit
}  // namespace gms

#endif  // GMS_TESTKIT_FOREST_REFERENCE_H_
