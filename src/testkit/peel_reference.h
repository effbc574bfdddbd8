// Copy-path reference oracles for the peeled extraction.
//
// Production queries decode G - F (a spanning graph of the sketched graph
// with a known edge multiset F linearly removed) through a per-call overlay
// on the const sketch (SpanningForestSketch::ExtractSpanningGraph's
// `peeled`). These are the versions that overlay replaced, kept verbatim
// as differential oracles for tests and benches (nothing in the library
// calls them): copy the sketch, RemoveHyperedges(F) on the copy, decode.
// The peeled path must return the same Hypergraph and the same rounds_run,
// sample_attempts, decode_attempts and edges_found; only summed_words (the
// work the path did) may differ.
#ifndef GMS_TESTKIT_PEEL_REFERENCE_H_
#define GMS_TESTKIT_PEEL_REFERENCE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "apps/two_edge_connect.h"
#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/hypergraph.h"
#include "reconstruct/light_recovery.h"

namespace gms {
namespace testkit {

/// Copy `sketch`, remove `peeled` from the copy, and Query it.
QueryResult<Hypergraph> PeelByCopy(const SpanningForestSketch& sketch,
                                   std::span<const Hyperedge> peeled,
                                   size_t threads = 0);

/// The k-skeleton of G - peeled by copies: layer i is copied, `peeled` and
/// then F_1 .. F_{i-1} are removed from the copy, and the copy is decoded.
QueryResult<Hypergraph> PeelByCopy(const KSkeletonSketch& sketch,
                                   std::span<const Hyperedge> peeled);

/// TwoEdgeConnect::Query by copy: F1 from layer 1, then F2 from a copy of
/// layer 2 with F1 removed.
QueryResult<apps::TwoEdgeConnectAnswer> TwoEdgeConnectByCopy(
    const apps::TwoEdgeConnect& app);

/// LightRecoverySketch::Recover by copy: one working copy of the skeleton
/// with `pre_subtract` removed, each iteration extracting its skeleton by
/// copies and removing the recovered layer from the working copy.
Result<LightRecoveryResult> LightRecoverByCopy(
    const LightRecoverySketch& sketch,
    const std::vector<Hyperedge>& pre_subtract = {});

}  // namespace testkit
}  // namespace gms

#endif  // GMS_TESTKIT_PEEL_REFERENCE_H_
