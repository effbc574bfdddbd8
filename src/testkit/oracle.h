// Differential oracles: replay one stream through a sketch pipeline AND the
// matching exact offline algorithm, and report agreement. A sweep runs one
// oracle over many derived trials and summarizes the observed success rate
// with a Wilson score interval, so suites can assert statistical
// consistency with the paper's whp bounds instead of hard-coding "seed 7
// happens to work".
//
// Oracle matrix (sketch side vs exact side, both over the SAME final graph):
//   kComponents        SpanningForestSketch         NumComponents (BFS)
//                      Query() components
//   kSpanningNoGhost   SpanningForestSketch         subset-of-input check
//                      Query() edges
//   kEdgeConnectivity  apps::ApproxMinCut fed one   HypergraphMinCut
//                      Update at a time             (Queyranne/Klimmek-Wagner)
//   kLightRecovery     LightRecoverySketch          OfflineLightEdges
//   kVcQuery           VcQuerySketch (graphs only)  IsConnectedExcluding
//                                                   (Even-Tarjan semantics)
//   kHyperVcQuery      HyperVcQuerySketch           IsConnectedExcluding
//   kSparsifier        HypergraphSparsifierSketch   cut_eval sampled cuts
//   kL0Sampler         L0Sampler over the edge      support membership
//                      codec domain
//   kTwoEdgeConnect    apps::TwoEdgeConnect         per-edge-removal brute
//                                                   bridges + components
//   kApproxMinCut      apps::ApproxMinCut           HypergraphMinCut[Brute]
//   kBridgeQuery       serve::SketchServer          per-edge-removal brute
//                      kIsBridge over wire frames   bridges (graphs only)
#ifndef GMS_TESTKIT_ORACLE_H_
#define GMS_TESTKIT_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stream/stream.h"
#include "testkit/stream_spec.h"
#include "util/status.h"

namespace gms {
namespace testkit {

enum class OracleKind : uint8_t {
  kComponents = 0,
  kSpanningNoGhost,
  kEdgeConnectivity,
  kLightRecovery,
  kVcQuery,
  kHyperVcQuery,
  kSparsifier,
  kL0Sampler,
  /// apps::TwoEdgeConnect (a 2-skeleton's bridges) vs per-edge-removal
  /// brute bridges + exact component count of the final graph.
  kTwoEdgeConnect,
  /// apps::ApproxMinCut (one k_cap-skeleton's min cut, k_cap = opt.k) vs
  /// exact global min cut (brute enumeration for small n, Queyranne
  /// otherwise); exact answers must also ship a shore achieving the value.
  kApproxMinCut,
  /// serve::SketchServer kIsBridge through the WIRE protocol (encode
  /// request, HandleFrame, decode response) vs brute bridges. Graph
  /// streams only (bridge queries address edges as (u, v) pairs).
  kBridgeQuery,
};

const char* OracleName(OracleKind k);

/// All oracle kinds, in enum order (the sweep matrix iterates this).
std::vector<OracleKind> AllOracles();

/// Test-only fault injection: updates for which `drop_update` returns true
/// are silently withheld from the SKETCH side only (the exact side always
/// sees the true stream). This simulates the one bug class a linear-sketch
/// library must never have -- a lost or misrouted update -- and exists so
/// the shrinker has a reproducible synthetic bug to minimize.
struct FaultHook {
  std::function<bool(const StreamUpdate&)> drop_update;

  bool Drops(const StreamUpdate& u) const {
    return drop_update && drop_update(u);
  }
};

struct OracleOptions {
  /// Connectivity cap / separator budget / peeling threshold, per oracle.
  size_t k = 2;
  /// Random removal-set queries per VC trial (on top of any planted
  /// separator the family provides).
  size_t num_queries = 4;
  /// Explicit subsample count for the VC sketches (0 = half the paper's R,
  /// matching the sized-down constants the unit suites use).
  size_t explicit_r = 0;
  /// Sparsifier: sketch epsilon and accepted verification epsilon (the
  /// Theorem 19 guarantee is (1+eps)^levels, hence the looser check bound).
  double sparsifier_epsilon = 1.0;
  double verify_epsilon = 1.5;
  size_t sparsifier_levels = 8;
  /// Sparsifier peeling threshold (the unit suites' empirically reliable
  /// small-n setting; 0 would resolve the paper's much larger formula).
  size_t sparsifier_k = 10;
  FaultHook fault;
};

struct OracleOutcome {
  /// False when the oracle does not apply to the instance (e.g. kVcQuery on
  /// a hypergraph family); such trials are excluded from sweep counts.
  bool applicable = true;
  /// Sketch answer matched exact ground truth.
  bool agreed = true;
  /// The sketch reported an explicit DecodeFailure instead of an answer.
  /// Counted against the success rate, but distinguished from `!agreed`
  /// because an honest failure Status is the DESIGNED whp failure mode,
  /// while a silent wrong answer is a bug.
  bool decode_failure = false;
  std::string detail;  // populated when !agreed or decode_failure

  bool Succeeded() const { return agreed && !decode_failure; }
};

/// Core entry point: run one oracle over a materialized stream. `n` and
/// `max_rank` bound the instance; `truth` is the stream's final graph
/// (callers that already materialized it pass it to avoid recomputation).
OracleOutcome RunOracleOnStream(OracleKind kind, size_t n, size_t max_rank,
                                const DynamicStream& stream,
                                const Hypergraph& truth,
                                const std::vector<VertexId>& planted_separator,
                                uint64_t sketch_seed,
                                const OracleOptions& opt = OracleOptions());

/// Convenience: Build() the spec and run. The outcome's detail embeds
/// spec.ToString() so a failure is a one-line repro.
OracleOutcome RunOracle(OracleKind kind, const StreamSpec& spec,
                        uint64_t sketch_seed,
                        const OracleOptions& opt = OracleOptions());

// ---------- Statistical sweeps ----------

/// 95% (by default) Wilson score interval for a binomial proportion:
/// the interval of true success probabilities p for which the observed
/// (successes, trials) is within z standard errors of expectation. Unlike
/// the normal approximation it stays inside [0, 1] and behaves at
/// successes == trials, which is the common case here.
struct WilsonInterval {
  double lo = 0;
  double hi = 1;
  bool Contains(double prob) const { return lo <= prob && prob <= hi; }
};
WilsonInterval Wilson(size_t successes, size_t trials, double z = 1.959964);

struct SweepResult {
  size_t trials = 0;            // applicable trials only
  size_t successes = 0;         // agreed, no decode failure
  size_t decode_failures = 0;   // honest failure Status
  size_t disagreements = 0;     // silent wrong answers (bugs)
  /// One-line repro (spec + oracle + seed) for every unsuccessful trial.
  std::vector<std::string> failures;

  WilsonInterval interval() const { return Wilson(successes, trials); }
  /// True iff the observed rate is statistically consistent with success
  /// probability >= min_success at the interval's confidence: the data does
  /// not refute the configured bound.
  bool ConsistentWith(double min_success) const {
    return interval().hi >= min_success;
  }
};

/// Run `kind` on `base.WithTrial(t)` for t in [0, trials), with the sketch
/// seed forked independently per trial. Inapplicable trials are skipped.
SweepResult RunSweep(OracleKind kind, const StreamSpec& base, size_t trials,
                     const OracleOptions& opt = OracleOptions());

}  // namespace testkit
}  // namespace gms

#endif  // GMS_TESTKIT_ORACLE_H_
