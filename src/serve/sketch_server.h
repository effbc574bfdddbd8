// A multi-engine always-on query server (DESIGN.md §13).
//
// Bundles one ServingEngine per enabled sketch family behind a single
// ingest fan-out and a single query surface:
//
//   forest    (always on)  -> Connected(u, v), NumComponents
//   vc        (optional)   -> Disconnects(S), VertexConnectivityAtLeast(t)
//   skeleton  (optional)   -> SkeletonEdgeCount
//
// Queries arrive either as direct method calls or as wire frames
// (serve_protocol.h) via HandleFrame -- the same envelope that ships
// sketch state, so one socket loop can serve both. Every answer carries
// the snapshot coordinates (epoch, prefix_updates) it was computed
// against, letting clients bound staleness themselves. Each engine keeps
// its answers fewer than 3 * epoch_updates updates behind the updates
// whose Ingest call has returned, and its epoch may step by 2 where the
// merger folded one extraction into the next (serving_engine.h).
//
// Connectivity answers come from a ComponentIndex -- a union-find over the
// served forest payload, flattened to one component id per vertex -- built
// at most ONCE per published payload (the cache is keyed on the payload
// pointer, which the serving engine reuses across clean epochs), so a
// query is two array loads however fast queries arrive.
//
// Threading: one ingest thread (Ingest / AdvanceEpoch / Flush), any number
// of query threads (Handle / HandleFrame / the direct accessors).
#ifndef GMS_SERVE_SKETCH_SERVER_H_
#define GMS_SERVE_SKETCH_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "serve/serve_protocol.h"
#include "serve/serving_engine.h"
#include "stream/ingest_plane.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace serve {

/// One component id per vertex, flattened from a spanning forest payload.
/// Immutable after construction; query threads share one instance.
class ComponentIndex {
 public:
  ComponentIndex(size_t n, const Hypergraph& forest);

  bool Connected(VertexId u, VertexId v) const {
    return comp_[u] == comp_[v];
  }
  size_t num_components() const { return num_components_; }
  size_t n() const { return comp_.size(); }

 private:
  std::vector<uint32_t> comp_;
  size_t num_components_ = 0;
};

/// The bridge edges of a served k-skeleton payload (k >= 2), flattened to
/// a hash set of rank-2 endpoint pairs so a kIsBridge query is one probe.
/// Like ComponentIndex: immutable after construction, built at most once
/// per published payload (payload-pointer cache), shared across query
/// threads. A skeleton bridge is whp a bridge of G itself: a G-cut of
/// size 1 survives into any k >= 2 skeleton as that same single edge.
class BridgeIndex {
 public:
  BridgeIndex(size_t n, const Hypergraph& skeleton);

  /// True iff {u, v} is a rank-2 bridge hyperedge of the skeleton.
  /// (Bridges of cardinality > 2 exist for hypergraphs but have no (u, v)
  /// addressing; num_bridges() still counts them.)
  bool IsBridge(VertexId u, VertexId v) const;
  size_t num_bridges() const { return num_bridges_; }

 private:
  size_t n_ = 0;
  std::vector<uint64_t> pairs_;  // sorted packed (min << 32 | max) keys
  size_t num_bridges_ = 0;
};

struct SketchServerParams {
  /// The connectivity engine (always on).
  ForestSketchParams forest;
  /// Maximum hyperedge cardinality the forest/skeleton engines accept.
  size_t max_rank = 2;
  /// Serve Theorem 4 vertex-connectivity queries (graph streams only:
  /// Build refuses serve_vc with max_rank > 2).
  bool serve_vc = false;
  VcQueryParams vc;
  /// Serve k-skeleton queries when nonzero (the skeleton's k).
  size_t skeleton_k = 0;
  /// Epoch pacing shared by every enabled engine.
  ServingParams serving;

  class Builder;
};

class SketchServerParams::Builder {
 public:
  Builder() = default;
  explicit Builder(const SketchServerParams& from) : p_(from) {}

  Builder& Forest(const ForestSketchParams& forest) {
    p_.forest = forest;
    return *this;
  }
  Builder& MaxRank(size_t max_rank) {
    p_.max_rank = max_rank;
    return *this;
  }
  Builder& ServeVc(bool serve_vc) {
    p_.serve_vc = serve_vc;
    return *this;
  }
  Builder& Vc(const VcQueryParams& vc) {
    p_.vc = vc;
    p_.serve_vc = true;
    return *this;
  }
  Builder& SkeletonK(size_t skeleton_k) {
    p_.skeleton_k = skeleton_k;
    return *this;
  }
  Builder& Serving(const ServingParams& serving) {
    p_.serving = serving;
    return *this;
  }
  Builder& EpochUpdates(size_t epoch_updates) {
    p_.serving.epoch_updates = epoch_updates;
    return *this;
  }
  SketchServerParams Build() const;

 private:
  SketchServerParams p_;
};

class SketchServer {
 public:
  struct Stats {
    uint64_t requests = 0;
    /// Requests answered with a non-OK code (refusals, not transport
    /// failures -- an undecodable frame also counts once here).
    uint64_t errors = 0;
  };

  /// Engine seeds are derived from `seed` (seed, seed+1, seed+2), so one
  /// public seed reproduces the whole server.
  SketchServer(size_t n, const SketchServerParams& params, uint64_t seed);

  size_t n() const { return n_; }

  /// Ingest thread only: one shared encode/prepare/route pass per epoch
  /// chunk, fanned out to every enabled engine's open delta through the
  /// ingestion plane (stream/ingest_plane.h) -- one pass instead of three.
  /// Engines whose route bits no longer fit the 64-bit route word (after
  /// the forest's 1 bit, a VC engine with R > 63, or the skeleton's bit
  /// beside a VC engine with R = 63) transparently fall back to their own
  /// Process on the same chunks.
  void Ingest(std::span<const StreamUpdate> updates);
  void Ingest(const DynamicStream& stream);
  /// Ingest thread only: force an epoch boundary on every engine.
  void AdvanceEpoch();
  /// Ingest thread only: quiesce -- afterwards answers cover every update.
  void Flush();

  /// Any thread: answer one decoded request.
  ServeResponse Handle(const ServeRequest& req);

  /// Any thread: decode `request`, answer it, append exactly one
  /// kServeResponse frame to *response. Undecodable requests produce an
  /// error response frame (never a crash), echoing op = kPing.
  void HandleFrame(std::span<const uint8_t> request,
                   std::vector<uint8_t>* response);

  Stats stats() const;

  using ForestEngine = ServingEngine<SpanningForestSketch>;
  using VcEngine = ServingEngine<VcQuerySketch>;
  using SkeletonEngine = ServingEngine<KSkeletonSketch>;

  ForestEngine& forest_engine() { return *forest_; }
  bool vc_enabled() const { return vc_.has_value(); }
  VcEngine& vc_engine() { return *vc_; }
  bool skeleton_enabled() const { return skeleton_.has_value(); }
  SkeletonEngine& skeleton_engine() { return *skeleton_; }

 private:
  /// The component index for `payload`, building it only if the cached one
  /// was derived from a different payload pointer.
  std::shared_ptr<const ComponentIndex> IndexFor(
      const std::shared_ptr<const Hypergraph>& payload);

  ServeResponse Dispatch(const ServeRequest& req);

  size_t n_;
  SketchServerParams params_;

  /// optional<> for deferred in-place construction; the engines themselves
  /// are neither movable nor copyable (they own a thread).
  std::optional<ForestEngine> forest_;
  std::optional<VcEngine> vc_;
  std::optional<SkeletonEngine> skeleton_;

  /// Reused across Ingest chunks (keeps the per-vertex gutter buffers
  /// warm); consumers are re-registered per chunk because the open-delta
  /// scopes are chunk-scoped.
  IngestPlane plane_;

  /// As IndexFor, for the skeleton engine's bridge index.
  std::shared_ptr<const BridgeIndex> BridgeIndexFor(
      const std::shared_ptr<const Hypergraph>& payload);

  std::mutex index_mu_;
  std::shared_ptr<const Hypergraph> indexed_payload_;
  std::shared_ptr<const ComponentIndex> index_;
  std::shared_ptr<const Hypergraph> bridge_indexed_payload_;
  std::shared_ptr<const BridgeIndex> bridge_index_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace serve
}  // namespace gms

#endif  // GMS_SERVE_SKETCH_SERVER_H_
