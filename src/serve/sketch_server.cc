#include "serve/sketch_server.h"

#include <algorithm>
#include <utility>

#include "graph/traversal.h"
#include "graph/union_find.h"

namespace gms {
namespace serve {
namespace {

/// Shape a response around one engine snapshot's coordinates.
template <typename Snapshot>
void StampSnapshot(const Snapshot& snap, ServeResponse* resp) {
  resp->epoch = snap.epoch;
  resp->prefix_updates = snap.prefix_updates;
}

ServeResponse Refuse(ServeOp op, const Status& status) {
  ServeResponse resp;
  resp.op = op;
  resp.code = status.code();
  resp.message = status.message();
  return resp;
}

}  // namespace

ComponentIndex::ComponentIndex(size_t n, const Hypergraph& forest) {
  UnionFind uf(n);
  for (const Hyperedge& e : forest.Edges()) {
    for (size_t i = 1; i < e.size(); ++i) uf.Union(e[0], e[i]);
  }
  comp_ = uf.ComponentIds();
  num_components_ = uf.NumComponents();
}

BridgeIndex::BridgeIndex(size_t n, const Hypergraph& skeleton) : n_(n) {
  const std::vector<Hyperedge> bridges = BridgeHyperedges(skeleton);
  num_bridges_ = bridges.size();
  pairs_.reserve(bridges.size());
  for (const Hyperedge& e : bridges) {
    if (!e.IsGraphEdge()) continue;
    pairs_.push_back(static_cast<uint64_t>(e[0]) << 32 | e[1]);
  }
  std::sort(pairs_.begin(), pairs_.end());
}

bool BridgeIndex::IsBridge(VertexId u, VertexId v) const {
  if (u == v) return false;
  const uint64_t key =
      static_cast<uint64_t>(std::min(u, v)) << 32 | std::max(u, v);
  return std::binary_search(pairs_.begin(), pairs_.end(), key);
}

SketchServerParams SketchServerParams::Builder::Build() const {
  GMS_CHECK_MSG(p_.max_rank >= 2, "SketchServerParams: max_rank must be >= 2");
  ForestSketchParams::Builder(p_.forest).Build();
  if (p_.serve_vc) VcQueryParams::Builder(p_.vc).Build();
  ServingParams::Builder(p_.serving).Build();
  return p_;
}

SketchServer::SketchServer(size_t n, const SketchServerParams& params,
                           uint64_t seed)
    : n_(n), params_(SketchServerParams::Builder(params).Build()) {
  forest_.emplace(SpanningForestSketch(n, params_.max_rank, seed,
                                       params_.forest),
                  params_.serving);
  if (params_.serve_vc) {
    vc_.emplace(VcQuerySketch(n, params_.vc, seed + 1), params_.serving);
  }
  if (params_.skeleton_k > 0) {
    skeleton_.emplace(KSkeletonSketch(n, params_.max_rank, params_.skeleton_k,
                                      seed + 2, params_.forest),
                      params_.serving);
  }
}

void SketchServer::Ingest(std::span<const StreamUpdate> updates) {
  if (updates.empty()) return;
  size_t i = 0;
  while (i < updates.size()) {
    // One chunk per loop: open every shared engine's delta, bound the
    // chunk by the tightest epoch room, run ONE prepared pass through the
    // plane, and commit (which seals any engine whose epoch filled).
    plane_.Reset();
    size_t take = updates.size() - i;

    ForestEngine::ExternalIngestScope forest_scope(&*forest_);
    const bool forest_shared = plane_.Add(forest_scope.delta());
    GMS_CHECK_MSG(forest_shared, "SketchServer: forest must share the plane");
    take = std::min(take, forest_scope.room());

    std::optional<VcEngine::ExternalIngestScope> vc_scope;
    bool vc_shared = false;
    if (vc_) {
      vc_scope.emplace(&*vc_);
      vc_shared = plane_.Add(vc_scope->delta());
      if (vc_shared) {
        take = std::min(take, vc_scope->room());
      } else {
        vc_scope.reset();  // release the lock; plain Process below
      }
    }

    std::optional<SkeletonEngine::ExternalIngestScope> skeleton_scope;
    bool skeleton_shared = false;
    if (skeleton_) {
      skeleton_scope.emplace(&*skeleton_);
      skeleton_shared = plane_.Add(skeleton_scope->delta());
      if (skeleton_shared) {
        take = std::min(take, skeleton_scope->room());
      } else {
        skeleton_scope.reset();
      }
    }

    const std::span<const StreamUpdate> chunk = updates.subspan(i, take);
    plane_.Process(chunk);
    forest_scope.Commit(take);
    if (vc_shared) vc_scope->Commit(take);
    if (skeleton_shared) skeleton_scope->Commit(take);

    // Engines outside the plane ingest the same chunk independently (their
    // own chunking/sealing; the overall stream they see is identical).
    if (vc_ && !vc_shared) vc_->Process(chunk);
    if (skeleton_ && !skeleton_shared) skeleton_->Process(chunk);
    i += take;
  }
}

void SketchServer::IngestIndependent(std::span<const StreamUpdate> updates) {
  forest_->Process(updates);
  if (vc_) vc_->Process(updates);
  if (skeleton_) skeleton_->Process(updates);
}

void SketchServer::Ingest(const DynamicStream& stream) {
  Ingest(std::span<const StreamUpdate>(stream.updates()));
}

void SketchServer::AdvanceEpoch() {
  forest_->AdvanceEpoch();
  if (vc_) vc_->AdvanceEpoch();
  if (skeleton_) skeleton_->AdvanceEpoch();
}

void SketchServer::Flush() {
  forest_->Flush();
  if (vc_) vc_->Flush();
  if (skeleton_) skeleton_->Flush();
}

std::shared_ptr<const ComponentIndex> SketchServer::IndexFor(
    const std::shared_ptr<const Hypergraph>& payload) {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (indexed_payload_ != payload) {
    index_ = std::make_shared<const ComponentIndex>(n_, *payload);
    indexed_payload_ = payload;
  }
  return index_;
}

std::shared_ptr<const BridgeIndex> SketchServer::BridgeIndexFor(
    const std::shared_ptr<const Hypergraph>& payload) {
  std::lock_guard<std::mutex> lock(index_mu_);
  if (bridge_indexed_payload_ != payload) {
    bridge_index_ = std::make_shared<const BridgeIndex>(n_, *payload);
    bridge_indexed_payload_ = payload;
  }
  return bridge_index_;
}

ServeResponse SketchServer::Handle(const ServeRequest& req) {
  ServeResponse resp = Dispatch(req);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests;
  if (resp.code != StatusCode::kOk) ++stats_.errors;
  return resp;
}

ServeResponse SketchServer::Dispatch(const ServeRequest& req) {
  switch (req.op) {
    case ServeOp::kPing: {
      ServeResponse resp;
      resp.op = req.op;
      StampSnapshot(*forest_->Current(), &resp);
      return resp;
    }
    case ServeOp::kConnected:
    case ServeOp::kNumComponents: {
      if (req.op == ServeOp::kConnected && (req.u >= n_ || req.v >= n_)) {
        return Refuse(req.op, Status::InvalidArgument(
                                  "connected: vertex id out of range"));
      }
      auto snap = forest_->Current();
      if (!snap->status.ok()) {
        ServeResponse resp = Refuse(req.op, snap->status);
        StampSnapshot(*snap, &resp);
        return resp;
      }
      auto index = IndexFor(snap->payload);
      ServeResponse resp;
      resp.op = req.op;
      StampSnapshot(*snap, &resp);
      resp.value = req.op == ServeOp::kConnected
                       ? (index->Connected(static_cast<VertexId>(req.u),
                                           static_cast<VertexId>(req.v))
                              ? 1
                              : 0)
                       : index->num_components();
      return resp;
    }
    case ServeOp::kDisconnects:
    case ServeOp::kVcAtLeast: {
      if (!vc_) {
        return Refuse(req.op, Status::FailedPrecondition(
                                  "vertex-connectivity serving is disabled"));
      }
      auto snap = vc_->Current();
      if (!snap->status.ok()) {
        ServeResponse resp = Refuse(req.op, snap->status);
        StampSnapshot(*snap, &resp);
        return resp;
      }
      Result<bool> answer =
          req.op == ServeOp::kDisconnects
              ? snap->payload->Disconnects(req.query_set)
              : snap->payload->VertexConnectivityAtLeast(
                    static_cast<size_t>(req.t));
      if (!answer.ok()) {
        ServeResponse resp = Refuse(req.op, answer.status());
        StampSnapshot(*snap, &resp);
        return resp;
      }
      ServeResponse resp;
      resp.op = req.op;
      StampSnapshot(*snap, &resp);
      resp.value = *answer ? 1 : 0;
      return resp;
    }
    case ServeOp::kSkeletonEdgeCount: {
      if (!skeleton_) {
        return Refuse(req.op, Status::FailedPrecondition(
                                  "skeleton serving is disabled"));
      }
      auto snap = skeleton_->Current();
      if (!snap->status.ok()) {
        ServeResponse resp = Refuse(req.op, snap->status);
        StampSnapshot(*snap, &resp);
        return resp;
      }
      ServeResponse resp;
      resp.op = req.op;
      StampSnapshot(*snap, &resp);
      resp.value = snap->payload->NumEdges();
      return resp;
    }
    case ServeOp::kIsBridge: {
      if (!skeleton_ || params_.skeleton_k < 2) {
        return Refuse(req.op,
                      Status::FailedPrecondition(
                          "bridge serving needs a skeleton engine with "
                          "k >= 2"));
      }
      if (req.u >= n_ || req.v >= n_) {
        return Refuse(req.op, Status::InvalidArgument(
                                  "is_bridge: vertex id out of range"));
      }
      auto snap = skeleton_->Current();
      if (!snap->status.ok()) {
        ServeResponse resp = Refuse(req.op, snap->status);
        StampSnapshot(*snap, &resp);
        return resp;
      }
      auto index = BridgeIndexFor(snap->payload);
      ServeResponse resp;
      resp.op = req.op;
      StampSnapshot(*snap, &resp);
      resp.value = index->IsBridge(static_cast<VertexId>(req.u),
                                   static_cast<VertexId>(req.v))
                       ? 1
                       : 0;
      return resp;
    }
    case ServeOp::kStats: {
      ServeResponse resp;
      resp.op = req.op;
      const auto snap = forest_->Current();
      StampSnapshot(*snap, &resp);
      resp.value = forest_->stats().updates_ingested;
      return resp;
    }
  }
  return Refuse(req.op, Status::InvalidArgument("serve: unknown op"));
}

void SketchServer::HandleFrame(std::span<const uint8_t> request,
                               std::vector<uint8_t>* response) {
  auto req = DecodeServeRequest(request);
  ServeResponse resp;
  if (!req.ok()) {
    resp = Refuse(ServeOp::kPing, req.status());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    ++stats_.errors;
  } else {
    resp = Handle(*req);
  }
  EncodeServeResponse(resp, response);
}

SketchServer::Stats SketchServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace serve
}  // namespace gms
