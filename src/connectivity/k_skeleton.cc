#include "connectivity/k_skeleton.h"

#include <new>

#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {

KSkeletonSketch::KSkeletonSketch(size_t n, size_t max_rank, size_t k,
                                 uint64_t seed, const Params& params)
    : n_(n), k_(k), seed_(seed), params_(params) {
  GMS_CHECK(k >= 1);
  Rng rng(seed);
  layers_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    layers_.emplace_back(n, max_rank, rng.Fork(), params);
  }
}

KSkeletonSketch::KSkeletonSketch(const KSkeletonSketch& other, CloneEmptyTag)
    : n_(other.n_), k_(other.k_), seed_(other.seed_), params_(other.params_) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) {
    layers_.push_back(layer.CloneEmpty());
  }
}

void KSkeletonSketch::Update(const Hyperedge& e, int delta) {
  if (layers_.empty()) return;
  UpdatePrepared(e, PrepareCoord(layers_[0].codec().Encode(e)), delta);
}

void KSkeletonSketch::UpdatePrepared(const Hyperedge& e,
                                     const PreparedCoord& pc, int delta) {
  for (auto& layer : layers_) layer.UpdatePrepared(e, pc, delta);
}

void KSkeletonSketch::Process(std::span<const StreamUpdate> updates) {
  if (layers_.empty() || updates.empty()) return;
  // One encode + coordinate preparation per update, shared by all k layers.
  const EdgeCodec& codec = layers_[0].codec();
  std::vector<PreparedCoord> prepared(updates.size());
  for (size_t j = 0; j < updates.size(); ++j) {
    GMS_CHECK_MSG(updates[j].edge.size() <= codec.max_rank(),
                  "hyperedge exceeds max_rank");
    prepared[j] = PrepareCoord(codec.Encode(updates[j].edge));
  }
  // Layers are independent sketches; shard them across the pool.
  ParallelFor(params_.threads, layers_.size(),
              [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < updates.size(); ++j) {
        layers_[i].UpdatePrepared(updates[j].edge, prepared[j],
                                  updates[j].delta);
      }
    }
  });
}

void KSkeletonSketch::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

void KSkeletonSketch::RemoveHyperedges(const std::vector<Hyperedge>& edges) {
  for (auto& layer : layers_) layer.RemoveHyperedges(edges);
}

QueryResult<Hypergraph> KSkeletonSketch::Query(
    std::span<const Hyperedge> peeled) const {
  Hypergraph skeleton(n_);
  // Layer i peels `peeled` and F_1 .. F_{i-1}. Without an outside peel set
  // that is the skeleton's own edge list, so no edge is copied for it.
  std::vector<Hyperedge> accumulated(peeled.begin(), peeled.end());
  ExtractStats stats;
  for (size_t i = 0; i < k_; ++i) {
    // A^i(G - F_1 - ... - F_{i-1}) = A^i(G) - sum_j A^i(F_j): layer i
    // decodes with the accumulated layers as its peel set. Layers must
    // decode sequentially (each peels its predecessors), but each decode's
    // per-round component summations use the pool.
    QueryResult<Hypergraph> forest = layers_[i].Query(
        params_.threads, peeled.empty() ? skeleton.Edges() : accumulated);
    if (!forest.ok()) return QueryResult<Hypergraph>(forest.status());
    AccumulateExtractStats(forest.stats(), &stats);
    if (i == 0 && peeled.empty()) {
      skeleton = std::move(forest).value();  // F_1's edges are distinct
      continue;
    }
    for (const auto& e : forest.value().Edges()) {
      if (skeleton.AddEdge(e) && !peeled.empty()) accumulated.push_back(e);
    }
  }
  return QueryResult<Hypergraph>(std::move(skeleton), std::move(stats));
}

bool KSkeletonSketch::SnapshotDirty() const {
  for (const auto& layer : layers_) {
    if (layer.SnapshotDirty()) return true;
  }
  return false;
}

Status KSkeletonSketch::MergeFrom(const KSkeletonSketch& other) {
  if (seed_ != other.seed_ || n_ != other.n_ || k_ != other.k_ ||
      layers_.size() != other.layers_.size()) {
    return Status::InvalidArgument(
        "KSkeletonSketch::MergeFrom: seed/shape mismatch (different "
        "measurement)");
  }
  // Validate every layer pair before mutating any, so a mismatch leaves the
  // whole sketch untouched. Layer seeds derive from the same fork chain, so
  // equal top-level seeds imply equal layer seeds; the check below catches
  // differing max_rank/params.
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].seed() != other.layers_[i].seed() ||
        layers_[i].max_rank() != other.layers_[i].max_rank() ||
        layers_[i].rounds() != other.layers_[i].rounds()) {
      return Status::InvalidArgument(
          "KSkeletonSketch::MergeFrom: seed/shape mismatch (different "
          "measurement)");
    }
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    GMS_RETURN_IF_ERROR(layers_[i].MergeFrom(other.layers_[i]));
  }
  return Status::OK();
}

void KSkeletonSketch::Clear() {
  for (auto& layer : layers_) layer.Clear();
}

void KSkeletonSketch::AppendCells(wire::Writer* w) const {
  for (const auto& layer : layers_) layer.AppendCells(w);
}

Status KSkeletonSketch::ReadCells(wire::Reader* r) {
  for (auto& layer : layers_) {
    GMS_RETURN_IF_ERROR(layer.ReadCells(r));
  }
  return Status::OK();
}

void KSkeletonSketch::Serialize(std::vector<uint8_t>* out) const {
  wire::FrameBuilder fb(wire::FrameType::kKSkeleton, out);
  fb.writer().U64(n_);
  fb.writer().U64(max_rank());
  fb.writer().U64(k_);
  fb.writer().U64(seed_);
  Params resolved = params_;
  resolved.rounds = layers_[0].rounds();
  WriteForestParams(resolved, &fb.writer());
  fb.EndHeader();
  AppendCells(&fb.writer());
  fb.Finish();
}

Result<KSkeletonSketch> KSkeletonSketch::Deserialize(
    std::span<const uint8_t> bytes) {
  auto frame = wire::ParseFrame(bytes, wire::FrameType::kKSkeleton);
  if (!frame.ok()) return frame.status();
  wire::Reader header(frame->header);
  uint64_t n = 0, max_rank = 0, k = 0, seed = 0;
  Params params;
  GMS_RETURN_IF_ERROR(header.U64(&n));
  GMS_RETURN_IF_ERROR(header.U64(&max_rank));
  GMS_RETURN_IF_ERROR(header.U64(&k));
  GMS_RETURN_IF_ERROR(header.U64(&seed));
  GMS_RETURN_IF_ERROR(ReadForestParams(&header, &params));
  GMS_RETURN_IF_ERROR(header.ExpectEnd());
  if (n < 1 || n > (uint64_t{1} << 32) || max_rank < 2 || max_rank > n ||
      k < 1 || k > (uint64_t{1} << 20) || params.rounds < 1) {
    return Status::InvalidArgument("wire: k-skeleton shape out of range");
  }
  // k layers of all-active forests: skim each layer's self-sizing cell
  // section in turn and require the sum to account for the payload exactly
  // BEFORE construction. This keeps hostile in-range header fields (whose
  // PRODUCT is astronomical) from commanding allocations the payload never
  // backs, and applies the hybrid-section caps per layer.
  auto words = ForestStateWords(static_cast<size_t>(n),
                                static_cast<size_t>(max_rank), params.config);
  if (!words.ok()) return words.status();
  size_t offset = 0;
  for (uint64_t i = 0; i < k; ++i) {
    auto section = SkimForestCellSection(
        frame->payload.subspan(offset), n,
        static_cast<uint64_t>(params.rounds), *words,
        params.config.sparse_threshold);
    if (!section.ok()) return section.status();
    offset += *section;
  }
  if (offset != frame->payload.size()) {
    return Status::InvalidArgument(
        "wire: k-skeleton payload size disagrees with the header shape");
  }
  try {
    KSkeletonSketch sketch(static_cast<size_t>(n),
                           static_cast<size_t>(max_rank),
                           static_cast<size_t>(k), seed, params);
    wire::Reader payload(frame->payload);
    GMS_RETURN_IF_ERROR(sketch.ReadCells(&payload));
    GMS_RETURN_IF_ERROR(payload.ExpectEnd());
    return sketch;
  } catch (const std::bad_alloc&) {
    return Status::InvalidArgument(
        "wire: k-skeleton shape too large for available memory");
  }
}

size_t KSkeletonSketch::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

size_t KSkeletonSketch::MemoryBytes() const {
  size_t total = 0;
  for (const auto& layer : layers_) total += layer.MemoryBytes();
  return total;
}

bool KSkeletonSketch::StateEquals(const KSkeletonSketch& other) const {
  if (layers_.size() != other.layers_.size()) return false;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (!layers_[i].StateEquals(other.layers_[i])) return false;
  }
  return true;
}

}  // namespace gms
