#include "vertexconn/hyper_vc_query.h"

#include <new>

#include "graph/traversal.h"
#include "stream/sharded_merge.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {

HyperVcQuerySketch::HyperVcQuerySketch(size_t n, size_t max_rank,
                                       const Params& params, uint64_t seed)
    : n_(n), params_(params), seed_(seed) {
  GMS_CHECK(params.k >= 1);
  Rng rng(seed);
  size_t r_subgraphs = params.ResolveR(n);
  kept_.reserve(r_subgraphs);
  sketches_.reserve(r_subgraphs);
  for (size_t i = 0; i < r_subgraphs; ++i) {
    kept_.push_back(DrawKeptBitmap(rng, n, params.k));
    sketches_.emplace_back(n, max_rank, rng.Fork(), params.forest, &kept_[i]);
  }
}

HyperVcQuerySketch::HyperVcQuerySketch(const HyperVcQuerySketch& other,
                                       CloneEmptyTag)
    : n_(other.n_),
      params_(other.params_),
      seed_(other.seed_),
      kept_(other.kept_) {
  sketches_.reserve(other.sketches_.size());
  for (const auto& sketch : other.sketches_) {
    sketches_.push_back(sketch.CloneEmpty());
  }
}

void HyperVcQuerySketch::Update(const Hyperedge& e, int delta) {
  for (size_t i = 0; i < sketches_.size(); ++i) {
    bool all_kept = true;
    for (VertexId v : e) all_kept &= kept_[i][v];
    if (all_kept) sketches_[i].Update(e, delta);
  }
}

void HyperVcQuerySketch::Process(std::span<const StreamUpdate> updates) {
  if (sketches_.empty() || updates.empty()) return;
  if (UseShardedMerge(params_.engine, updates.size())) {
    ShardedMergeIngest(
        this, updates,
        ShardedMergeShards(params_.engine.threads, updates.size()));
    return;
  }
  // One encode + coordinate preparation per update, shared across the R
  // subsamples.
  const EdgeCodec& codec = sketches_[0].codec();
  std::vector<PreparedCoord> prepared(updates.size());
  for (size_t j = 0; j < updates.size(); ++j) {
    GMS_CHECK_MSG(updates[j].edge.size() <= codec.max_rank(),
                  "hyperedge exceeds max_rank");
    prepared[j] = PrepareCoord(codec.Encode(updates[j].edge));
  }
  ParallelFor(params_.engine.threads, sketches_.size(),
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  const std::vector<bool>& kept = kept_[i];
                  for (size_t j = 0; j < updates.size(); ++j) {
                    const Hyperedge& e = updates[j].edge;
                    bool all_kept = true;
                    for (VertexId v : e) all_kept &= kept[v];
                    if (all_kept) {
                      sketches_[i].UpdatePrepared(e, prepared[j],
                                                  updates[j].delta);
                    }
                  }
                }
              });
}

void HyperVcQuerySketch::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

Result<Hypergraph> HyperVcQuerySketch::BuildUnionHypergraph(
    ExtractStats* stats) const {
  // R independent decodes fan out across the pool (each worker reuses its
  // thread-local extraction scratch); H is assembled serially in sketch
  // order, so the union graph is deterministic.
  std::vector<std::vector<Hyperedge>> decoded(sketches_.size());
  std::vector<Status> status(sketches_.size());
  std::vector<ExtractStats> per_sketch(stats != nullptr ? sketches_.size()
                                                        : 0);
  ParallelFor(params_.engine.threads, sketches_.size(),
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  // All-sparse forests decode exactly from their buffers
                  // alone -- skip the whole Borůvka loop (stats count the
                  // skip).
                  auto span =
                      sketches_[i].AllSparse()
                          ? sketches_[i].ExtractSparseExact(
                                stats != nullptr ? &per_sketch[i] : nullptr)
                          : sketches_[i].ExtractSpanningGraph(
                                /*threads=*/1,
                                stats != nullptr ? &per_sketch[i] : nullptr);
                  if (!span.ok()) {
                    status[i] = span.status();
                    continue;
                  }
                  decoded[i] = span->Edges();
                }
              });
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  if (stats != nullptr) {
    *stats = ExtractStats();
    for (const auto& s : per_sketch) AccumulateExtractStats(s, stats);
  }
  Hypergraph h(n_);
  for (const auto& edges : decoded) {
    for (const auto& e : edges) h.AddEdge(e);
  }
  return h;
}

QueryResult<HyperVcUnionSnapshot> HyperVcQuerySketch::Query() const {
  ExtractStats stats;
  auto h = BuildUnionHypergraph(&stats);
  if (!h.ok()) return QueryResult<HyperVcUnionSnapshot>(h.status());
  return QueryResult<HyperVcUnionSnapshot>(
      HyperVcUnionSnapshot(std::move(*h), n_, params_.k), std::move(stats));
}

bool HyperVcQuerySketch::SnapshotDirty() const {
  for (const auto& sketch : sketches_) {
    if (sketch.SnapshotDirty()) return true;
  }
  return false;
}

Result<bool> HyperVcUnionSnapshot::Disconnects(
    const std::vector<VertexId>& s) const {
  auto distinct = NormalizeQuerySet(s, n_, k_);
  if (!distinct.ok()) return distinct.status();
  return !IsConnectedExcluding(h_, *distinct);
}

Status HyperVcQuerySketch::MergeFrom(const HyperVcQuerySketch& other) {
  if (seed_ != other.seed_ || n_ != other.n_ ||
      params_.k != other.params_.k ||
      sketches_.size() != other.sketches_.size()) {
    return Status::InvalidArgument(
        "HyperVcQuerySketch::MergeFrom: seed/shape mismatch (different "
        "measurement)");
  }
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (sketches_[i].seed() != other.sketches_[i].seed() ||
        sketches_[i].max_rank() != other.sketches_[i].max_rank() ||
        sketches_[i].rounds() != other.sketches_[i].rounds() ||
        sketches_[i].MemoryBytes() != other.sketches_[i].MemoryBytes()) {
      return Status::InvalidArgument(
          "HyperVcQuerySketch::MergeFrom: seed/shape mismatch (different "
          "measurement)");
    }
  }
  for (size_t i = 0; i < sketches_.size(); ++i) {
    GMS_RETURN_IF_ERROR(sketches_[i].MergeFrom(other.sketches_[i]));
  }
  return Status::OK();
}

void HyperVcQuerySketch::Clear() {
  for (auto& sketch : sketches_) sketch.Clear();
}

void HyperVcQuerySketch::Serialize(std::vector<uint8_t>* out) const {
  wire::FrameBuilder fb(wire::FrameType::kHyperVcQuery, out);
  fb.writer().U64(n_);
  fb.writer().U64(max_rank());
  fb.writer().U64(params_.k);
  fb.writer().U64(sketches_.size());
  fb.writer().U64(seed_);
  ForestSketchParams resolved = params_.forest;
  resolved.rounds = sketches_[0].rounds();
  WriteForestParams(resolved, &fb.writer());
  fb.EndHeader();
  for (const auto& sketch : sketches_) sketch.AppendCells(&fb.writer());
  fb.Finish();
}

Result<HyperVcQuerySketch> HyperVcQuerySketch::Deserialize(
    std::span<const uint8_t> bytes) {
  auto frame = wire::ParseFrame(bytes, wire::FrameType::kHyperVcQuery);
  if (!frame.ok()) return frame.status();
  wire::Reader header(frame->header);
  uint64_t n = 0, max_rank = 0, k = 0, r = 0, seed = 0;
  ForestSketchParams forest;
  GMS_RETURN_IF_ERROR(header.U64(&n));
  GMS_RETURN_IF_ERROR(header.U64(&max_rank));
  GMS_RETURN_IF_ERROR(header.U64(&k));
  GMS_RETURN_IF_ERROR(header.U64(&r));
  GMS_RETURN_IF_ERROR(header.U64(&seed));
  GMS_RETURN_IF_ERROR(ReadForestParams(&header, &forest));
  GMS_RETURN_IF_ERROR(header.ExpectEnd());
  if (n < 1 || n > (uint64_t{1} << 32) || max_rank < 2 || max_rank > n ||
      k < 1 || k > n || r < 1 || r > (uint64_t{1} << 24) ||
      forest.rounds < 1) {
    return Status::InvalidArgument("wire: hyper-vc shape out of range");
  }
  // Same pre-construction guards as VcQuerySketch::Deserialize: bound the
  // n * R replay/index cost, then verify the payload against the
  // shape-implied size computed by replaying the seeded subsample draws.
  auto words = ForestStateWords(static_cast<size_t>(n),
                                static_cast<size_t>(max_rank), forest.config);
  if (!words.ok()) return words.status();
  if (static_cast<u128>(n) * r > kMaxDeserializeSubsampleDraws) {
    return Status::InvalidArgument(
        "wire: hyper-vc shape too large to reconstruct");
  }
  const std::vector<uint64_t> active_counts = KeptVertexCounts(
      seed, static_cast<size_t>(n), static_cast<size_t>(k),
      static_cast<size_t>(r));
  size_t offset = 0;
  for (uint64_t active : active_counts) {
    auto section = SkimForestCellSection(
        frame->payload.subspan(offset), active,
        static_cast<uint64_t>(forest.rounds), *words,
        forest.config.sparse_threshold);
    if (!section.ok()) return section.status();
    offset += *section;
  }
  if (offset != frame->payload.size()) {
    return Status::InvalidArgument(
        "wire: hyper-vc payload size disagrees with the header shape");
  }
  VcQueryParams params;
  params.k = static_cast<size_t>(k);
  params.explicit_r = static_cast<size_t>(r);
  params.forest = forest;
  try {
    HyperVcQuerySketch sketch(static_cast<size_t>(n),
                              static_cast<size_t>(max_rank), params, seed);
    wire::Reader payload(frame->payload);
    for (auto& layer : sketch.sketches_) {
      GMS_RETURN_IF_ERROR(layer.ReadCells(&payload));
    }
    GMS_RETURN_IF_ERROR(payload.ExpectEnd());
    return sketch;
  } catch (const std::bad_alloc&) {
    // Belt and braces: an in-cap shape can still exceed THIS machine.
    return Status::OutOfRange("wire: hyper-vc shape exhausts memory");
  }
}

size_t HyperVcQuerySketch::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

size_t HyperVcQuerySketch::MemoryBytes() const {
  size_t total = 0;
  for (const auto& sketch : sketches_) total += sketch.MemoryBytes();
  return total;
}

bool HyperVcQuerySketch::StateEquals(const HyperVcQuerySketch& other) const {
  if (sketches_.size() != other.sketches_.size()) return false;
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (!sketches_[i].StateEquals(other.sketches_[i])) return false;
  }
  return true;
}

}  // namespace gms
