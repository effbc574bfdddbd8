#include "vertexconn/vc_query_sketch.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <string>

#include "exact/vertex_connectivity.h"
#include "graph/traversal.h"
#include "stream/sharded_merge.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {

Result<std::vector<VertexId>> NormalizeQuerySet(const std::vector<VertexId>& s,
                                                size_t n, size_t k) {
  std::vector<VertexId> distinct;
  distinct.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const VertexId v = s[i];
    if (v >= n) {
      // Cite the position in the CALLER'S vector, before dedup, so the
      // caller can index straight into what they passed.
      return Status::InvalidArgument(
          "query vertex id out of range at position " + std::to_string(i) +
          ": " + std::to_string(v) + " >= n=" + std::to_string(n));
    }
    if (std::find(distinct.begin(), distinct.end(), v) == distinct.end()) {
      distinct.push_back(v);
    }
  }
  if (distinct.size() > k) {
    return Status::InvalidArgument("query set larger than the sketch's k");
  }
  return distinct;
}

std::vector<bool> DrawKeptBitmap(Rng& rng, size_t n, size_t k) {
  std::vector<bool> kept(n, false);
  for (VertexId v = 0; v < n; ++v) {
    // Delete with probability 1 - 1/k, i.e. keep with probability 1/k.
    kept[v] = rng.Bernoulli(1.0 / static_cast<double>(k));
  }
  return kept;
}

uint64_t CountKeptVertices(uint64_t seed, size_t n, size_t k, size_t r) {
  uint64_t total = 0;
  for (uint64_t c : KeptVertexCounts(seed, n, k, r)) total += c;
  return total;
}

std::vector<uint64_t> KeptVertexCounts(uint64_t seed, size_t n, size_t k,
                                       size_t r) {
  Rng rng(seed);
  std::vector<uint64_t> counts;
  counts.reserve(r);
  for (size_t i = 0; i < r; ++i) {
    const std::vector<bool> kept = DrawKeptBitmap(rng, n, k);
    uint64_t total = 0;
    for (bool b : kept) total += b ? 1 : 0;
    counts.push_back(total);
    rng.Fork();  // consumed by the sketch seed in the constructor replay
  }
  return counts;
}

SubsampledForestUnion::SubsampledForestUnion(size_t n, size_t k,
                                             size_t r_subgraphs, uint64_t seed,
                                             const ForestSketchParams& params,
                                             const EngineParams& engine)
    : n_(n), k_(k), seed_(seed), engine_(engine), covered_(n, false) {
  GMS_CHECK(k >= 1);
  GMS_CHECK(r_subgraphs >= 1);
  Rng rng(seed);
  kept_.reserve(r_subgraphs);
  sketches_.reserve(r_subgraphs);
  for (size_t i = 0; i < r_subgraphs; ++i) {
    kept_.push_back(DrawKeptBitmap(rng, n, k));
    for (VertexId v = 0; v < n; ++v) {
      if (kept_[i][v]) covered_[v] = true;
    }
    sketches_.emplace_back(n, /*max_rank=*/2, rng.Fork(), params, &kept_[i]);
  }
}

SubsampledForestUnion::SubsampledForestUnion(const SubsampledForestUnion& other,
                                             CloneEmptyTag)
    : n_(other.n_),
      k_(other.k_),
      seed_(other.seed_),
      engine_(other.engine_),
      kept_(other.kept_),
      covered_(other.covered_) {
  sketches_.reserve(other.sketches_.size());
  for (const auto& sketch : other.sketches_) {
    sketches_.push_back(sketch.CloneEmpty());
  }
}

void SubsampledForestUnion::Update(const Edge& e, int delta) {
  Hyperedge he(e);
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (kept_[i][e.u()] && kept_[i][e.v()]) {
      sketches_[i].Update(he, delta);
    }
  }
}

uint64_t SubsampledForestUnion::PlaneRouteMask(const Hyperedge& e) const {
  const size_t r = std::min<size_t>(sketches_.size(), 64);
  uint64_t mask = 0;
  for (size_t i = 0; i < r; ++i) {
    if (kept_[i][e[0]] && kept_[i][e[1]]) mask |= uint64_t{1} << i;
  }
  return mask;
}

void SubsampledForestUnion::ApplyUpdateBatch(
    VertexId v, std::span<const VertexUpdate> batch) {
  std::vector<VertexUpdate> routed;
  routed.reserve(batch.size());
  for (size_t i = 0; i < sketches_.size(); ++i) {
    const uint64_t bit = uint64_t{1} << i;
    routed.clear();
    for (const VertexUpdate& u : batch) {
      if (u.route & bit) routed.push_back(u);
    }
    if (!routed.empty()) {
      sketches_[i].ApplyUpdateBatch(v, routed);
    }
  }
}

void SubsampledForestUnion::Process(std::span<const StreamUpdate> updates) {
  if (sketches_.empty() || updates.empty()) return;
  if (UseShardedMerge(engine_, updates.size())) {
    ShardedMergeIngest(this, updates,
                       ShardedMergeShards(engine_.threads, updates.size()));
    return;
  }
  // Encode and prepare once per update: every subsample shares the same
  // (n, 2) codec, and the key fold / exponent reduction are shape-
  // independent, so none of the per-key arithmetic is re-derived R times.
  const EdgeCodec& codec = sketches_[0].codec();
  std::vector<PreparedCoord> prepared(updates.size());
  for (size_t j = 0; j < updates.size(); ++j) {
    GMS_CHECK_MSG(updates[j].edge.IsGraphEdge(),
                  "vertex-connectivity sketches take graph streams");
    prepared[j] = PrepareCoord(codec.Encode(updates[j].edge));
  }
  // Shard the R independent sketches: each is owned by exactly one worker
  // and sees its updates in stream order, so the result is bit-identical
  // to the serial path.
  ParallelFor(engine_.threads, sketches_.size(),
              [&](size_t begin, size_t end) {
    std::vector<uint32_t> hits;
    for (size_t i = begin; i < end; ++i) {
      const std::vector<bool>& kept = kept_[i];
      // Collect this subsample's surviving updates first (~1/k^2 of the
      // stream), then ingest with a prefetch lookahead measured in actual
      // work items, so each sketch update's cold cells are in flight well
      // before its turn.
      hits.clear();
      for (size_t j = 0; j < updates.size(); ++j) {
        const Hyperedge& e = updates[j].edge;
        if (kept[e[0]] && kept[e[1]]) hits.push_back(static_cast<uint32_t>(j));
      }
      constexpr size_t kPrefetchAhead = 8;
      for (size_t h = 0; h < hits.size(); ++h) {
        if (h + kPrefetchAhead < hits.size()) {
          const size_t jp = hits[h + kPrefetchAhead];
          sketches_[i].PrefetchPrepared(updates[jp].edge, prepared[jp]);
        }
        const size_t j = hits[h];
        sketches_[i].UpdatePrepared(updates[j].edge, prepared[j],
                                    updates[j].delta);
      }
    }
  });
}

void SubsampledForestUnion::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

Result<Graph> SubsampledForestUnion::BuildUnionGraph(
    ExtractStats* stats) const {
  // Fan the R independent extractions out across the pool; assemble H
  // serially in sketch order (Graph equality is order-insensitive, but a
  // fixed merge order also keeps error propagation deterministic). Each
  // worker runs its sketches' decodes serially, so it reuses one
  // thread-local extraction scratch for all of them.
  std::vector<std::vector<Hyperedge>> forest_edges(sketches_.size());
  std::vector<Status> status(sketches_.size());
  std::vector<ExtractStats> per_sketch(stats != nullptr ? sketches_.size()
                                                        : 0);
  ParallelFor(engine_.threads, sketches_.size(),
              [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // All-sparse forests decode exactly from their buffers alone --
      // skip the whole Borůvka loop (stats count the skip).
      auto forest =
          sketches_[i].AllSparse()
              ? sketches_[i].ExtractSparseExact(
                    stats != nullptr ? &per_sketch[i] : nullptr)
              : sketches_[i].ExtractSpanningGraph(
                    /*threads=*/1, stats != nullptr ? &per_sketch[i] : nullptr);
      if (!forest.ok()) {
        status[i] = forest.status();
        continue;
      }
      forest_edges[i] = forest->Edges();
    }
  });
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  if (stats != nullptr) {
    *stats = ExtractStats();
    for (const auto& s : per_sketch) AccumulateExtractStats(s, stats);
  }
  Graph h(n_);
  for (const auto& edges : forest_edges) {
    for (const auto& e : edges) h.AddEdge(e.AsEdge());
  }
  return h;
}

bool SubsampledForestUnion::StateEquals(
    const SubsampledForestUnion& other) const {
  if (sketches_.size() != other.sketches_.size()) return false;
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (!sketches_[i].StateEquals(other.sketches_[i])) return false;
  }
  return true;
}

bool SubsampledForestUnion::SnapshotDirty() const {
  for (const auto& sketch : sketches_) {
    if (sketch.SnapshotDirty()) return true;
  }
  return false;
}

size_t SubsampledForestUnion::NumUncovered() const {
  size_t count = 0;
  for (bool c : covered_) count += c ? 0 : 1;
  return count;
}

size_t SubsampledForestUnion::MemoryBytes() const {
  size_t total = 0;
  for (const auto& sketch : sketches_) total += sketch.MemoryBytes();
  return total;
}

Status SubsampledForestUnion::MergeFrom(const SubsampledForestUnion& other) {
  if (seed_ != other.seed_ || n_ != other.n_ || k_ != other.k_ ||
      sketches_.size() != other.sketches_.size()) {
    return Status::InvalidArgument(
        "SubsampledForestUnion::MergeFrom: seed/shape mismatch (different "
        "measurement)");
  }
  // Equal (seed, n, k, R) pins the kept_ bitmaps; validate the per-sketch
  // geometry BEFORE mutating anything so a forest-params mismatch leaves
  // the whole union untouched.
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (sketches_[i].seed() != other.sketches_[i].seed() ||
        sketches_[i].rounds() != other.sketches_[i].rounds() ||
        sketches_[i].MemoryBytes() != other.sketches_[i].MemoryBytes()) {
      return Status::InvalidArgument(
          "SubsampledForestUnion::MergeFrom: seed/shape mismatch (different "
          "measurement)");
    }
  }
  for (size_t i = 0; i < sketches_.size(); ++i) {
    GMS_RETURN_IF_ERROR(sketches_[i].MergeFrom(other.sketches_[i]));
  }
  return Status::OK();
}

void SubsampledForestUnion::Clear() {
  for (auto& sketch : sketches_) sketch.Clear();
}

void SubsampledForestUnion::AppendCells(wire::Writer* w) const {
  for (const auto& sketch : sketches_) sketch.AppendCells(w);
}

Status SubsampledForestUnion::ReadCells(wire::Reader* r) {
  for (auto& sketch : sketches_) {
    GMS_RETURN_IF_ERROR(sketch.ReadCells(r));
  }
  return Status::OK();
}

size_t VcQueryParams::ResolveR(size_t n) const {
  if (explicit_r > 0) return explicit_r;
  double paper_r = 16.0 * static_cast<double>(k) * static_cast<double>(k) *
                   std::log(static_cast<double>(std::max<size_t>(n, 2)));
  size_t r = static_cast<size_t>(std::ceil(r_multiplier * paper_r));
  return std::max<size_t>(r, 1);
}

VcQuerySketch::VcQuerySketch(size_t n, const Params& params, uint64_t seed)
    : params_(params),
      seed_(seed),
      forests_(n, params.k, params.ResolveR(n), seed, params.forest,
               params.engine) {}

Result<bool> VcUnionSnapshot::Disconnects(
    const std::vector<VertexId>& s) const {
  auto distinct = NormalizeQuerySet(s, n_, k_);
  if (!distinct.ok()) return distinct.status();
  return !IsConnectedExcluding(h_, *distinct);
}

Result<bool> VcUnionSnapshot::VertexConnectivityAtLeast(size_t t) const {
  if (t == 0) return true;
  if (t > k_ + 1) {
    return Status::InvalidArgument(
        "VertexConnectivityAtLeast: t exceeds the sketch's k + 1 (Lemma 3 "
        "only covers removal sets up to k)");
  }
  return IsKVertexConnected(h_, t);
}

QueryResult<VcUnionSnapshot> VcQuerySketch::Query() const {
  ExtractStats stats;
  auto h = forests_.BuildUnionGraph(&stats);
  if (!h.ok()) return QueryResult<VcUnionSnapshot>(h.status());
  return QueryResult<VcUnionSnapshot>(
      VcUnionSnapshot(std::move(*h), forests_.n(), params_.k),
      std::move(stats));
}

Status VcQuerySketch::MergeFrom(const VcQuerySketch& other) {
  if (params_.k != other.params_.k || R() != other.R()) {
    return Status::InvalidArgument(
        "VcQuerySketch::MergeFrom: seed/shape mismatch (different "
        "measurement)");
  }
  return forests_.MergeFrom(other.forests_);
}

void VcQuerySketch::Clear() { forests_.Clear(); }

void VcQuerySketch::Serialize(std::vector<uint8_t>* out) const {
  wire::FrameBuilder fb(wire::FrameType::kVcQuery, out);
  fb.writer().U64(forests_.n());
  fb.writer().U64(params_.k);
  // R travels resolved so r_multiplier never has to round-trip a double.
  fb.writer().U64(forests_.R());
  fb.writer().U64(seed_);
  ForestSketchParams resolved = params_.forest;
  resolved.rounds = forests_.rounds();
  WriteForestParams(resolved, &fb.writer());
  fb.EndHeader();
  forests_.AppendCells(&fb.writer());
  fb.Finish();
}

Result<VcQuerySketch> VcQuerySketch::Deserialize(
    std::span<const uint8_t> bytes) {
  auto frame = wire::ParseFrame(bytes, wire::FrameType::kVcQuery);
  if (!frame.ok()) return frame.status();
  wire::Reader header(frame->header);
  uint64_t n = 0, k = 0, r = 0, seed = 0;
  ForestSketchParams forest;
  GMS_RETURN_IF_ERROR(header.U64(&n));
  GMS_RETURN_IF_ERROR(header.U64(&k));
  GMS_RETURN_IF_ERROR(header.U64(&r));
  GMS_RETURN_IF_ERROR(header.U64(&seed));
  GMS_RETURN_IF_ERROR(ReadForestParams(&header, &forest));
  GMS_RETURN_IF_ERROR(header.ExpectEnd());
  if (n < 1 || n > (uint64_t{1} << 32) || k < 1 || k > n || r < 1 ||
      r > (uint64_t{1} << 24) || forest.rounds < 1) {
    return Status::InvalidArgument("wire: vc-query shape out of range");
  }
  // Reconstruction cost scales with n * R (index state + bitmap replay per
  // subsample) no matter how small the payload is, so bound the product
  // first, then verify the payload equals the shape-implied size by
  // replaying the seeded subsample draws -- all before constructing.
  auto words = ForestStateWords(static_cast<size_t>(n), /*max_rank=*/2,
                                forest.config);
  if (!words.ok()) return words.status();
  if (static_cast<u128>(n) * r > kMaxDeserializeSubsampleDraws) {
    return Status::InvalidArgument(
        "wire: vc-query shape too large to reconstruct");
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
        "wire: vc-query payload size disagrees with the header shape");
  }
  VcQueryParams params;
  params.k = static_cast<size_t>(k);
  params.explicit_r = static_cast<size_t>(r);
  params.forest = forest;
  try {
    VcQuerySketch sketch(static_cast<size_t>(n), params, seed);
    wire::Reader payload(frame->payload);
    GMS_RETURN_IF_ERROR(sketch.forests_.ReadCells(&payload));
    GMS_RETURN_IF_ERROR(payload.ExpectEnd());
    return sketch;
  } catch (const std::bad_alloc&) {
    // Belt and braces: an in-cap shape can still exceed THIS machine.
    return Status::OutOfRange("wire: vc-query shape exhausts memory");
  }
}

size_t VcQuerySketch::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

}  // namespace gms
