#include "sparsify/sparsifier_sketch.h"

#include <algorithm>
#include <cmath>
#include <new>

#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {

size_t SparsifierParams::ResolveLevels(size_t n) const {
  if (levels > 0) return levels;
  double log_n = std::log2(static_cast<double>(std::max<size_t>(n, 2)));
  return static_cast<size_t>(std::ceil(3.0 * log_n));
}

size_t SparsifierParams::ResolveK(size_t n, size_t max_rank,
                                  size_t resolved_levels) const {
  if (k > 0) return k;
  GMS_CHECK(epsilon > 0);
  double eps = epsilon;
  if (reparameterize) eps /= 2.0 * static_cast<double>(resolved_levels);
  double ln_n = std::log(static_cast<double>(std::max<size_t>(n, 2)));
  double value =
      k_constant / (eps * eps) * (ln_n + static_cast<double>(max_rank));
  return std::max<size_t>(1, static_cast<size_t>(std::ceil(value)));
}

HypergraphSparsifierSketch::HypergraphSparsifierSketch(size_t n,
                                                       size_t max_rank,
                                                       const Params& params,
                                                       uint64_t seed)
    : n_(n), seed_(seed), params_(params), codec_(n, max_rank) {
  Rng rng(seed);
  size_t levels = params.ResolveLevels(n);
  k_ = params.ResolveK(n, max_rank, levels);
  sample_hash_ = LevelHash(rng.Fork(), static_cast<int>(levels));
  level_sketches_.reserve(levels + 1);
  for (size_t i = 0; i <= levels; ++i) {
    level_sketches_.emplace_back(n, max_rank, k_, rng.Fork(), params.forest);
  }
}

HypergraphSparsifierSketch::HypergraphSparsifierSketch(
    const HypergraphSparsifierSketch& other, CloneEmptyTag)
    : n_(other.n_),
      k_(other.k_),
      seed_(other.seed_),
      params_(other.params_),
      codec_(other.codec_),
      sample_hash_(other.sample_hash_) {
  level_sketches_.reserve(other.level_sketches_.size());
  for (const auto& level : other.level_sketches_) {
    level_sketches_.push_back(level.CloneEmpty());
  }
}

int HypergraphSparsifierSketch::SampleLevel(const Hyperedge& e) const {
  return sample_hash_.Level(codec_.Encode(e));
}

void HypergraphSparsifierSketch::Update(const Hyperedge& e, int delta) {
  const PreparedCoord pc = PrepareCoord(codec_.Encode(e));
  int depth = sample_hash_.LevelFolded(pc.fold);
  for (int i = 0; i <= depth && i < static_cast<int>(level_sketches_.size());
       ++i) {
    level_sketches_[static_cast<size_t>(i)].UpdatePrepared(e, pc, delta);
  }
}

void HypergraphSparsifierSketch::Process(std::span<const StreamUpdate> updates) {
  if (updates.empty()) return;
  // Prepare each update's coordinate once (the sampling hash and every
  // level row share the same (n, max_rank) domain and the fold is
  // hash-independent) and derive its sampling depth from the shared fold.
  std::vector<PreparedCoord> prepared(updates.size());
  std::vector<int> depths(updates.size());
  for (size_t j = 0; j < updates.size(); ++j) {
    prepared[j] = PrepareCoord(codec_.Encode(updates[j].edge));
    depths[j] = sample_hash_.LevelFolded(prepared[j].fold);
  }
  // Shard the level rows: each row is an independent linear sketch owned by
  // one worker, ingesting exactly the updates whose depth reaches it.
  ParallelFor(params_.threads, level_sketches_.size(),
              [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < updates.size(); ++j) {
        if (depths[j] >= static_cast<int>(i)) {
          level_sketches_[i].UpdatePrepared(updates[j].edge, prepared[j],
                                            updates[j].delta);
        }
      }
    }
  });
}

void HypergraphSparsifierSketch::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

QueryResult<SparsifierOutput> HypergraphSparsifierSketch::Query() const {
  SparsifierOutput out;
  // Edges already claimed by earlier levels, with their sampling depths so
  // deeper levels subtract only what they ingested.
  std::vector<std::pair<Hyperedge, int>> claimed;
  double weight = 1.0;
  for (size_t i = 0; i < level_sketches_.size(); ++i, weight *= 2.0) {
    std::vector<Hyperedge> to_subtract;
    for (const auto& [e, depth] : claimed) {
      if (depth >= static_cast<int>(i)) to_subtract.push_back(e);
    }
    // Recover(pre_subtract) peels the claimed edges through the same
    // per-extraction overlay as its recovered layers; nothing is copied.
    auto recovered = level_sketches_[i].Recover(to_subtract);
    if (!recovered.ok()) {
      return QueryResult<SparsifierOutput>(recovered.status());
    }
    const auto& f_i = recovered->light.Edges();
    out.level_sizes.push_back(f_i.size());
    for (const auto& e : f_i) {
      out.sparsifier.edges.push_back(e);
      out.sparsifier.weights.push_back(weight);
      claimed.emplace_back(e, SampleLevel(e));
    }
    // Stop early once a level is fully consumed with nothing heavier left:
    // all deeper levels are subsets and thus also empty after subtraction.
    if (f_i.empty() && !recovered->residual_nonempty) break;
    if (i + 1 == level_sketches_.size() && recovered->residual_nonempty) {
      out.truncated = true;
    }
  }
  return QueryResult<SparsifierOutput>(std::move(out));
}

Status HypergraphSparsifierSketch::MergeFrom(
    const HypergraphSparsifierSketch& other) {
  if (seed_ != other.seed_ || n_ != other.n_ || k_ != other.k_ ||
      codec_.max_rank() != other.codec_.max_rank() ||
      level_sketches_.size() != other.level_sketches_.size()) {
    return Status::InvalidArgument(
        "HypergraphSparsifierSketch::MergeFrom: seed/shape mismatch "
        "(different measurement)");
  }
  for (size_t i = 0; i < level_sketches_.size(); ++i) {
    if (level_sketches_[i].seed() != other.level_sketches_[i].seed() ||
        level_sketches_[i].MemoryBytes() !=
            other.level_sketches_[i].MemoryBytes()) {
      return Status::InvalidArgument(
          "HypergraphSparsifierSketch::MergeFrom: seed/shape mismatch "
          "(different measurement)");
    }
  }
  for (size_t i = 0; i < level_sketches_.size(); ++i) {
    GMS_RETURN_IF_ERROR(level_sketches_[i].MergeFrom(other.level_sketches_[i]));
  }
  return Status::OK();
}

bool HypergraphSparsifierSketch::SnapshotDirty() const {
  for (const auto& level : level_sketches_) {
    if (level.SnapshotDirty()) return true;
  }
  return false;
}

void HypergraphSparsifierSketch::Clear() {
  for (auto& level : level_sketches_) level.Clear();
}

void HypergraphSparsifierSketch::Serialize(std::vector<uint8_t>* out) const {
  wire::FrameBuilder fb(wire::FrameType::kSparsifier, out);
  fb.writer().U64(n_);
  fb.writer().U64(codec_.max_rank());
  // levels and k travel resolved, so epsilon/k_constant (doubles that only
  // feed the resolution formulas) never have to round-trip.
  fb.writer().U64(levels());
  fb.writer().U64(k_);
  fb.writer().U64(seed_);
  ForestSketchParams resolved = params_.forest;
  resolved.rounds = level_sketches_[0].rounds();
  WriteForestParams(resolved, &fb.writer());
  fb.EndHeader();
  for (const auto& level : level_sketches_) level.AppendCells(&fb.writer());
  fb.Finish();
}

Result<HypergraphSparsifierSketch> HypergraphSparsifierSketch::Deserialize(
    std::span<const uint8_t> bytes) {
  auto frame = wire::ParseFrame(bytes, wire::FrameType::kSparsifier);
  if (!frame.ok()) return frame.status();
  wire::Reader header(frame->header);
  uint64_t n = 0, max_rank = 0, levels = 0, k = 0, seed = 0;
  ForestSketchParams forest;
  GMS_RETURN_IF_ERROR(header.U64(&n));
  GMS_RETURN_IF_ERROR(header.U64(&max_rank));
  GMS_RETURN_IF_ERROR(header.U64(&levels));
  GMS_RETURN_IF_ERROR(header.U64(&k));
  GMS_RETURN_IF_ERROR(header.U64(&seed));
  GMS_RETURN_IF_ERROR(ReadForestParams(&header, &forest));
  GMS_RETURN_IF_ERROR(header.ExpectEnd());
  if (n < 1 || n > (uint64_t{1} << 32) || max_rank < 2 || max_rank > n ||
      levels < 1 || levels > (uint64_t{1} << 16) || k < 1 ||
      k > (uint64_t{1} << 24) || forest.rounds < 1) {
    return Status::InvalidArgument("wire: sparsifier shape out of range");
  }
  // levels+1 recovery structures, each a (k+1)-layer skeleton of all-active
  // forests: skim each forest's self-sizing cell section in turn and
  // require the sum to account for the payload exactly BEFORE construction,
  // so in-range fields with an astronomical product cannot command
  // allocations the payload never backs.
  auto words = ForestStateWords(static_cast<size_t>(n),
                                static_cast<size_t>(max_rank), forest.config);
  if (!words.ok()) return words.status();
  const uint64_t forests = (levels + 1) * (k + 1);  // <= 2^41 by the caps
  size_t offset = 0;
  for (uint64_t i = 0; i < forests; ++i) {
    auto section = SkimForestCellSection(
        frame->payload.subspan(offset), n,
        static_cast<uint64_t>(forest.rounds), *words,
        forest.config.sparse_threshold);
    if (!section.ok()) return section.status();
    offset += *section;
  }
  if (offset != frame->payload.size()) {
    return Status::InvalidArgument(
        "wire: sparsifier payload size disagrees with the header shape");
  }
  SparsifierParams params;
  params.levels = static_cast<size_t>(levels);
  params.k = static_cast<size_t>(k);
  params.forest = forest;
  try {
    HypergraphSparsifierSketch sketch(static_cast<size_t>(n),
                                      static_cast<size_t>(max_rank), params,
                                      seed);
    wire::Reader payload(frame->payload);
    for (auto& level : sketch.level_sketches_) {
      GMS_RETURN_IF_ERROR(level.ReadCells(&payload));
    }
    GMS_RETURN_IF_ERROR(payload.ExpectEnd());
    return sketch;
  } catch (const std::bad_alloc&) {
    return Status::InvalidArgument(
        "wire: sparsifier shape too large for available memory");
  }
}

size_t HypergraphSparsifierSketch::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

size_t HypergraphSparsifierSketch::MemoryBytes() const {
  size_t total = 0;
  for (const auto& level : level_sketches_) total += level.MemoryBytes();
  return total;
}

bool HypergraphSparsifierSketch::StateEquals(
    const HypergraphSparsifierSketch& other) const {
  if (level_sketches_.size() != other.level_sketches_.size()) return false;
  for (size_t i = 0; i < level_sketches_.size(); ++i) {
    if (!level_sketches_[i].StateEquals(other.level_sketches_[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace gms
