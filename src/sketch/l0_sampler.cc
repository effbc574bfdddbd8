#include "sketch/l0_sampler.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {

L0Shape::L0Shape(u128 domain, const SketchConfig& config, uint64_t seed)
    : domain_(domain) {
  GMS_CHECK_MSG(domain >= 1, "empty domain");
  Rng rng(seed);
  int max_level = BitWidth128(domain);  // levels 0..max_level
  level_hash_ = LevelHash(rng.Fork(), max_level);
  selection_hash_ = PolyHash(/*independence=*/2, rng.Fork());
  basis_ =
      std::make_shared<FingerprintBasis>(rng.Below(kMersenne61 - 2) + 1);
  levels_.reserve(static_cast<size_t>(max_level) + 1);
  for (int j = 0; j <= max_level; ++j) {
    levels_.emplace_back(domain, config.sparse_capacity, config.rows,
                         config.BucketsPerRow(), rng.Fork(), basis_);
  }
  segment_words_ = SSparseSegmentWords(levels_[0]);
}

size_t L0Shape::TotalCells() const {
  size_t total = 0;
  for (const auto& shape : levels_) {
    total += static_cast<size_t>(shape.NumCells());
  }
  return total;
}

L0State::L0State(const L0Shape* shape)
    : shape_(shape), buf_(shape->TotalWords(), 0) {}

void L0State::Update(u128 index, int64_t delta) {
  GMS_DCHECK(index < shape_->domain());
  const PreparedCoord pc = PrepareCoord(index);
  L0Resolved res;
  shape_->Resolve(pc, &res);
  L0ApplyResolved(*shape_, buf_.data(), res, pc, delta);
}

void L0State::Add(const L0State& other) {
  GMS_CHECK_MSG(shape_ == other.shape_, "adding L0 states of different shapes");
  AddRaw(other.buf_.data());
}

void L0State::AddRaw(const uint64_t* buf) {
  L0AddRaw(*shape_, buf_.data(), buf);
}

void L0AddRaw(const L0Shape& shape, uint64_t* dst, const uint64_t* src) {
  const size_t words = shape.SegmentWords();
  for (int j = 0; j < shape.num_levels(); ++j) {
    SSparseSegmentAdd(shape.level_shape(j),
                      dst + static_cast<size_t>(j) * words,
                      src + static_cast<size_t>(j) * words);
  }
}

size_t L0AddRawMasked(const L0Shape& shape, uint64_t* dst,
                      const uint64_t* src, uint64_t mask) {
  const size_t words = shape.SegmentWords();
  const int num_levels = shape.num_levels();
  const int capped = num_levels < 63 ? num_levels : 63;
  size_t touched = 0;
  uint64_t low = mask & ~(uint64_t{1} << 63);
  while (low != 0) {
    const int j = std::countr_zero(low);
    low &= low - 1;
    if (j >= capped) break;  // set bits past the level count are vacuous
    SSparseSegmentAdd(shape.level_shape(j),
                      dst + static_cast<size_t>(j) * words,
                      src + static_cast<size_t>(j) * words);
    touched += words;
  }
  if ((mask >> 63) != 0) {
    for (int j = 63; j < num_levels; ++j) {  // bit 63 covers all of these
      SSparseSegmentAdd(shape.level_shape(j),
                        dst + static_cast<size_t>(j) * words,
                        src + static_cast<size_t>(j) * words);
      touched += words;
    }
  }
  return touched;
}

bool L0State::IsZero() const {
  return std::all_of(buf_.begin(), buf_.end(),
                     [](uint64_t v) { return v == 0; });
}

Result<SparseEntry> L0State::Sample() const {
  return L0SampleRaw(*shape_, buf_.data());
}

Result<SparseEntry> L0SampleRaw(const L0Shape& shape, const uint64_t* buf,
                                L0SampleProbe* probe) {
  return L0SampleRawMasked(shape, buf, ~uint64_t{0}, probe);
}

Result<SparseEntry> L0SampleRawMasked(const L0Shape& shape,
                                      const uint64_t* buf, uint64_t mask,
                                      L0SampleProbe* probe) {
  static thread_local SSparseDecoder decoder;
  const size_t words = shape.SegmentWords();
  bool saw_nonzero = false;
  int decode_attempts = 0;
  // Scan from the sparsest (highest) level down; the first level whose
  // recovery decodes a nonempty support yields the sample. Levels the mask
  // clears are guaranteed zero and skip straight past the zero check.
  for (int j = shape.num_levels() - 1; j >= 0; --j) {
    if ((mask & LevelMaskBit(j)) == 0) continue;
    const uint64_t* seg = buf + static_cast<size_t>(j) * words;
    if (std::all_of(seg, seg + words, [](uint64_t v) { return v == 0; })) {
      continue;
    }
    saw_nonzero = true;
    ++decode_attempts;
    auto decoded = decoder.Decode(shape.level_shape(j), seg);
    if (!decoded.ok()) continue;  // too dense here; try a denser level anyway
    const auto& entries = *decoded;
    if (entries.empty()) continue;
    if (probe != nullptr) {
      probe->decode_attempts = decode_attempts;
      probe->saw_nonzero = saw_nonzero;
    }
    // Pick the entry with the smallest selection hash: a symmetric choice,
    // so the returned coordinate is (approximately) uniform on the support.
    const SparseEntry* best = &entries[0];
    uint64_t best_h = shape.SelectionHash(entries[0].index);
    for (size_t t = 1; t < entries.size(); ++t) {
      uint64_t h = shape.SelectionHash(entries[t].index);
      if (h < best_h) {
        best_h = h;
        best = &entries[t];
      }
    }
    return *best;
  }
  if (probe != nullptr) {
    probe->decode_attempts = decode_attempts;
    probe->saw_nonzero = saw_nonzero;
  }
  if (!saw_nonzero) {
    return Status::DecodeFailure("vector is zero (nothing to sample)");
  }
  return Status::DecodeFailure("no decodable level");
}

size_t L0State::MemoryBytes() const {
  return sizeof(*this) + buf_.size() * sizeof(uint64_t);
}

void L0State::Clear() { std::fill(buf_.begin(), buf_.end(), 0); }

uint64_t L0StateWords(u128 domain, const SketchConfig& config) {
  // Mirrors L0Shape: levels 0..BitWidth128(domain), each an s-sparse segment
  // of rows * BucketsPerRow cells at 4 words per cell. ReadSketchConfig caps
  // every factor (and the capacity * buckets product), so this fits u64.
  const uint64_t levels = static_cast<uint64_t>(BitWidth128(domain)) + 1;
  return levels * 4ull * static_cast<uint64_t>(config.rows) *
         static_cast<uint64_t>(config.sparse_capacity) *
         static_cast<uint64_t>(config.buckets_per_capacity);
}

namespace {

// The sampler is purely linear: whatever threshold the caller's config
// carries, the stored (and serialized) config has none.
SketchConfig DenseConfig(SketchConfig config) {
  config.sparse_threshold = 0;
  return config;
}

}  // namespace

L0Sampler::L0Sampler(u128 domain, const Params& config, uint64_t seed)
    : seed_(seed),
      config_(DenseConfig(config)),
      shape_(std::make_shared<const L0Shape>(domain, config_, seed)),
      state_(shape_.get()) {}

void L0Sampler::Process(std::span<const L0Update> updates) {
  for (const L0Update& u : updates) Update(u.index, u.delta);
}

Status L0Sampler::MergeFrom(const L0Sampler& other) {
  // Config geometry is part of the measurement: distinct (capacity, rows,
  // buckets) combinations can tie on total word count while laying cells
  // out differently, so the word-count check alone is not enough.
  if (seed_ != other.seed_ || shape_->domain() != other.shape_->domain() ||
      config_.sparse_capacity != other.config_.sparse_capacity ||
      config_.rows != other.config_.rows ||
      config_.buckets_per_capacity != other.config_.buckets_per_capacity ||
      state_.NumWords() != other.state_.NumWords()) {
    return Status::InvalidArgument(
        "L0Sampler::MergeFrom: seed/shape mismatch (different measurement)");
  }
  state_.AddRaw(other.state_.data());
  return Status::OK();
}

void L0Sampler::Serialize(std::vector<uint8_t>* out) const {
  wire::FrameBuilder fb(wire::FrameType::kL0Sampler, out);
  fb.writer().U128(shape_->domain());
  fb.writer().U64(seed_);
  WriteSketchConfig(config_, &fb.writer());
  fb.EndHeader();
  // Repr byte 0, then the raw cell words. Repr 1 (a sparse buffer) is
  // retired; the reader rejects it.
  fb.writer().U8(0);
  fb.writer().Words(state_.data(), state_.NumWords());
  fb.Finish();
}

Result<L0Sampler> L0Sampler::Deserialize(std::span<const uint8_t> bytes) {
  auto frame = wire::ParseFrame(bytes, wire::FrameType::kL0Sampler);
  if (!frame.ok()) return frame.status();
  wire::Reader header(frame->header);
  u128 domain = 0;
  uint64_t seed = 0;
  SketchConfig config;
  GMS_RETURN_IF_ERROR(header.U128(&domain));
  GMS_RETURN_IF_ERROR(header.U64(&seed));
  GMS_RETURN_IF_ERROR(ReadSketchConfig(&header, &config));
  GMS_RETURN_IF_ERROR(header.ExpectEnd());
  if (domain < 1 || (domain >> 126) != 0) {
    return Status::InvalidArgument("wire: L0 domain out of range");
  }
  wire::Reader payload(frame->payload);
  uint8_t repr = 0;
  GMS_RETURN_IF_ERROR(payload.U8(&repr));
  if (repr == 1) {
    return Status::InvalidArgument("wire: retired sparse L0 frame");
  }
  if (repr != 0) {
    return Status::InvalidArgument("wire: unknown L0 cell repr");
  }
  if (config.sparse_threshold != 0) {
    return Status::InvalidArgument(
        "wire: dense L0 cells under a sparse-threshold config");
  }
  // Size check BEFORE construction: the state allocation is then bounded
  // by the bytes the caller actually supplied.
  if (!wire::PayloadMatchesShape(frame->payload.size() - 1,
                                 {L0StateWords(domain, config)})) {
    return Status::InvalidArgument("wire: L0 payload size mismatch");
  }
  L0Sampler sampler(domain, config, seed);
  GMS_RETURN_IF_ERROR(
      payload.Words(sampler.state_.data(), sampler.state_.NumWords()));
  GMS_RETURN_IF_ERROR(payload.ExpectEnd());
  return sampler;
}

size_t L0Sampler::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

}  // namespace gms
