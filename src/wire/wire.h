// Versioned wire format for sketch state (the "message" of the Section 2
// simultaneous-communication protocol, and the unit of sharded / multi-node
// ingestion). Every sketch in the library is a LINEAR function of the
// stream, so its entire transferable state is its cell words; a frame is
// those words plus enough header to (a) rebuild the shape deterministically
// from the public seed and (b) refuse to merge mismatched measurements.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic  "GMSK" (0x4B534D47 as a LE u32)
//   4       2     version (kVersion; readers reject anything newer)
//   6       2     frame type (FrameType: which sketch class follows)
//   8       4     header length H in bytes
//   12      8     payload length P in bytes
//   20      H     header  (shape: seed, n, params, ... -- type-specific)
//   20+H    P     payload (SoA cell words, raw little-endian u64s)
//   20+H+P  8     checksum (FNV-1a 64 over bytes [0, 20+H+P))
//
// Decoding NEVER aborts: truncation, bad magic, version/type mismatch,
// checksum failure, and shape disagreements all surface as Status. The
// checksum detects every single-byte corruption (each FNV-1a step is a
// bijection of the running hash for a fixed input byte).
#ifndef GMS_WIRE_WIRE_H_
#define GMS_WIRE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/status.h"
#include "util/uint128.h"

namespace gms {
namespace wire {

inline constexpr uint32_t kMagic = 0x4B534D47u;  // "GMSK"
/// Version 2 added the hybrid sparse/dense cell sections (a `repr` byte
/// followed by either raw arena words or per-column exact buffers) and the
/// sparse_threshold field in every SketchConfig header. v1 frames carry
/// neither and are rejected. kL0Sampler frames carry only the raw-word
/// repr 0 under a zero threshold; their sparse repr 1 is retired.
inline constexpr uint16_t kVersion = 2;
/// Bytes before the header (magic + version + type + lengths).
inline constexpr size_t kPreambleBytes = 20;
/// Trailing checksum bytes.
inline constexpr size_t kChecksumBytes = 8;

/// Which sketch class a frame carries. Values are wire-stable: append only.
enum class FrameType : uint16_t {
  kL0Sampler = 1,
  kSpanningForest = 2,
  kKSkeleton = 3,
  kVcQuery = 4,
  kHyperVcQuery = 5,
  kSparsifier = 6,
  /// Serving-protocol frames (src/serve/serve_protocol.h): a query against
  /// a live SketchServer and its answer. Same envelope (magic, version,
  /// checksum) as the sketch-state frames so one transport carries both.
  kServeRequest = 7,
  kServeResponse = 8,
};

/// Stable lower-case name for a frame type ("l0_sampler", ...); "unknown"
/// for values outside the enum. For diagnostics and fuzz-corpus naming.
const char* FrameTypeName(FrameType type);

/// Read the frame-type field of a buffer WITHOUT validating the frame:
/// requires only the 20-byte preamble with correct magic and a supported
/// version. Lets a dispatcher route a frame to the right Deserialize (which
/// then fully validates via ParseFrame) without trying all types.
Result<FrameType> PeekFrameType(std::span<const uint8_t> buf);

/// FNV-1a 64 over a byte range.
uint64_t Checksum(const uint8_t* data, size_t len);

/// Append-only little-endian encoder over a caller-owned byte vector.
class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void U128(u128 v) {
    U64(static_cast<uint64_t>(v));
    U64(static_cast<uint64_t>(v >> 64));
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }

  /// u64 count + bit-packed payload (LSB-first within each byte).
  void BoolVec(const std::vector<bool>& v);

  /// Raw little-endian u64 words (the SoA cell payload).
  void Words(const uint64_t* w, size_t count);

  size_t size() const { return out_->size(); }

 private:
  void Raw(const void* p, size_t len) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    out_->insert(out_->end(), b, b + len);
  }

  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian cursor; every read can fail with Status
/// instead of running off the buffer.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  Status U8(uint8_t* v) { return Raw(v, 1); }
  Status U16(uint16_t* v) { return Raw(v, 2); }
  Status U32(uint32_t* v) { return Raw(v, 4); }
  Status U64(uint64_t* v) { return Raw(v, 8); }
  Status U128(u128* v);
  Status I32(int32_t* v) { return Raw(v, 4); }
  Status F64(double* v);
  Status Bool(bool* v);

  /// Counterpart of Writer::BoolVec; rejects counts above `max_size`.
  Status BoolVec(std::vector<bool>* v, size_t max_size);

  /// Read exactly `count` little-endian u64 words into dst.
  Status Words(uint64_t* dst, size_t count);

  /// Advance the cursor `len` bytes without copying (skim validation of
  /// variable-length sections); fails like a read if fewer bytes remain.
  Status Skip(size_t len);

  size_t remaining() const { return data_.size() - pos_; }

  /// Error unless the cursor consumed the buffer exactly.
  Status ExpectEnd() const;

 private:
  Status Raw(void* p, size_t len);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Builds one frame in place at the tail of `out` (no payload staging copy):
///   FrameBuilder fb(type, &out);
///   ...write header fields through fb.writer()...
///   fb.EndHeader();
///   ...write payload words through fb.writer()...
///   fb.Finish();
class FrameBuilder {
 public:
  FrameBuilder(FrameType type, std::vector<uint8_t>* out);
  ~FrameBuilder() { GMS_CHECK_MSG(finished_, "FrameBuilder::Finish not called"); }
  FrameBuilder(const FrameBuilder&) = delete;
  FrameBuilder& operator=(const FrameBuilder&) = delete;

  Writer& writer() { return writer_; }
  void EndHeader();
  void Finish();

 private:
  std::vector<uint8_t>* out_;
  Writer writer_;
  size_t frame_start_;
  size_t header_start_;
  size_t payload_start_ = 0;
  bool header_done_ = false;
  bool finished_ = false;
};

/// A validated frame: views into the caller's buffer.
struct Frame {
  FrameType type = FrameType::kL0Sampler;
  std::span<const uint8_t> header;
  std::span<const uint8_t> payload;
};

/// Validate magic, version, lengths, and checksum; the whole buffer must be
/// exactly one frame of type `expected`. Never aborts on bad input.
Result<Frame> ParseFrame(std::span<const uint8_t> buf, FrameType expected);

/// True iff payload_bytes == 8 * product(factors), with the product carried
/// in u128 so hostile shape headers whose individual fields are in range but
/// whose PRODUCT is astronomical compare as a plain mismatch instead of
/// wrapping. Deserializers check this BEFORE constructing a sketch, so a
/// tiny frame can never command a huge allocation.
inline bool PayloadMatchesShape(size_t payload_bytes,
                                std::initializer_list<uint64_t> factors) {
  u128 total = 8;  // bytes per cell word
  for (uint64_t f : factors) {
    if (f != 0 && total > ~u128{0} / f) return false;
    total *= f;
  }
  return total == payload_bytes;
}

}  // namespace wire
}  // namespace gms

#endif  // GMS_WIRE_WIRE_H_
