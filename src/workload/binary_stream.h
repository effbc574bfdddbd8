// Disk-resident binary dynamic streams (DESIGN.md §14).
//
// The text stream format (stream/io.h) is for eyeballing tiny cases; real
// workloads are replayed from a fixed-width binary file in the
// GraphStreamingCC BinaryFileStream idiom: a self-describing header, then
// one fixed-size record per update so record j lives at a computable
// offset and any byte range of the file can be decoded independently:
// callers decode fixed-size chunks of records in place (ReadRecord) and
// feed each chunk to a sketch's Process, with no parse ordering and no
// shared cursor.
//
// Layout (all integers little-endian):
//
//   header, 40 bytes:
//     u32  magic         "GMSB" (0x42534D47)
//     u16  version       1
//     u16  reserved      must be 0
//     u64  n             vertex-id domain
//     u32  max_rank      max hyperedge cardinality, in [2, 64]
//     u32  record_bytes  must equal 1 + 4 * max_rank
//     u64  num_updates   record count
//     u64  checksum      FNV-1a over the whole record region
//   then num_updates records of record_bytes each:
//     u8   op            bit 0: delta (1 = insert, 0 = delete);
//                        bits 1..7: cardinality, in [2, max_rank]
//     u32  id[max_rank]  vertex ids, strictly increasing for the first
//                        `cardinality` slots (the canonical Hyperedge
//                        order), all < n; unused slots must be 0
//
// Every structural rule above is VALIDATED on read and every parse entry
// point is a total function returning Status -- truncation, bit flips,
// hostile headers, and garbage records all surface as InvalidArgument
// (tests/workload_test.cc runs the serde_test-style corruption sweeps;
// fuzz/fuzz_stream_file.cc hammers the same parsers).
#ifndef GMS_WORKLOAD_BINARY_STREAM_H_
#define GMS_WORKLOAD_BINARY_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stream/stream.h"
#include "util/check.h"
#include "util/status.h"

namespace gms {
namespace workload {

inline constexpr uint32_t kBinaryStreamMagic = 0x42534D47u;  // "GMSB"
inline constexpr uint16_t kBinaryStreamVersion = 1;
inline constexpr size_t kBinaryStreamHeaderBytes = 40;
inline constexpr size_t kBinaryStreamMaxRank = 64;

/// The decoded fixed fields of a stream file header.
struct BinaryStreamHeader {
  uint64_t n = 0;
  uint32_t max_rank = 2;
  uint32_t record_bytes = 9;
  uint64_t num_updates = 0;
  uint64_t checksum = 0;
};

/// FNV-1a 64 over `bytes` (the record-region checksum).
uint64_t BinaryStreamChecksum(std::span<const uint8_t> bytes);

/// Parse and validate the 40-byte header against the full file image:
/// magic/version/reserved, rank and record-width consistency, the exact
/// file size implied by num_updates, and (when verify_checksum) the
/// record-region checksum. Total function; never reads past bytes.size().
Result<BinaryStreamHeader> ParseBinaryStreamHeader(
    std::span<const uint8_t> bytes, bool verify_checksum = true);

/// Decode one record (exactly header.record_bytes bytes) into *out.
/// Validates cardinality, strictly-increasing ids < n, and zero padding.
Status DecodeBinaryStreamRecord(std::span<const uint8_t> record,
                                const BinaryStreamHeader& header,
                                StreamUpdate* out);

/// Encode a full stream image in memory (header + records + checksum).
/// CHECK-fails on shape violations (max_rank out of range, an edge wider
/// than max_rank or with an id >= n): encoding is for KNOWN-good streams;
/// the hostile direction is the decoder's job.
std::vector<uint8_t> EncodeBinaryStream(size_t n, size_t max_rank,
                                        std::span<const StreamUpdate> updates);

/// Decode a full stream image (the in-memory mirror of BinaryFileStream,
/// shared with the fuzz harness). Total function.
Result<DynamicStream> DecodeBinaryStream(std::span<const uint8_t> bytes,
                                         BinaryStreamHeader* header = nullptr);

/// One-shot writer: EncodeBinaryStream to `path`.
Status WriteBinaryStreamFile(const std::string& path, size_t n,
                             size_t max_rank,
                             std::span<const StreamUpdate> updates);
Status WriteBinaryStreamFile(const std::string& path, size_t n,
                             size_t max_rank, const DynamicStream& stream);

/// An open, validated, memory-mapped stream file. Open() maps the file
/// (falling back to a plain read into memory when mmap is unavailable)
/// and fully validates header + checksum up front, so ReadRecord can stay
/// cheap on the hot path. Immutable and thread-safe after Open: several
/// threads may decode disjoint record ranges concurrently.
class BinaryFileStream {
 public:
  static Result<BinaryFileStream> Open(const std::string& path,
                                       bool verify_checksum = true);

  BinaryFileStream(BinaryFileStream&& other) noexcept { Steal(other); }
  BinaryFileStream& operator=(BinaryFileStream&& other) noexcept {
    if (this != &other) {
      Unmap();
      Steal(other);
    }
    return *this;
  }
  BinaryFileStream(const BinaryFileStream&) = delete;
  BinaryFileStream& operator=(const BinaryFileStream&) = delete;
  ~BinaryFileStream() { Unmap(); }

  const BinaryStreamHeader& header() const { return header_; }
  size_t n() const { return static_cast<size_t>(header_.n); }
  size_t max_rank() const { return header_.max_rank; }
  uint64_t num_updates() const { return header_.num_updates; }

  /// The raw record region (num_updates * record_bytes bytes).
  std::span<const uint8_t> records() const {
    return std::span<const uint8_t>(data_, size_).subspan(
        kBinaryStreamHeaderBytes);
  }

  /// Decode record j into *out. The record region was validated at Open,
  /// so this cannot fail for j < num_updates; j is range-CHECKed.
  void ReadRecord(uint64_t j, StreamUpdate* out) const;

  /// Materialize the whole file as a DynamicStream.
  DynamicStream ReadAll() const;

 private:
  BinaryFileStream() = default;
  void Steal(BinaryFileStream& other);
  void Unmap();

  BinaryStreamHeader header_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;  // mmap'd (else heap-owned fallback)
};

/// Records ProcessBinaryFileStream decodes per Process call.
inline constexpr size_t kReplayChunkUpdates = 4096;

/// Feed an open stream file into sketch->Process in chunks of
/// kReplayChunkUpdates records decoded in place from the mapping, so the
/// disk-to-sketch path never materializes the whole stream. By linearity
/// the result is bit-identical to Process(file.ReadAll()).
template <typename Sketch>
void ProcessBinaryFileStream(Sketch* sketch, const BinaryFileStream& file) {
  std::vector<StreamUpdate> chunk;
  for (uint64_t begin = 0; begin < file.num_updates();
       begin += kReplayChunkUpdates) {
    const uint64_t end =
        std::min<uint64_t>(file.num_updates(), begin + kReplayChunkUpdates);
    chunk.resize(static_cast<size_t>(end - begin));
    for (uint64_t j = begin; j < end; ++j) {
      file.ReadRecord(j, &chunk[static_cast<size_t>(j - begin)]);
    }
    sketch->Process(std::span<const StreamUpdate>(chunk));
  }
}

}  // namespace workload
}  // namespace gms

#endif  // GMS_WORKLOAD_BINARY_STREAM_H_
