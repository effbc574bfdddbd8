// Seed-corpus construction and the byte<->stream codec shared by the fuzz
// harnesses (fuzz/), the corpus generator tool, and the smoke tests.
//
// Three corpora:
//   wire/   -- valid serialized frames of every FrameType (the starting
//              points from which the deserializer fuzzers mutate), plus a
//              few deliberately broken variants so even the unmutated
//              corpus exercises rejection paths.
//   stream/ -- byte-encoded dynamic streams for the ingestion fuzzer.
//   codec/  -- EdgeCodec shapes and indices for the codec fuzzer.
//
// The stream byte format is designed for fuzzing, not storage: any byte
// string decodes to SOME bounded instance (no parse failures for the
// fuzzer to get stuck on), small inputs decode to small instances, and
// every field is byte-aligned so mutations act locally.
//
//   byte 0:      n = 2 + (b0 % 30)            -- vertex count in [2, 31]
//   byte 1:      max_rank = 2 + (b1 % 3)      -- in [2, 4]
//   then repeating update records until the buffer ends:
//     byte:      op -- bit 0: delta (+1 / -1); bits 1..7: rank selector
//     r bytes:   vertex ids, each taken mod n
//   Records whose vertices collapse below 2 distinct ids are skipped.
//   At most kMaxFuzzUpdates records decode (inputs are fuzz-sized).
//
// The codec byte format is total too (missing bytes read as zero):
//
//   bytes 0..3:  n = 2 + (le32 % (2^32 - 2))  -- vertex count in [2, 2^32)
//   byte 4:      max_rank = 2 + (b4 % 5)      -- in [2, 6], then lowered
//                until the codec domain fits (DomainSizeFor succeeds)
//   byte 5:      bit 0 clear: index = raw % (DomainSize() + 2), so most
//                inputs land in range and the rest on the two indices
//                just past it; bit 0 set: index = raw, any u128
//   bytes 6..21: raw, a little-endian u128
#ifndef GMS_TESTKIT_CORPUS_H_
#define GMS_TESTKIT_CORPUS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stream/stream.h"
#include "util/status.h"
#include "util/uint128.h"

namespace gms {
namespace testkit {

inline constexpr size_t kMaxFuzzUpdates = 512;

struct DecodedFuzzStream {
  size_t n = 2;
  size_t max_rank = 2;
  /// NOT validated: multiplicities may go negative or above one. The linear
  /// sketches must tolerate that without crashing; DynamicStream::Validate
  /// would reject it, which is exactly why the fuzzer bypasses it.
  std::vector<StreamUpdate> updates;
};

/// Total function: every byte string decodes (empty input -> empty stream).
DecodedFuzzStream DecodeFuzzStream(std::span<const uint8_t> bytes);

/// Inverse-ish: encode a valid stream into the fuzz byte format. Round
/// trip holds when n <= 31, max_rank <= 4, and ids fit the byte encoding.
std::vector<uint8_t> EncodeFuzzStream(size_t n, size_t max_rank,
                                      const DynamicStream& stream);

/// One EdgeCodec harness input.
struct FuzzCodecInput {
  size_t n = 2;
  size_t max_rank = 2;
  u128 index = 0;
};

/// Total function: every byte string decodes to a constructible codec shape.
FuzzCodecInput DecodeFuzzCodecInput(std::span<const uint8_t> bytes);

/// One named corpus entry.
struct CorpusEntry {
  std::string name;
  std::vector<uint8_t> bytes;
};

/// Valid (and a few deliberately corrupted) serialized frames of all six
/// sketch types over small processed streams. Deterministic.
std::vector<CorpusEntry> WireSeedCorpus();

/// Byte-encoded streams drawn from the DefaultSpecGrid families.
std::vector<CorpusEntry> StreamSeedCorpus();

/// Codec inputs at the unranking boundaries: first and last pair, the first
/// index of the next size block, the domain end, and pairs (m-1, m) near
/// m = sqrt(2) * 2^31, where C(m, 2) crosses 2^62.
std::vector<CorpusEntry> CodecSeedCorpus();

/// Write a corpus under dir/<entry.name> (dir is created). Returns the
/// number of files written or a Status on I/O failure.
Result<size_t> WriteCorpusDir(const std::string& dir,
                              const std::vector<CorpusEntry>& entries);

}  // namespace testkit
}  // namespace gms

#endif  // GMS_TESTKIT_CORPUS_H_
