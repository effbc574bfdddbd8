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
//   exact/  -- small weighted hypergraphs for the exact-kernel fuzzer.
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
//
// The exact-kernel byte format is total as well:
//
//   byte 0:      n = 2 + (b0 % 15)            -- vertex count in [2, 16]
//   then repeating hyperedge records until the buffer ends:
//     byte:      op -- bits 0..1: rank r = 2 + (op & 3) % 3, in [2, 4];
//                bits 2..5: weight = ((op >> 2) & 15) / 4, a dyadic value
//                in [0, 3.75], so every cut sum is exact in a double
//     r bytes:   vertex ids, each taken mod n
//   Records whose ids collapse below 2 distinct are skipped; repeats stay
//   (parallel hyperedges). At most kMaxFuzzExactEdges records decode.
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

inline constexpr size_t kMaxFuzzExactEdges = 128;

/// One exact-kernel harness input: a weighted hypergraph on n vertices.
/// Its rank-2 hyperedges also form the graph the vertex kernels run on.
struct FuzzExactInput {
  size_t n = 2;
  std::vector<Hyperedge> edges;
  std::vector<double> weights;  // one per edge, dyadic, in [0, 3.75]
};

/// Total function: every byte string decodes (empty input -> n = 2, no
/// edges).
FuzzExactInput DecodeFuzzExactInput(std::span<const uint8_t> bytes);

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

/// Exact-kernel inputs: cycles, paths, stars, complete and complete
/// bipartite graphs, planted separators and cuts, disconnected and
/// edgeless graphs, the DefaultSpecGrid final graphs with n <= 16, and
/// weighted hypergraphs of ranks 2-4.
std::vector<CorpusEntry> ExactSeedCorpus();

/// Write a corpus under dir/<entry.name> (dir is created). Returns the
/// number of files written or a Status on I/O failure.
Result<size_t> WriteCorpusDir(const std::string& dir,
                              const std::vector<CorpusEntry>& entries);

}  // namespace testkit
}  // namespace gms

#endif  // GMS_TESTKIT_CORPUS_H_
