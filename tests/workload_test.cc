// Binary stream-file suite (workload/binary_stream.h): the GMSB format
// round-trips bit-identically across the whole DefaultSpecGrid, the
// mmap'd file path feeds a sketch to the BYTE-IDENTICAL state of
// in-memory ingestion, and hostile images (truncations, byte flips,
// garbage headers) come back as Status, never a crash -- the serde_test
// discipline applied to the disk format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "stream/stream.h"
#include "stream/ingest_plane.h"
#include "testkit/stream_spec.h"
#include "workload/binary_stream.h"
#include "workload/file_corpus.h"
#include "workload/spec_convert.h"

namespace gms {
namespace workload {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool SameStream(const DynamicStream& a, const DynamicStream& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a.updates()[i].edge == b.updates()[i].edge)) return false;
    if (a.updates()[i].delta != b.updates()[i].delta) return false;
  }
  return true;
}

TEST(WorkloadTest, HeaderFieldsSurviveEncode) {
  DynamicStream stream;
  stream.Push(Hyperedge{0, 3}, +1);
  stream.Push(Hyperedge{1, 2, 4}, +1);
  stream.Push(Hyperedge{0, 3}, -1);
  const std::vector<uint8_t> bytes = EncodeBinaryStream(
      /*n=*/6, /*max_rank=*/3,
      std::span<const StreamUpdate>(stream.updates()));
  ASSERT_EQ(bytes.size(),
            kBinaryStreamHeaderBytes + 3 * (1 + 4 * 3));

  auto header = ParseBinaryStreamHeader(bytes);
  ASSERT_TRUE(header.ok()) << header.status().message();
  EXPECT_EQ(header->n, 6u);
  EXPECT_EQ(header->max_rank, 3u);
  EXPECT_EQ(header->record_bytes, 13u);
  EXPECT_EQ(header->num_updates, 3u);

  auto decoded = DecodeBinaryStream(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(SameStream(*decoded, stream));
}

// The tentpole acceptance sweep: every DefaultSpecGrid instance encodes,
// writes, re-opens through the mmap path, and replays to the exact stream
// it came from -- and the file image is canonical (decode -> encode is
// the identity on bytes).
TEST(WorkloadTest, DefaultSpecGridRoundTripsThroughDisk) {
  size_t idx = 0;
  for (const testkit::StreamSpec& spec : testkit::DefaultSpecGrid()) {
    SCOPED_TRACE(spec.ToString());
    testkit::BuiltStream built;
    const std::vector<uint8_t> bytes = EncodeSpecStream(spec, &built);

    const std::string path =
        TempPath("grid_" + std::to_string(idx++) + ".gmsb");
    ASSERT_TRUE(
        WriteSpecStreamFile(spec, path).ok());

    auto file = BinaryFileStream::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    EXPECT_EQ(file->n(), spec.n);
    EXPECT_EQ(file->max_rank(), built.max_rank);
    EXPECT_EQ(file->num_updates(), built.stream.size());

    // File replay == the stream the generator built.
    EXPECT_TRUE(SameStream(file->ReadAll(), built.stream));

    // Per-record access agrees with bulk decode.
    StreamUpdate u;
    for (uint64_t j = 0; j < file->num_updates(); ++j) {
      file->ReadRecord(j, &u);
      EXPECT_TRUE(u.edge == built.stream.updates()[j].edge) << "j=" << j;
      EXPECT_EQ(u.delta, built.stream.updates()[j].delta) << "j=" << j;
    }

    // Canonical image: re-encoding the replay reproduces the bytes.
    const std::vector<uint8_t> redo = EncodeBinaryStream(
        spec.n, built.max_rank,
        std::span<const StreamUpdate>(file->ReadAll().updates()));
    EXPECT_EQ(redo, bytes);
  }
}

// The disk-to-sketch path: the mapped file's ReadAll replay through the
// shared ingest plane must land the sketch in the byte-identical state of
// serial in-memory ingestion, across the whole grid.
TEST(WorkloadTest, MmapPlaneIngestMatchesInMemoryIngest) {
  constexpr uint64_t kSeed = 91;
  size_t idx = 0;
  for (const testkit::StreamSpec& spec : testkit::DefaultSpecGrid()) {
    SCOPED_TRACE(spec.ToString());
    testkit::BuiltStream built;
    const std::string path =
        TempPath("drive_" + std::to_string(idx++) + ".gmsb");
    ASSERT_TRUE(WriteSpecStreamFile(spec, path, &built).ok());
    auto file = BinaryFileStream::Open(path);
    ASSERT_TRUE(file.ok());

    ForestSketchParams params;
    params.config = SketchConfig::Light();
    SpanningForestSketch serial(spec.n, built.max_rank, kSeed, params);
    for (const StreamUpdate& u : built.stream.updates()) {
      serial.Update(u.edge, u.delta);
    }

    const DynamicStream replay = file->ReadAll();
    EXPECT_EQ(replay.size(), built.stream.size());
    SpanningForestSketch from_file(spec.n, built.max_rank, kSeed, params);
    IngestPlane plane;
    ASSERT_TRUE(plane.Add(&from_file));
    plane.Process(replay);

    EXPECT_TRUE(from_file.StateEquals(serial));
    std::vector<uint8_t> a, b;
    serial.Serialize(&a);
    from_file.Serialize(&b);
    EXPECT_EQ(a, b) << "file-driven frame diverges from in-memory frame";
  }
}

// ---------- hostile inputs ----------

TEST(WorkloadAdversarialTest, EveryTruncationIsRejected) {
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kGnm;
  spec.n = 10;
  spec.m = 14;
  const std::vector<uint8_t> bytes = EncodeSpecStream(spec);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DecodeBinaryStream(cut).ok())
        << "accepted a file truncated to " << len << " bytes";
  }
  // Trailing garbage is also a size mismatch, not extra records.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(DecodeBinaryStream(padded).ok());
}

TEST(WorkloadAdversarialTest, EveryByteFlipIsDetectedOrBenign) {
  testkit::StreamSpec spec;
  spec.family = testkit::Family::kGnm;
  spec.n = 10;
  spec.m = 14;
  spec.churn = testkit::Churn::kWithChurn;
  spec.decoys = 6;
  const std::vector<uint8_t> bytes = EncodeSpecStream(spec);
  const auto original = DecodeBinaryStream(bytes);
  ASSERT_TRUE(original.ok());

  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] ^= mask;
      BinaryStreamHeader header;
      auto decoded = DecodeBinaryStream(mutated, &header);
      if (!decoded.ok()) continue;
      // The only byte flips a checksummed fixed-width format can accept
      // are GROWING the vertex-id domain in the header: same updates,
      // larger n, nothing else moved. Anything beyond that is a bug.
      EXPECT_GE(i, 8u) << "accepted flip of byte " << i;
      EXPECT_LT(i, 16u) << "accepted flip of byte " << i;
      EXPECT_NE(header.n, 10u);
      EXPECT_TRUE(SameStream(*decoded, *original))
          << "flip of byte " << i << " changed the decoded stream";
    }
  }
}

TEST(WorkloadAdversarialTest, HostileHeadersAreRejected) {
  EXPECT_FALSE(ParseBinaryStreamHeader({}).ok());
  std::vector<uint8_t> zeros(kBinaryStreamHeaderBytes, 0);
  EXPECT_FALSE(ParseBinaryStreamHeader(zeros).ok());

  DynamicStream stream;
  stream.Push(Hyperedge{0, 1}, +1);
  std::vector<uint8_t> bytes = EncodeBinaryStream(
      2, 2, std::span<const StreamUpdate>(stream.updates()));

  {  // wrong magic
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(ParseBinaryStreamHeader(bad).ok());
  }
  {  // wrong version
    std::vector<uint8_t> bad = bytes;
    bad[4] = 0x7f;
    EXPECT_FALSE(ParseBinaryStreamHeader(bad).ok());
  }
  {  // nonzero reserved field
    std::vector<uint8_t> bad = bytes;
    bad[6] = 1;
    EXPECT_FALSE(ParseBinaryStreamHeader(bad).ok());
  }
  {  // record width disagrees with max_rank
    std::vector<uint8_t> bad = bytes;
    bad[20] += 1;
    EXPECT_FALSE(ParseBinaryStreamHeader(bad).ok());
  }
  {  // checksum flip caught with verification, ignored without
    std::vector<uint8_t> bad = bytes;
    bad[32] ^= 0x01;
    EXPECT_FALSE(ParseBinaryStreamHeader(bad).ok());
    EXPECT_TRUE(
        ParseBinaryStreamHeader(bad, /*verify_checksum=*/false).ok());
  }
}

TEST(WorkloadAdversarialTest, HostileRecordsAreRejected) {
  // Build a single-record image by hand and mutate the record while
  // keeping the checksum honest, so the RECORD validators (not the
  // checksum) do the rejecting.
  DynamicStream stream;
  stream.Push(Hyperedge{1, 3}, +1);
  const std::vector<uint8_t> base = EncodeBinaryStream(
      5, 2, std::span<const StreamUpdate>(stream.updates()));

  auto with_record = [&base](uint8_t op, uint32_t id0, uint32_t id1) {
    std::vector<uint8_t> bytes = base;
    uint8_t* rec = bytes.data() + kBinaryStreamHeaderBytes;
    rec[0] = op;
    for (int b = 0; b < 4; ++b) rec[1 + b] = (id0 >> (8 * b)) & 0xff;
    for (int b = 0; b < 4; ++b) rec[5 + b] = (id1 >> (8 * b)) & 0xff;
    const uint64_t sum = BinaryStreamChecksum(
        std::span<const uint8_t>(bytes).subspan(kBinaryStreamHeaderBytes));
    for (int b = 0; b < 8; ++b) bytes[32 + b] = (sum >> (8 * b)) & 0xff;
    return bytes;
  };

  // Sanity: the canonical record re-encodes fine.
  EXPECT_TRUE(DecodeBinaryStream(with_record((2 << 1) | 1, 1, 3)).ok());
  // Cardinality below 2 / above max_rank.
  EXPECT_FALSE(DecodeBinaryStream(with_record((1 << 1) | 1, 1, 3)).ok());
  EXPECT_FALSE(DecodeBinaryStream(with_record((3 << 1) | 1, 1, 3)).ok());
  // Ids out of the domain.
  EXPECT_FALSE(DecodeBinaryStream(with_record((2 << 1) | 1, 1, 5)).ok());
  // Ids not strictly increasing (unsorted and duplicate).
  EXPECT_FALSE(DecodeBinaryStream(with_record((2 << 1) | 1, 3, 1)).ok());
  EXPECT_FALSE(DecodeBinaryStream(with_record((2 << 1) | 1, 3, 3)).ok());
}

TEST(WorkloadTest, OpenRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(BinaryFileStream::Open(TempPath("does_not_exist.gmsb")).ok());

  testkit::StreamSpec spec;
  spec.family = testkit::Family::kPath;
  spec.n = 8;
  testkit::BuiltStream built;
  std::vector<uint8_t> bytes = EncodeSpecStream(spec, &built);
  bytes[kBinaryStreamHeaderBytes] ^= 0x40;  // corrupt first record's op
  const std::string path = TempPath("corrupt.gmsb");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  EXPECT_FALSE(BinaryFileStream::Open(path).ok());
  // Even without checksum verification the per-record validation at Open
  // still rejects the mangled op byte.
  EXPECT_FALSE(
      BinaryFileStream::Open(path, /*verify_checksum=*/false).ok());
}

TEST(WorkloadTest, SeedCorpusSplitsValidFromHostile) {
  const std::vector<testkit::CorpusEntry> entries = StreamFileSeedCorpus();
  ASSERT_GE(entries.size(), 9u);
  size_t valid = 0, hostile = 0;
  for (const testkit::CorpusEntry& entry : entries) {
    const bool bad = entry.name.find("bad_") != std::string::npos ||
                     entry.name.find("truncated") != std::string::npos;
    auto decoded = DecodeBinaryStream(entry.bytes);
    EXPECT_EQ(decoded.ok(), !bad) << entry.name;
    (bad ? hostile : valid) += 1;
  }
  EXPECT_GE(valid, 5u);
  EXPECT_GE(hostile, 4u);
}

}  // namespace
}  // namespace workload
}  // namespace gms
