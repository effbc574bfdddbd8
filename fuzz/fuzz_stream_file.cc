// Harness for the binary stream-file parsers (workload/binary_stream.h).
// Inputs are raw candidate GMSB images -- usually mutated corpus files.
//
// Invariants checked per input:
//   - ParseBinaryStreamHeader and DecodeBinaryStream are total: any bytes
//     produce a Status, never a crash or an over-read,
//   - an image that parses WITH checksum verification also parses without,
//   - a successfully decoded image re-encodes to the IDENTICAL bytes (the
//     format has one canonical image per (n, max_rank, updates)),
//   - the decoded stream really honors the header's bounds, and a sketch
//     can ingest it without crashing.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "connectivity/spanning_forest_sketch.h"
#include "util/check.h"
#include "workload/binary_stream.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> bytes(data, size);

  gms::Result<gms::workload::BinaryStreamHeader> header =
      gms::workload::ParseBinaryStreamHeader(bytes);
  gms::Result<gms::workload::BinaryStreamHeader> lax =
      gms::workload::ParseBinaryStreamHeader(bytes,
                                             /*verify_checksum=*/false);
  // Checksum verification only ever REJECTS more.
  GMS_CHECK(!header.ok() || lax.ok());

  gms::workload::BinaryStreamHeader decoded_header;
  gms::Result<gms::DynamicStream> stream =
      gms::workload::DecodeBinaryStream(bytes, &decoded_header);
  GMS_CHECK(stream.ok() == header.ok());
  if (!stream.ok()) return 0;

  GMS_CHECK(stream->size() == decoded_header.num_updates);
  for (const gms::StreamUpdate& u : stream->updates()) {
    GMS_CHECK(u.edge.size() >= 2);
    GMS_CHECK(u.edge.size() <= decoded_header.max_rank);
    for (gms::VertexId v : u.edge) GMS_CHECK(v < decoded_header.n);
    GMS_CHECK(u.delta == 1 || u.delta == -1);
  }

  // Canonical image: decode -> encode reproduces the input bit for bit.
  const std::vector<uint8_t> redo = gms::workload::EncodeBinaryStream(
      static_cast<size_t>(decoded_header.n), decoded_header.max_rank,
      std::span<const gms::StreamUpdate>(stream->updates()));
  GMS_CHECK(redo.size() == bytes.size());
  for (size_t i = 0; i < redo.size(); ++i) GMS_CHECK(redo[i] == bytes[i]);

  // Valid files describe ingestible streams (bound the big ones: the
  // header can honestly promise more records than a smoke budget wants).
  if (decoded_header.n <= 256 && stream->size() <= 4096) {
    gms::ForestSketchParams p;
    p.config = gms::SketchConfig::Light();
    p.rounds = 2;
    gms::SpanningForestSketch sketch(
        static_cast<size_t>(decoded_header.n),
        std::min<size_t>(decoded_header.max_rank, 8), 1 + size, p);
    for (const gms::StreamUpdate& u : stream->updates()) {
      if (u.edge.size() <= sketch.max_rank()) sketch.Update(u.edge, u.delta);
    }
    (void)sketch.Query();
  }
  return 0;
}
