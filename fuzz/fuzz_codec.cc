// Harness for EdgeCodec unranking: bytes decode (totally, via
// testkit::DecodeFuzzCodecInput) to a codec shape (n < 2^32, max_rank) and
// a u128 index. Pair indices take Decode's closed-form branch; the rest take
// the per-position binary search.
//
// Invariants checked per input:
//   - Decode succeeds iff index < DomainSize(),
//   - a decoded hyperedge is canonical (strictly increasing ids, all < n)
//     with cardinality in [2, max_rank],
//   - Encode maps it back to the index.
#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/edge_codec.h"
#include "testkit/corpus.h"
#include "util/check.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const gms::testkit::FuzzCodecInput in =
      gms::testkit::DecodeFuzzCodecInput(std::span<const uint8_t>(data, size));
  const gms::EdgeCodec codec(in.n, in.max_rank);
  gms::Result<gms::Hyperedge> e = codec.Decode(in.index);
  GMS_CHECK_MSG(e.ok() == (in.index < codec.DomainSize()),
                "Decode accepted an index outside the domain or refused one "
                "inside it");
  if (!e.ok()) {
    GMS_CHECK(e.status().code() == gms::StatusCode::kInvalidArgument);
    return 0;
  }
  GMS_CHECK(e->size() >= 2 && e->size() <= codec.max_rank());
  for (size_t i = 1; i < e->size(); ++i) {
    GMS_CHECK_MSG((*e)[i - 1] < (*e)[i], "decoded hyperedge not canonical");
  }
  GMS_CHECK_MSG(e->vertices().back() < in.n, "decoded vertex id out of range");
  GMS_CHECK_MSG(codec.Encode(*e) == in.index, "Encode(Decode(i)) != i");
  return 0;
}
