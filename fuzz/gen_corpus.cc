// Regenerates the checked-in seed corpora under fuzz/corpus/:
//
//   gms_gen_corpus <output-root>
//
// writes <root>/wire/ (valid + deliberately corrupted frames of all six
// sketch types), <root>/stream/ (byte-encoded generator streams),
// <root>/stream_file/ (GMSB binary stream-file images, valid + hostile),
// <root>/codec/ (EdgeCodec shapes and indices at the unranking boundaries),
// and <root>/exact/ (small weighted hypergraphs for the exact kernels).
// Deterministic: rerunning produces identical bytes, so corpus churn in
// review means the wire format or the generators actually changed.
#include <cstdio>
#include <string>

#include "testkit/corpus.h"
#include "workload/file_corpus.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-root>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  struct {
    const char* subdir;
    std::vector<gms::testkit::CorpusEntry> entries;
  } corpora[] = {
      {"wire", gms::testkit::WireSeedCorpus()},
      {"stream", gms::testkit::StreamSeedCorpus()},
      {"stream_file", gms::workload::StreamFileSeedCorpus()},
      {"codec", gms::testkit::CodecSeedCorpus()},
      {"exact", gms::testkit::ExactSeedCorpus()},
  };
  for (const auto& c : corpora) {
    const std::string dir = root + "/" + c.subdir;
    gms::Result<size_t> written = gms::testkit::WriteCorpusDir(dir, c.entries);
    if (!written.ok()) {
      std::fprintf(stderr, "%s: %s\n", dir.c_str(),
                   written.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu files\n", dir.c_str(), *written);
  }
  return 0;
}
