// Workload-corpus CLI: turn a one-line StreamSpec into a disk-resident
// GMSB binary stream, then replay it from the file through the composed
// applications (DESIGN.md §14). The spec line IS the provenance record:
// any corpus file can be rebuilt bit-for-bit from the line alone.
//
//   $ ./corpus_cli encode 'gms-spec-v1;family=rmat;n=256;m=512' out.gmsb
//   $ ./corpus_cli replay out.gmsb
//   $ ./corpus_cli demo            # encode + replay a built-in spec
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "testkit/stream_spec.h"
#include "workload/binary_stream.h"
#include "workload/spec_convert.h"

using namespace gms;

namespace {

int Encode(const std::string& line, const std::string& path) {
  auto spec = testkit::StreamSpec::Parse(line);
  if (!spec.ok()) {
    std::fprintf(stderr, "bad spec: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }
  testkit::BuiltStream built;
  Status st = workload::WriteSpecStreamFile(*spec, path, &built);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: n=%zu max_rank=%zu, %zu updates\n", path.c_str(),
              static_cast<size_t>(spec->n), built.max_rank,
              built.stream.size());
  std::printf("provenance: %s\n", spec->ToString().c_str());
  return 0;
}

int Replay(const std::string& path) {
  auto file = workload::BinaryFileStream::Open(path);
  if (!file.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 file.status().ToString().c_str());
    return 1;
  }
  const size_t n = file->n();
  std::printf("%s: n=%zu max_rank=%zu, %llu updates\n", path.c_str(), n,
              file->max_rank(),
              static_cast<unsigned long long>(file->num_updates()));

  // Replay straight from the mapping into both applications: records
  // decode in place, one chunk at a time, into each app's Process.
  apps::TwoEdgeConnect tec(n, file->max_rank(), /*seed=*/1);
  apps::ApproxMinCut mincut(n, file->max_rank(), /*k_cap=*/4, /*seed=*/2);
  workload::ProcessBinaryFileStream(&tec, *file);
  workload::ProcessBinaryFileStream(&mincut, *file);

  auto two_ec = tec.Query();
  if (two_ec.ok()) {
    std::printf("components:          %zu\n",
                two_ec.value().num_components);
    std::printf("bridges:             %zu\n", two_ec.value().bridges.size());
    std::printf("2-edge-connected:    %s\n",
                two_ec.value().two_edge_connected ? "yes" : "no");
  } else {
    std::printf("2ec query refused:   %s\n",
                two_ec.status().ToString().c_str());
  }
  auto cut = mincut.Query();
  if (cut.ok()) {
    std::printf("min cut:             %zu%s (k_cap=%zu skeleton)\n",
                cut.value().value, cut.value().exact ? "" : " (>=, capped)",
                mincut.k_cap());
  } else {
    std::printf("min-cut query refused: %s\n",
                cut.status().ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "encode") == 0) {
    return Encode(argv[2], argv[3]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "replay") == 0) {
    return Replay(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "demo") == 0) {
    const std::string line =
        "gms-spec-v1;family=temporal_churn;n=128;m=256;gseed=7";
    const std::string path = "/tmp/gms_corpus_demo.gmsb";
    std::printf("demo spec: %s\n\n", line.c_str());
    if (int rc = Encode(line, path); rc != 0) return rc;
    std::printf("\n");
    return Replay(path);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  %s encode '<spec line>' <out.gmsb>\n"
               "  %s replay <in.gmsb>\n"
               "  %s demo\n",
               argv[0], argv[0], argv[0]);
  return 2;
}
