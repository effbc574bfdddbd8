#include "testkit/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "connectivity/k_skeleton.h"
#include "connectivity/spanning_forest_sketch.h"
#include "graph/edge_codec.h"
#include "graph/generators.h"
#include "sketch/l0_sampler.h"
#include "sparsify/sparsifier_sketch.h"
#include "testkit/stream_spec.h"
#include "vertexconn/hyper_vc_query.h"
#include "vertexconn/vc_query_sketch.h"
#include "wire/wire.h"

namespace gms {
namespace testkit {

DecodedFuzzStream DecodeFuzzStream(std::span<const uint8_t> bytes) {
  DecodedFuzzStream out;
  if (bytes.size() < 2) return out;
  out.n = 2 + bytes[0] % 30;
  out.max_rank = 2 + bytes[1] % 3;
  size_t pos = 2;
  while (pos < bytes.size() && out.updates.size() < kMaxFuzzUpdates) {
    uint8_t op = bytes[pos++];
    int delta = (op & 1) ? +1 : -1;
    size_t r = out.max_rank <= 2
                   ? 2
                   : 2 + (static_cast<size_t>(op >> 1) % (out.max_rank - 1));
    if (pos + r > bytes.size()) break;
    std::vector<VertexId> vs;
    vs.reserve(r);
    for (size_t i = 0; i < r; ++i) {
      VertexId v = static_cast<VertexId>(bytes[pos++] % out.n);
      bool dup = false;
      for (VertexId w : vs) dup |= w == v;
      if (!dup) vs.push_back(v);
    }
    if (vs.size() < 2) continue;  // collapsed below a valid hyperedge
    out.updates.emplace_back(Hyperedge(std::move(vs)), delta);
  }
  return out;
}

std::vector<uint8_t> EncodeFuzzStream(size_t n, size_t max_rank,
                                      const DynamicStream& stream) {
  std::vector<uint8_t> out;
  out.reserve(2 + stream.size() * (max_rank + 1));
  out.push_back(static_cast<uint8_t>((n - 2) % 30));
  out.push_back(static_cast<uint8_t>((max_rank - 2) % 3));
  for (const StreamUpdate& u : stream) {
    uint8_t op = static_cast<uint8_t>((u.edge.size() - 2) << 1);
    if (u.delta > 0) op |= 1;
    out.push_back(op);
    for (VertexId v : u.edge) out.push_back(static_cast<uint8_t>(v));
  }
  return out;
}

std::vector<CorpusEntry> WireSeedCorpus() {
  std::vector<CorpusEntry> entries;
  auto add = [&entries](const char* name, std::vector<uint8_t> bytes) {
    entries.push_back({name, std::move(bytes)});
  };

  Graph g = ErdosRenyi(10, 0.3, 41);
  Hypergraph h = RandomUniformHypergraph(10, 14, 3, 42);

  {
    L0Sampler sampler(1000, SketchConfig::Light(), 3);
    for (int i = 0; i < 20; ++i) sampler.Update(static_cast<u128>(i * 37), +1);
    std::vector<uint8_t> bytes;
    sampler.Serialize(&bytes);
    add("l0_sampler.bin", bytes);
    // Truncation and single-byte corruption variants keep the rejection
    // paths in the unmutated smoke run.
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + bytes.size() / 2);
    add("l0_sampler_truncated.bin", truncated);
    std::vector<uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    add("l0_sampler_corrupt.bin", flipped);
  }
  {
    SpanningForestSketch sketch(10, 2, 5);
    sketch.Process(DynamicStream::InsertOnly(g, 6));
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    add("spanning_forest.bin", bytes);
    std::vector<uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    add("spanning_forest_bad_magic.bin", bad_magic);
  }
  {
    // Hybrid sparse-phase frames: a mixed forest (escalated hub, sparse
    // leaves), plus truncation/corruption variants so the variable-length
    // sparse sections' reject paths stay seeded.
    ForestSketchParams p;
    p.config = SketchConfig::Light();
    p.config.sparse_threshold = 4;
    SpanningForestSketch sketch(10, 2, 15, p);
    for (VertexId v = 1; v <= 6; ++v) sketch.Update(Hyperedge{0, v}, +1);
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    add("spanning_forest_hybrid_mixed.bin", bytes);
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + bytes.size() / 2);
    add("spanning_forest_hybrid_truncated.bin", truncated);
    std::vector<uint8_t> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    add("spanning_forest_hybrid_corrupt.bin", flipped);
  }
  {
    // Hostile: a well-formed L0 frame in the retired sparse repr 1 (update
    // counter, then the exact buffer of ascending keys and net weights),
    // which the reader must reject.
    SketchConfig config = SketchConfig::Light();
    config.sparse_threshold = 8;
    std::vector<uint8_t> bytes;
    wire::FrameBuilder fb(wire::FrameType::kL0Sampler, &bytes);
    fb.writer().U128(1000);
    fb.writer().U64(16);
    WriteSketchConfig(config, &fb.writer());
    fb.EndHeader();
    fb.writer().U8(1);
    fb.writer().U32(3);  // updates absorbed
    fb.writer().U32(3);  // buffered entries
    for (int i = 0; i < 3; ++i) {
      fb.writer().U128(static_cast<u128>(i * 53));
      fb.writer().U64(1);
    }
    fb.Finish();
    add("l0_sampler_retired_sparse.bin", bytes);
  }
  {
    KSkeletonSketch sketch(10, 3, 2, 7);
    sketch.Process(DynamicStream::InsertOnly(h, 8));
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    add("k_skeleton.bin", bytes);
  }
  {
    VcQueryParams p;
    p.k = 1;
    p.explicit_r = 4;
    p.forest.config = SketchConfig::Light();
    VcQuerySketch sketch(10, p, 9);
    sketch.Process(DynamicStream::InsertOnly(g, 10));
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    add("vc_query.bin", bytes);
  }
  {
    VcQueryParams p;
    p.k = 1;
    p.explicit_r = 4;
    p.forest.config = SketchConfig::Light();
    HyperVcQuerySketch sketch(10, 3, p, 11);
    sketch.Process(DynamicStream::InsertOnly(h, 12));
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    add("hyper_vc_query.bin", bytes);
  }
  {
    SparsifierParams p;
    p.levels = 4;
    p.k = 4;
    p.forest.config = SketchConfig::Light();
    HypergraphSparsifierSketch sketch(10, 2, p, 13);
    sketch.Process(DynamicStream::InsertOnly(g, 14));
    std::vector<uint8_t> bytes;
    sketch.Serialize(&bytes);
    add("sparsifier.bin", bytes);
  }
  return entries;
}

std::vector<CorpusEntry> StreamSeedCorpus() {
  std::vector<CorpusEntry> entries;
  std::vector<StreamSpec> grid = DefaultSpecGrid();
  // One representative per family from the insert-only block plus a few
  // churn/delete-down schedules: enough structural diversity to seed the
  // mutator without bloating the checked-in corpus.
  for (size_t i = 0; i < grid.size(); i += (i < 12 ? 1 : 5)) {
    const StreamSpec& spec = grid[i];
    BuiltStream built = spec.Build();
    if (spec.n > 31 || built.max_rank > 4) continue;
    CorpusEntry entry;
    entry.name = std::string(FamilyName(spec.family)) + "_" +
                 ChurnName(spec.churn) + ".bin";
    entry.bytes = EncodeFuzzStream(spec.n, built.max_rank, built.stream);
    entries.push_back(std::move(entry));
  }
  return entries;
}

FuzzCodecInput DecodeFuzzCodecInput(std::span<const uint8_t> bytes) {
  auto byte = [&bytes](size_t i) -> uint8_t {
    return i < bytes.size() ? bytes[i] : 0;
  };
  uint32_t n_raw = 0;
  for (size_t i = 0; i < 4; ++i) n_raw |= uint32_t{byte(i)} << (8 * i);
  u128 raw = 0;
  for (size_t i = 0; i < 16; ++i) {
    raw |= static_cast<u128>(byte(6 + i)) << (8 * i);
  }
  FuzzCodecInput out;
  out.n = 2 + n_raw % ((uint64_t{1} << 32) - 2);
  out.max_rank = std::min<size_t>(2 + byte(4) % 5, out.n);
  Result<u128> domain = EdgeCodec::DomainSizeFor(out.n, out.max_rank);
  while (!domain.ok()) {  // C(n, 2) < 2^63 always fits, so this ends
    --out.max_rank;
    domain = EdgeCodec::DomainSizeFor(out.n, out.max_rank);
  }
  out.index = (byte(5) & 1) ? raw : raw % (*domain + 2);
  return out;
}

namespace {

// Inverse of DecodeFuzzCodecInput: round trip holds when n < 2^32,
// max_rank <= 6, DomainSizeFor accepts (n, max_rank), and
// index <= DomainSize() + 1.
std::vector<uint8_t> EncodeFuzzCodecInput(const FuzzCodecInput& in) {
  std::vector<uint8_t> out;
  const uint64_t n_raw = in.n - 2;
  for (size_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(n_raw >> (8 * i)));
  }
  out.push_back(static_cast<uint8_t>(in.max_rank - 2));
  out.push_back(0);
  for (size_t i = 0; i < 16; ++i) {
    out.push_back(static_cast<uint8_t>(in.index >> (8 * i)));
  }
  return out;
}

}  // namespace

std::vector<CorpusEntry> CodecSeedCorpus() {
  std::vector<CorpusEntry> entries;
  auto add = [&entries](std::string name, size_t n, size_t max_rank,
                        u128 index) {
    entries.push_back(
        {std::move(name) + ".bin", EncodeFuzzCodecInput({n, max_rank, index})});
  };
  const size_t kLargeN = (size_t{1} << 32) - 1;
  for (size_t n : {size_t{7}, size_t{512}, size_t{1} << 16, size_t{1} << 31,
                   kLargeN}) {
    const std::string tag = "n" + std::to_string(n);
    const u128 pairs = Binomial(n, 2);
    add(tag + "_first_pair", n, 2, 0);
    add(tag + "_last_pair", n, 2, pairs - 1);
    add(tag + "_past_end", n, 2, pairs);
    add(tag + "_r3_first_triple", n, 3, pairs);
  }
  // C(m, 2) crosses 2^62 between m = 3037000500 and 3037000501.
  for (uint64_t m : {uint64_t{3037000500}, uint64_t{3037000501}}) {
    add("pair_block_m" + std::to_string(m), kLargeN, 2, Binomial(m, 2));
    add("pair_block_m" + std::to_string(m) + "_minus1", kLargeN, 2,
        Binomial(m, 2) - 1);
  }
  EdgeCodec mixed(1 << 16, 4);
  add("n65536_r4_last", 1 << 16, 4, mixed.DomainSize() - 1);
  return entries;
}

FuzzExactInput DecodeFuzzExactInput(std::span<const uint8_t> bytes) {
  FuzzExactInput out;
  if (bytes.empty()) return out;
  out.n = 2 + bytes[0] % 15;
  size_t pos = 1;
  while (pos < bytes.size() && out.edges.size() < kMaxFuzzExactEdges) {
    const uint8_t op = bytes[pos++];
    const size_t r = 2 + (op & 3) % 3;
    if (pos + r > bytes.size()) break;
    std::vector<VertexId> vs;
    for (size_t i = 0; i < r; ++i) {
      const VertexId v = static_cast<VertexId>(bytes[pos++] % out.n);
      if (std::find(vs.begin(), vs.end(), v) == vs.end()) vs.push_back(v);
    }
    if (vs.size() < 2) continue;
    out.edges.emplace_back(std::move(vs));
    out.weights.push_back(static_cast<double>((op >> 2) & 15) / 4.0);
  }
  return out;
}

namespace {

// Inverse of DecodeFuzzExactInput for 2 <= n <= 16, ranks 2..4, ids < n
// and weights in {0, 0.25, ..., 3.75}.
std::vector<uint8_t> EncodeFuzzExactInput(const FuzzExactInput& in) {
  std::vector<uint8_t> out = {static_cast<uint8_t>(in.n - 2)};
  for (size_t i = 0; i < in.edges.size(); ++i) {
    const size_t quarters = static_cast<size_t>(in.weights[i] * 4.0);
    out.push_back(
        static_cast<uint8_t>(quarters << 2 | (in.edges[i].size() - 2)));
    for (VertexId v : in.edges[i]) out.push_back(static_cast<uint8_t>(v));
  }
  return out;
}

}  // namespace

std::vector<CorpusEntry> ExactSeedCorpus() {
  std::vector<CorpusEntry> entries;
  auto add = [&entries](std::string name, const Hypergraph& h,
                        bool weighted) {
    GMS_CHECK_MSG(h.NumEdges() <= kMaxFuzzExactEdges,
                  "exact seed exceeds the decoder's edge cap");
    FuzzExactInput in;
    in.n = h.NumVertices();
    in.edges = h.Edges();
    for (size_t i = 0; i < in.edges.size(); ++i) {
      // Unit weights, or a deterministic spread over the dyadic range.
      in.weights.push_back(weighted ? static_cast<double>(1 + i * 7 % 15) / 4.0
                                    : 1.0);
    }
    entries.push_back({std::move(name) + ".bin", EncodeFuzzExactInput(in)});
  };
  auto add_graph = [&add](std::string name, const Graph& g) {
    add(std::move(name), Hypergraph::FromGraph(g), false);
  };
  add_graph("cycle12", CycleGraph(12));
  add_graph("path9", PathGraph(9));
  add_graph("star10", StarGraph(10));
  add_graph("complete2", CompleteGraph(2));
  add_graph("complete6", CompleteGraph(6));
  add_graph("edgeless5", Graph(5));
  add_graph("k34", CompleteBipartite(3, 4));
  add_graph("expander14", UnionOfHamiltonianCycles(14, 3, 7));
  add_graph("planted_sep14_k2", PlantedSeparator(14, 2, 8).graph);
  add_graph("planted_sep16_k3", PlantedSeparator(16, 3, 9).graph);
  Graph two_triangles(6);
  for (VertexId base : {0u, 3u}) {
    two_triangles.AddEdge(base, base + 1);
    two_triangles.AddEdge(base + 1, base + 2);
    two_triangles.AddEdge(base, base + 2);
  }
  add_graph("disconnected6", two_triangles);
  add("hypercycle10_r3", HyperCycle(10, 3), false);
  for (size_t r = 2; r <= 4; ++r) {
    const std::string tag = "_r" + std::to_string(r);
    add("uniform12" + tag, RandomUniformHypergraph(12, 16, r, 10 + r), false);
    add("uniform12" + tag + "_weighted",
        RandomUniformHypergraph(12, 16, r, 10 + r), true);
    add("planted_cut14" + tag,
        PlantedHypergraphCut(14, r, 2, 10, 20 + r).hypergraph, false);
  }
  add("mixed14_weighted", RandomHypergraph(14, 24, 2, 4, 31), true);
  for (const StreamSpec& spec : DefaultSpecGrid()) {
    // The churn schedules share one final graph per family.
    if (spec.n > 16 || spec.churn != Churn::kInsertOnly) continue;
    const Hypergraph h = spec.Build().final_graph;
    if (h.Rank() > 4 || h.NumEdges() > kMaxFuzzExactEdges) continue;
    add(std::string("grid_") + FamilyName(spec.family), h, false);
  }
  return entries;
}

Result<size_t> WriteCorpusDir(const std::string& dir,
                              const std::vector<CorpusEntry>& entries) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create_directories(" + dir + "): " +
                            ec.message());
  }
  size_t written = 0;
  for (const CorpusEntry& entry : entries) {
    std::string path = dir + "/" + entry.name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::Internal("fopen(" + path + ") failed");
    }
    size_t wrote =
        entry.bytes.empty()
            ? 0
            : std::fwrite(entry.bytes.data(), 1, entry.bytes.size(), f);
    std::fclose(f);
    if (wrote != entry.bytes.size()) {
      return Status::Internal("short write to " + path);
    }
    ++written;
  }
  return written;
}

}  // namespace testkit
}  // namespace gms
