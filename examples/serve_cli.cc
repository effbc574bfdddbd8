// Scenario: a live connectivity dashboard over a changing network.
//
// One thread streams link churn into a SketchServer; a "dashboard" fires
// wire-framed queries at it the whole time -- Connected(u, v), component
// counts, Theorem 4 "would losing these routers partition us?" -- without
// ever pausing ingestion. Every answer is stamped with the epoch snapshot
// it was computed against, so the dashboard can show exactly how stale it
// is. This is the always-on counterpart of network_monitor's stop-the-
// world audit points.
//
//   $ ./serve_cli
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "serve/sketch_server.h"
#include "util/random.h"

using namespace gms;

namespace {

/// One framed request/response round trip, as a remote client would do it.
serve::ServeResponse Ask(serve::SketchServer& server,
                         const serve::ServeRequest& req) {
  std::vector<uint8_t> req_buf, resp_buf;
  serve::EncodeServeRequest(req, &req_buf);
  server.HandleFrame(req_buf, &resp_buf);
  auto resp = serve::DecodeServeResponse(resp_buf);
  if (!resp.ok()) {
    std::printf("transport error: %s\n", resp.status().message().c_str());
    return serve::ServeResponse{};
  }
  return *resp;
}

void PrintAnswer(const char* what, const serve::ServeResponse& resp) {
  if (resp.code != StatusCode::kOk) {
    std::printf("  %-28s refused: %s\n", what, resp.message.c_str());
    return;
  }
  std::printf("  %-28s %llu   (epoch %llu, covers %llu updates)\n", what,
              static_cast<unsigned long long>(resp.value),
              static_cast<unsigned long long>(resp.epoch),
              static_cast<unsigned long long>(resp.prefix_updates));
}

}  // namespace

int main() {
  constexpr size_t kRouters = 600;
  constexpr uint64_t kSeed = 20150531;  // PODS'15

  std::printf("bringing up a %zu-router fabric server...\n", kRouters);
  const auto params =
      serve::SketchServerParams::Builder()
          .Forest(ForestSketchParams::Builder()
                      .Config(SketchConfig::Light())
                      .Build())
          .Vc(VcQueryParams::Builder()
                  .K(2)
                  .RMultiplier(0.5)
                  .Forest(ForestSketchParams::Builder()
                              .Config(SketchConfig::Light())
                              .Build())
                  .Build())
          .EpochUpdates(2048)
          .Build();
  serve::SketchServer server(kRouters, params, kSeed);

  // The fabric: three overlaid rings (3-connected whp), streamed with
  // decoy links that appear and disappear (inserts later deleted).
  const Graph fabric = UnionOfHamiltonianCycles(kRouters, 3, kSeed + 1);
  const DynamicStream stream =
      DynamicStream::WithChurn(fabric, /*decoys=*/8000, kSeed + 2);
  const auto& updates = stream.updates();
  std::printf("streaming %zu link events with a live dashboard...\n\n",
              updates.size());

  std::thread ingest([&] {
    constexpr size_t kChunk = 1024;
    for (size_t i = 0; i < updates.size(); i += kChunk) {
      const size_t take = std::min(kChunk, updates.size() - i);
      server.Ingest(std::span<const StreamUpdate>(updates.data() + i, take));
    }
  });

  // The dashboard polls while links churn underneath it.
  Rng rng(kSeed + 3);
  uint64_t polls = 0;
  for (int round = 0; round < 3; ++round) {
    // Let a few epochs land between printouts so the dashboard visibly
    // advances while links still churn.
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    serve::ServeRequest req;
    req.op = serve::ServeOp::kNumComponents;
    PrintAnswer("components (live):", Ask(server, req));
    for (int i = 0; i < 2000; ++i) {  // hammer in between the printouts
      serve::ServeRequest probe;
      probe.op = serve::ServeOp::kConnected;
      probe.u = rng.Below(kRouters);
      probe.v = rng.Below(kRouters);
      (void)Ask(server, probe);
      ++polls;
    }
  }
  ingest.join();
  server.Flush();
  std::printf("\ningest finished; %llu live polls answered. Final state:\n",
              static_cast<unsigned long long>(polls));

  serve::ServeRequest req;
  req.op = serve::ServeOp::kNumComponents;
  PrintAnswer("components (final):", Ask(server, req));

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kConnected;
  req.u = 0;
  req.v = kRouters / 2;
  PrintAnswer("connected(0, n/2):", Ask(server, req));

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kDisconnects;
  req.query_set = {3, 7};
  PrintAnswer("losing routers {3,7} cuts:", Ask(server, req));

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kVcAtLeast;
  req.t = 2;
  PrintAnswer("2-vertex-connected:", Ask(server, req));

  const auto stats = server.forest_engine().stats();
  std::printf(
      "\nserver internals: %llu epochs sealed, %llu merged, "
      "%llu cache rebuilds, %llu hits, %llu extractions deferred\n",
      static_cast<unsigned long long>(stats.epochs_sealed),
      static_cast<unsigned long long>(stats.epochs_merged),
      static_cast<unsigned long long>(stats.cache_rebuilds),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.extractions_deferred));
  return 0;
}
