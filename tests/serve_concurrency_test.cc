// Query-during-ingest correctness under real thread interleavings (run
// under the tsan preset as part of the data-race smoke check).
//
// Two query threads hammer snapshots while the ingest thread feeds a
// churny stream. Every observed snapshot names the exact stream prefix it
// covers (prefix_updates); linearity plus the library-wide determinism
// guarantee make that claim falsifiable: replaying the prefix into a
// fresh sketch must reproduce the payload bit for bit. The test records
// every distinct prefix observed mid-flight and verifies each one after
// the threads join.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "connectivity/k_skeleton.h"
#include "graph/generators.h"
#include "serve/sketch_server.h"
#include "serve/serving_engine.h"
#include "util/random.h"
#include "vertexconn/vc_query_sketch.h"

namespace gms {
namespace {

ForestSketchParams LightForest() {
  return ForestSketchParams::Builder()
      .Config(SketchConfig::Light())
      .Build();
}

TEST(ServeConcurrencyTest, SnapshotsArePrefixConsistent) {
  const size_t n = 80;
  const Graph g = UnionOfHamiltonianCycles(n, 3, 101);
  const DynamicStream stream = DynamicStream::WithChurn(g, 600, 102);
  const auto& updates = stream.updates();

  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 103, LightForest()),
      ServingParams::Builder().EpochUpdates(128).Build());

  using Snapshot = ServingEngine<SpanningForestSketch>::Snapshot;
  std::atomic<bool> done{false};
  std::atomic<size_t> observing{0};
  constexpr size_t kQueryThreads = 2;
  // Each thread keeps the snapshots it saw, keyed by prefix; payload
  // pointers stay alive because the snapshot holds them.
  std::vector<std::map<uint64_t, std::shared_ptr<const Snapshot>>> seen(
      kQueryThreads);
  std::vector<std::thread> queriers;
  for (size_t q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&, q] {
      uint64_t last_prefix = 0;
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = engine.Current();
        if (first) {
          observing.fetch_add(1, std::memory_order_release);
          first = false;
        }
        ASSERT_TRUE(snap->status.ok());
        // A single observer must never see the prefix move backwards.
        ASSERT_GE(snap->prefix_updates, last_prefix);
        last_prefix = snap->prefix_updates;
        seen[q].emplace(snap->prefix_updates, snap);
      }
    });
  }

  // Ingest starts once every query thread holds a snapshot: the whole
  // stream takes a few milliseconds, so on a loaded host a thread
  // scheduled late would otherwise observe nothing.
  while (observing.load(std::memory_order_acquire) < kQueryThreads) {
    std::this_thread::yield();
  }
  constexpr size_t kChunk = 64;
  for (size_t i = 0; i < updates.size(); i += kChunk) {
    const size_t take = std::min(kChunk, updates.size() - i);
    engine.Process(std::span<const StreamUpdate>(updates.data() + i, take));
  }
  engine.Flush();
  done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();

  // Every observed snapshot is the exact extraction of its stream prefix.
  size_t distinct = 0;
  for (const auto& thread_seen : seen) {
    EXPECT_FALSE(thread_seen.empty());
    for (const auto& [prefix, snap] : thread_seen) {
      ASSERT_LE(prefix, updates.size());
      SpanningForestSketch replay(n, 2, 103, LightForest());
      replay.Process(std::span<const StreamUpdate>(updates.data(), prefix));
      auto direct = replay.Query();
      ASSERT_TRUE(direct.ok());
      EXPECT_TRUE(*snap->payload == direct.value())
          << "snapshot for prefix " << prefix
          << " does not match its replay";
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0u);
}

TEST(ServeConcurrencyTest, ServerHandlesFramesDuringIngest) {
  const size_t n = 64;
  const Graph g = UnionOfHamiltonianCycles(n, 2, 111);
  const DynamicStream stream = DynamicStream::WithChurn(g, 400, 112);
  const auto& updates = stream.updates();

  const auto params = serve::SketchServerParams::Builder()
                          .Forest(LightForest())
                          .EpochUpdates(128)
                          .Build();
  serve::SketchServer server(n, params, 113);

  std::atomic<bool> done{false};
  std::atomic<size_t> observing{0};
  std::vector<std::thread> queriers;
  std::vector<uint64_t> answered(2);
  for (size_t q = 0; q < answered.size(); ++q) {
    queriers.emplace_back([&, q] {
      Rng rng(114 + q);
      uint64_t last_prefix = 0;
      std::vector<uint8_t> req_buf, resp_buf;
      while (!done.load(std::memory_order_acquire)) {
        req_buf.clear();
        resp_buf.clear();
        serve::ServeRequest req;
        req.op = serve::ServeOp::kConnected;
        req.u = rng.Below(n);
        req.v = rng.Below(n);
        serve::EncodeServeRequest(req, &req_buf);
        server.HandleFrame(req_buf, &resp_buf);
        if (answered[q] == 0) {
          observing.fetch_add(1, std::memory_order_release);
        }
        auto resp = serve::DecodeServeResponse(resp_buf);
        ASSERT_TRUE(resp.ok());
        ASSERT_EQ(resp->code, StatusCode::kOk);
        ASSERT_GE(resp->prefix_updates, last_prefix);
        last_prefix = resp->prefix_updates;
        ++answered[q];
      }
    });
  }

  // As above: ingest starts once every query thread has been answered.
  while (observing.load(std::memory_order_acquire) < answered.size()) {
    std::this_thread::yield();
  }
  constexpr size_t kChunk = 64;
  for (size_t i = 0; i < updates.size(); i += kChunk) {
    const size_t take = std::min(kChunk, updates.size() - i);
    server.Ingest(std::span<const StreamUpdate>(updates.data() + i, take));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();
  server.Flush();

  for (uint64_t a : answered) EXPECT_GT(a, 0u);

  // Post-flush, the final answers are exact: the generator graph is
  // connected, so every surviving pair connects.
  serve::ServeRequest req;
  req.op = serve::ServeOp::kNumComponents;
  const auto resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, 1u);
  EXPECT_EQ(resp.prefix_updates, updates.size());
}

// The exact kernels behind kVcAtLeast and kDisconnects run on the shared
// const VcUnionSnapshot from several threads at once, with per-call
// workspaces only; tsan checks that while the merger publishes snapshots.
TEST(ServeConcurrencyTest, VcReadsDuringIngest) {
  const size_t n = 48;
  const Graph g = UnionOfHamiltonianCycles(n, 3, 121);
  const DynamicStream stream = DynamicStream::WithChurn(g, 200, 122);
  const auto& updates = stream.updates();

  const auto params = serve::SketchServerParams::Builder()
                          .Forest(LightForest())
                          .Vc(VcQueryParams::Builder()
                                  .K(2)
                                  .RMultiplier(0.5)
                                  .Forest(LightForest())
                                  .Build())
                          .EpochUpdates(64)
                          .Build();
  serve::SketchServer server(n, params, 123);

  std::atomic<bool> done{false};
  std::atomic<size_t> observing{0};
  std::vector<std::thread> queriers;
  std::vector<uint64_t> answered(3);
  for (size_t q = 0; q < answered.size(); ++q) {
    queriers.emplace_back([&, q] {
      Rng rng(124 + q);
      while (!done.load(std::memory_order_acquire)) {
        serve::ServeRequest req;
        if (rng.Below(2) == 0) {
          req.op = serve::ServeOp::kVcAtLeast;
          req.t = 1 + rng.Below(3);
        } else {
          req.op = serve::ServeOp::kDisconnects;
          req.query_set = {static_cast<VertexId>(rng.Below(n)),
                           static_cast<VertexId>(rng.Below(n))};
        }
        const serve::ServeResponse resp = server.Handle(req);
        // A snapshot may whp-rarely fail to decode; nothing else refuses.
        ASSERT_TRUE(resp.code == StatusCode::kOk ||
                    resp.code == StatusCode::kDecodeFailure);
        if (answered[q] == 0) {
          observing.fetch_add(1, std::memory_order_release);
        }
        ++answered[q];
      }
    });
  }

  while (observing.load(std::memory_order_acquire) < answered.size()) {
    std::this_thread::yield();
  }
  constexpr size_t kChunk = 32;
  for (size_t i = 0; i < updates.size(); i += kChunk) {
    const size_t take = std::min(kChunk, updates.size() - i);
    server.Ingest(std::span<const StreamUpdate>(updates.data() + i, take));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();
  server.Flush();

  for (uint64_t a : answered) EXPECT_GT(a, 0u);
  // A union of Hamiltonian cycles is 2-connected.
  serve::ServeRequest req;
  req.op = serve::ServeOp::kVcAtLeast;
  req.t = 2;
  const serve::ServeResponse resp = server.Handle(req);
  ASSERT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, 1u);
  EXPECT_EQ(resp.prefix_updates, updates.size());
}

// The skeleton engine's merger decodes every epoch's k = 2 skeleton with
// the peeled extraction (per-call overlay, no copy) while query threads
// read the published bridge index and edge count. After the flush the
// served skeleton must equal a fresh sketch's skeleton of the whole
// stream (seed + 2 is the server's skeleton seed).
TEST(ServeConcurrencyTest, SkeletonReadsDuringIngest) {
  const size_t n = 48;
  const Graph g = UnionOfHamiltonianCycles(n, 2, 131);
  const DynamicStream stream = DynamicStream::WithChurn(g, 200, 132);
  const auto& updates = stream.updates();

  const auto params = serve::SketchServerParams::Builder()
                          .Forest(LightForest())
                          .SkeletonK(2)
                          .EpochUpdates(64)
                          .Build();
  serve::SketchServer server(n, params, 133);

  std::atomic<bool> done{false};
  std::atomic<size_t> observing{0};
  std::vector<std::thread> queriers;
  std::vector<uint64_t> answered(3);
  for (size_t q = 0; q < answered.size(); ++q) {
    queriers.emplace_back([&, q] {
      Rng rng(134 + q);
      while (!done.load(std::memory_order_acquire)) {
        serve::ServeRequest req;
        if (rng.Below(2) == 0) {
          req.op = serve::ServeOp::kSkeletonEdgeCount;
        } else {
          req.op = serve::ServeOp::kIsBridge;
          req.u = rng.Below(n);
          req.v = (req.u + 1 + rng.Below(n - 1)) % n;
        }
        const serve::ServeResponse resp = server.Handle(req);
        ASSERT_TRUE(resp.code == StatusCode::kOk ||
                    resp.code == StatusCode::kDecodeFailure);
        if (answered[q] == 0) {
          observing.fetch_add(1, std::memory_order_release);
        }
        ++answered[q];
      }
    });
  }

  while (observing.load(std::memory_order_acquire) < answered.size()) {
    std::this_thread::yield();
  }
  constexpr size_t kChunk = 32;
  for (size_t i = 0; i < updates.size(); i += kChunk) {
    const size_t take = std::min(kChunk, updates.size() - i);
    server.Ingest(std::span<const StreamUpdate>(updates.data() + i, take));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();
  server.Flush();

  for (uint64_t a : answered) EXPECT_GT(a, 0u);
  KSkeletonSketch replay(n, 2, 2, 133 + 2, LightForest());
  replay.Process(stream);
  auto want = replay.Query();
  ASSERT_TRUE(want.ok());
  serve::ServeRequest req;
  req.op = serve::ServeOp::kSkeletonEdgeCount;
  const serve::ServeResponse resp = server.Handle(req);
  ASSERT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, want.value().NumEdges());
  EXPECT_EQ(resp.prefix_updates, updates.size());
}

}  // namespace
}  // namespace gms
