// Tests for the always-on serving layer: engine equivalence with one-shot
// extraction, cached-payload validity, snapshot immutability, the server
// dispatch surface, and adversarial decoding of the serve protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "serve/serve_protocol.h"
#include "serve/sketch_server.h"
#include "serve/serving_engine.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {
namespace {

ForestSketchParams LightForest() {
  return ForestSketchParams::Builder()
      .Config(SketchConfig::Light())
      .Build();
}

ServingParams SmallEpochs(size_t epoch_updates) {
  return ServingParams::Builder().EpochUpdates(epoch_updates).Build();
}

TEST(ServeEngineTest, FlushedSnapshotMatchesOneShotExtraction) {
  const size_t n = 64;
  const Graph g = UnionOfHamiltonianCycles(n, 2, 21);
  const DynamicStream stream = DynamicStream::WithChurn(g, 300, 22);

  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 23, LightForest()), SmallEpochs(128));
  engine.Process(stream);
  engine.Flush();
  auto snap = engine.Current();
  ASSERT_TRUE(snap->status.ok());
  EXPECT_EQ(snap->prefix_updates, stream.updates().size());

  SpanningForestSketch oneshot(n, 2, 23, LightForest());
  oneshot.Process(stream);
  auto direct = oneshot.Query();
  ASSERT_TRUE(direct.ok());
  // Linearity: merging per-epoch deltas must land on the exact same cells,
  // so the extracted forests agree bit for bit.
  EXPECT_TRUE(*snap->payload == direct.value());

  const auto stats = engine.stats();
  EXPECT_EQ(stats.updates_ingested, stream.updates().size());
  EXPECT_EQ(stats.updates_merged, stream.updates().size());
  EXPECT_EQ(stats.epochs_sealed, stats.epochs_merged);
  EXPECT_GE(stats.epochs_sealed,
            stream.updates().size() / engine.params().epoch_updates);
}

TEST(ServeEngineTest, CleanEpochReusesCachedPayload) {
  const size_t n = 32;
  const Graph g = UnionOfHamiltonianCycles(n, 2, 31);
  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 32, LightForest()), SmallEpochs(1 << 12));

  engine.Process(DynamicStream::InsertOnly(g, 33));
  engine.AdvanceEpoch();
  engine.Flush();
  auto dirty_snap = engine.Current();
  ASSERT_TRUE(dirty_snap->status.ok());
  auto stats = engine.stats();
  EXPECT_EQ(stats.cache_rebuilds, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);

  // An empty epoch (time-driven boundary on an idle stream) must advance
  // the epoch counter while re-publishing the SAME payload object.
  engine.AdvanceEpoch();
  engine.Flush();
  auto clean_snap = engine.Current();
  EXPECT_EQ(clean_snap->epoch, dirty_snap->epoch + 1);
  EXPECT_EQ(clean_snap->prefix_updates, dirty_snap->prefix_updates);
  EXPECT_EQ(clean_snap->payload.get(), dirty_snap->payload.get());
  stats = engine.stats();
  EXPECT_EQ(stats.cache_rebuilds, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // A subsequent dirty epoch invalidates: new payload object.
  engine.Process(DynamicStream::WithChurn(g, 50, 34));
  engine.AdvanceEpoch();
  engine.Flush();
  auto rebuilt = engine.Current();
  EXPECT_NE(rebuilt->payload.get(), clean_snap->payload.get());
  EXPECT_EQ(engine.stats().cache_rebuilds, 2u);
}

TEST(ServeEngineTest, HeldSnapshotSurvivesLaterEpochs) {
  const size_t n = 48;
  const Graph g = UnionOfHamiltonianCycles(n, 3, 41);
  const DynamicStream stream = DynamicStream::InsertOnly(g, 42);
  const auto& updates = stream.updates();
  const size_t half = updates.size() / 2;

  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 43, LightForest()), SmallEpochs(64));
  engine.Process(std::span<const StreamUpdate>(updates.data(), half));
  engine.Flush();
  auto early = engine.Current();
  ASSERT_TRUE(early->status.ok());
  EXPECT_EQ(early->prefix_updates, half);

  engine.Process(std::span<const StreamUpdate>(updates.data() + half,
                                               updates.size() - half));
  engine.Flush();
  auto late = engine.Current();
  EXPECT_GT(late->prefix_updates, early->prefix_updates);

  // The held snapshot still answers for its prefix: a fresh sketch over
  // exactly that prefix extracts the identical payload.
  SpanningForestSketch prefix(n, 2, 43, LightForest());
  prefix.Process(std::span<const StreamUpdate>(updates.data(), half));
  auto prefix_q = prefix.Query();
  ASSERT_TRUE(prefix_q.ok());
  EXPECT_TRUE(*early->payload == prefix_q.value());
}

TEST(ServeEngineTest, VcEngineServesTheoremFourAnswers) {
  const size_t n = 40;
  auto planted = PlantedSeparator(n, 2, 51);
  const auto params = VcQueryParams::Builder()
                          .K(2)
                          .RMultiplier(0.5)
                          .Forest(LightForest())
                          .Build();
  ServingEngine<VcQuerySketch> engine(VcQuerySketch(n, params, 52),
                                      SmallEpochs(64));
  engine.Process(DynamicStream::InsertOnly(planted.graph, 53));
  engine.Flush();
  auto snap = engine.Current();
  ASSERT_TRUE(snap->status.ok());
  auto cuts = snap->payload->Disconnects(planted.separator);
  ASSERT_TRUE(cuts.ok());
  EXPECT_TRUE(*cuts);
}

TEST(ServeServerTest, DispatchAnswersEveryOp) {
  const size_t n = 60;
  const Graph g = UnionOfHamiltonianCycles(n, 3, 61);
  const auto params = serve::SketchServerParams::Builder()
                          .Forest(LightForest())
                          .Vc(VcQueryParams::Builder()
                                  .K(2)
                                  .RMultiplier(0.5)
                                  .Forest(LightForest())
                                  .Build())
                          .SkeletonK(2)
                          .EpochUpdates(256)
                          .Build();
  serve::SketchServer server(n, params, 62);
  server.Ingest(DynamicStream::InsertOnly(g, 63));
  server.Flush();

  serve::ServeRequest req;
  req.op = serve::ServeOp::kPing;
  EXPECT_EQ(server.Handle(req).code, StatusCode::kOk);

  req.op = serve::ServeOp::kConnected;
  req.u = 0;
  req.v = n - 1;
  auto resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, 1u);

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kNumComponents;
  resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, 1u);

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kDisconnects;
  req.query_set = {0, 1};
  resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value,
            IsConnectedExcluding(g, {0, 1}) ? 0u : 1u);

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kVcAtLeast;
  req.t = 2;
  resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, 1u);  // union of 3 Hamiltonian cycles

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kSkeletonEdgeCount;
  resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_GT(resp.value, 0u);

  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kStats;
  resp = server.Handle(req);
  EXPECT_EQ(resp.code, StatusCode::kOk);
  EXPECT_EQ(resp.value, DynamicStream::InsertOnly(g, 63).updates().size());

  const auto stats = server.stats();
  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeServerTest, RefusalsCarryStatusCodes) {
  const auto params =
      serve::SketchServerParams::Builder().Forest(LightForest()).Build();
  serve::SketchServer server(16, params, 71);
  server.Flush();

  // VC serving is disabled on this server.
  serve::ServeRequest req;
  req.op = serve::ServeOp::kDisconnects;
  req.query_set = {0};
  EXPECT_EQ(server.Handle(req).code, StatusCode::kFailedPrecondition);

  // Out-of-range endpoint.
  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kConnected;
  req.u = 16;
  req.v = 0;
  EXPECT_EQ(server.Handle(req).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().errors, 2u);
}

TEST(ServeServerTest, VcRefusalsFlowThroughTheSnapshot) {
  const auto params = serve::SketchServerParams::Builder()
                          .Forest(LightForest())
                          .Vc(VcQueryParams::Builder()
                                  .K(2)
                                  .RMultiplier(0.5)
                                  .Forest(LightForest())
                                  .Build())
                          .Build();
  serve::SketchServer server(24, params, 72);
  server.Ingest(
      DynamicStream::InsertOnly(UnionOfHamiltonianCycles(24, 3, 73), 74));
  server.Flush();

  // t beyond what a k=2 build certifies.
  serve::ServeRequest req;
  req.op = serve::ServeOp::kVcAtLeast;
  req.t = 4;
  EXPECT_EQ(server.Handle(req).code, StatusCode::kInvalidArgument);

  // Query set larger than k (after dedup).
  req = serve::ServeRequest{};
  req.op = serve::ServeOp::kDisconnects;
  req.query_set = {0, 1, 2};
  EXPECT_EQ(server.Handle(req).code, StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, RequestRoundTrip) {
  serve::ServeRequest req;
  req.op = serve::ServeOp::kDisconnects;
  req.u = 7;
  req.v = 9;
  req.t = 3;
  req.query_set = {4, 2, 4, 11};
  std::vector<uint8_t> buf;
  serve::EncodeServeRequest(req, &buf);

  auto peek = wire::PeekFrameType(buf);
  ASSERT_TRUE(peek.ok());
  EXPECT_EQ(*peek, wire::FrameType::kServeRequest);

  auto back = serve::DecodeServeRequest(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, req.op);
  EXPECT_EQ(back->u, req.u);
  EXPECT_EQ(back->v, req.v);
  EXPECT_EQ(back->t, req.t);
  EXPECT_EQ(back->query_set, req.query_set);
}

TEST(ServeProtocolTest, ResponseRoundTrip) {
  serve::ServeResponse resp;
  resp.op = serve::ServeOp::kVcAtLeast;
  resp.code = StatusCode::kInvalidArgument;
  resp.message = "t exceeds the build";
  resp.epoch = 12;
  resp.prefix_updates = 98304;
  resp.value = 0;
  std::vector<uint8_t> buf;
  serve::EncodeServeResponse(resp, &buf);

  auto back = serve::DecodeServeResponse(buf);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, resp.op);
  EXPECT_EQ(back->code, resp.code);
  EXPECT_EQ(back->message, resp.message);
  EXPECT_EQ(back->epoch, resp.epoch);
  EXPECT_EQ(back->prefix_updates, resp.prefix_updates);
  EXPECT_EQ(back->status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeProtocolTest, HostileFramesNeverCrash) {
  serve::ServeRequest req;
  req.op = serve::ServeOp::kDisconnects;
  req.query_set = {1, 2, 3};
  std::vector<uint8_t> buf;
  serve::EncodeServeRequest(req, &buf);

  // Every truncation fails cleanly.
  for (size_t len = 0; len < buf.size(); ++len) {
    auto r = serve::DecodeServeRequest(
        std::span<const uint8_t>(buf.data(), len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes decoded";
  }
  // Every single-byte corruption fails cleanly (the frame checksum
  // catches whatever the field validation does not).
  for (size_t i = 0; i < buf.size(); ++i) {
    std::vector<uint8_t> mutated = buf;
    mutated[i] ^= 0x5A;
    auto r = serve::DecodeServeRequest(mutated);
    EXPECT_FALSE(r.ok()) << "corruption at byte " << i << " decoded";
  }

  serve::ServeResponse resp;
  resp.op = serve::ServeOp::kStats;
  resp.message = "ok";
  resp.value = 17;
  std::vector<uint8_t> rbuf;
  serve::EncodeServeResponse(resp, &rbuf);
  for (size_t len = 0; len < rbuf.size(); ++len) {
    EXPECT_FALSE(serve::DecodeServeResponse(
                     std::span<const uint8_t>(rbuf.data(), len))
                     .ok());
  }
  for (size_t i = 0; i < rbuf.size(); ++i) {
    std::vector<uint8_t> mutated = rbuf;
    mutated[i] ^= 0x5A;
    EXPECT_FALSE(serve::DecodeServeResponse(mutated).ok());
  }
}

TEST(ServeProtocolTest, ServerAnswersGarbageWithAnErrorFrame) {
  const auto params =
      serve::SketchServerParams::Builder().Forest(LightForest()).Build();
  serve::SketchServer server(8, params, 81);

  const std::vector<uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  std::vector<uint8_t> out;
  server.HandleFrame(garbage, &out);
  auto resp = serve::DecodeServeResponse(out);
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp->code, StatusCode::kOk);
  EXPECT_EQ(server.stats().errors, 1u);

  // A sketch-state frame is not a serve request either.
  SpanningForestSketch sketch(8, 2, 82, LightForest());
  std::vector<uint8_t> state;
  sketch.Serialize(&state);
  out.clear();
  server.HandleFrame(state, &out);
  resp = serve::DecodeServeResponse(out);
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp->code, StatusCode::kOk);
}

TEST(ServeProtocolTest, OpNamesAreStable) {
  EXPECT_STREQ(serve::ServeOpName(serve::ServeOp::kPing), "ping");
  EXPECT_STREQ(serve::ServeOpName(serve::ServeOp::kDisconnects),
               "disconnects");
  EXPECT_STREQ(serve::ServeOpName(static_cast<serve::ServeOp>(999)),
               "unknown");
  EXPECT_STREQ(wire::FrameTypeName(wire::FrameType::kServeRequest),
               "serve_request");
  EXPECT_STREQ(wire::FrameTypeName(wire::FrameType::kServeResponse),
               "serve_response");
}

TEST(ServeComponentIndexTest, MatchesTraversal) {
  Rng rng(91);
  Graph g(50);
  for (int i = 0; i < 40; ++i) {
    VertexId a = static_cast<VertexId>(rng.Below(50));
    VertexId b = static_cast<VertexId>(rng.Below(50));
    if (a != b) g.AddEdge(Edge(a, b));
  }
  // Index the graph itself (any forest of it yields the same components).
  serve::ComponentIndex index(50, Hypergraph::FromGraph(g));
  const std::vector<uint32_t> truth = ConnectedComponents(g);
  EXPECT_EQ(index.num_components(), NumComponents(g));
  for (int t = 0; t < 100; ++t) {
    VertexId a = static_cast<VertexId>(rng.Below(50));
    VertexId b = static_cast<VertexId>(rng.Below(50));
    EXPECT_EQ(index.Connected(a, b), truth[a] == truth[b]);
  }
}

// ---------------------------------------------------------------------------
// Adaptive epoch pacing: with epoch_deadline_ms set, the engine seals on
// the wall-clock deadline OR the update count, whichever fires first -- a
// slow stream's updates stop parking in the open delta indefinitely.
// ---------------------------------------------------------------------------

TEST(ServeAdaptivePacingTest, DeadlineSealsSlowStreamWithoutFlush) {
  const size_t n = 48;
  const Graph g = UnionOfHamiltonianCycles(n, 2, 51);
  const DynamicStream stream = DynamicStream::InsertOnly(g, 52);

  // The epoch count alone would NEVER seal this stream (epoch_updates far
  // exceeds it); only the pacer can publish the updates.
  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 53, LightForest()),
      ServingParams::Builder()
          .EpochUpdates(1 << 20)
          .EpochDeadlineMillis(10)
          .Build());
  engine.Process(stream);

  // No Flush, no AdvanceEpoch: wait (bounded) for the pacer to publish.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine.Current()->prefix_updates < stream.updates().size()) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "pacer never sealed the open delta";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto stats = engine.stats();
  EXPECT_GE(stats.deadline_seals, 1u);

  // Staleness test: the deadline-sealed snapshot is the EXACT prefix
  // measurement, bit for bit, like any count-sealed epoch.
  auto snap = engine.Current();
  ASSERT_TRUE(snap->status.ok());
  SpanningForestSketch oneshot(n, 2, 53, LightForest());
  oneshot.Process(stream);
  auto direct = oneshot.Query();
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(*snap->payload == direct.value());
}

TEST(ServeAdaptivePacingTest, CountStillSealsFirstOnFastStreams) {
  const size_t n = 48;
  const Graph g = UnionOfHamiltonianCycles(n, 3, 61);
  const DynamicStream stream = DynamicStream::WithChurn(g, 200, 62);

  // Tiny epochs + a deadline far beyond the test's runtime: every seal
  // should be count-triggered even with the pacer thread running.
  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 63, LightForest()),
      ServingParams::Builder()
          .EpochUpdates(64)
          .EpochDeadlineMillis(60 * 1000)
          .Build());
  engine.Process(stream);
  engine.Flush();
  const auto stats = engine.stats();
  EXPECT_GE(stats.epochs_sealed,
            stream.updates().size() / engine.params().epoch_updates);
  EXPECT_EQ(stats.deadline_seals, 0u);

  auto snap = engine.Current();
  ASSERT_TRUE(snap->status.ok());
  EXPECT_EQ(snap->prefix_updates, stream.updates().size());
}

TEST(ServeAdaptivePacingTest, DisabledPacerLeavesOpenDeltaParked) {
  const size_t n = 32;
  const Graph g = UnionOfHamiltonianCycles(n, 2, 71);
  ServingEngine<SpanningForestSketch> engine(
      SpanningForestSketch(n, 2, 72, LightForest()), SmallEpochs(1 << 20));
  engine.Process(DynamicStream::InsertOnly(g, 73));

  // Default params: no pacer thread at all. The open delta must still be
  // unpublished after a wait longer than any pacing interval above.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(engine.Current()->prefix_updates, 0u);
  EXPECT_EQ(engine.stats().deadline_seals, 0u);
  EXPECT_EQ(engine.stats().epochs_sealed, 0u);
}


// ---------------------------------------------------------------------------
// Deferred extraction, pinned with a gated test double: the double's
// MergeFrom blocks until the test releases it, so a test can hold the
// merger mid-merge while the ingest thread runs into backpressure.
// ---------------------------------------------------------------------------

/// The double's Query() payload: how many updates the state covers and a
/// linear checksum over them, so a snapshot proves which prefix it holds.
struct CountPayload {
  uint64_t updates = 0;
  uint64_t checksum = 0;
};

/// Shared by the test and every copy of the double: merge permits, and
/// the merger's call log ('M' per MergeFrom, 'Q' per Query).
class MergeGate {
 public:
  /// Let `permits` more MergeFrom calls through.
  void Release(size_t permits) {
    std::lock_guard<std::mutex> lock(mu_);
    permits_ += permits;
    cv_.notify_all();
  }
  /// Let every MergeFrom through from now on, each after `delay`.
  void Open(std::chrono::microseconds delay = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    delay_ = delay;
    cv_.notify_all();
  }
  /// Block until `count` MergeFrom calls have started.
  void WaitEntered(size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= count; });
  }

  void Merge() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_ || permits_ > 0; });
    if (!open_) --permits_;
    const auto delay = delay_;
    log_ += 'M';
    lock.unlock();
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  void Extract(uint64_t updates) {
    std::lock_guard<std::mutex> lock(mu_);
    log_ += 'Q';
    extracted_.push_back(updates);
  }

  std::string log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }
  /// The update count of every state Query() ran on, in call order.
  std::vector<uint64_t> extracted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return extracted_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t permits_ = 0;
  size_t entered_ = 0;
  bool open_ = false;
  std::chrono::microseconds delay_{0};
  std::string log_;
  std::vector<uint64_t> extracted_;
};

/// A linear "sketch" of the stream for ServingEngine: it counts updates
/// and sums their larger endpoints.
class GatedSketch {
 public:
  explicit GatedSketch(std::shared_ptr<MergeGate> gate)
      : gate_(std::move(gate)) {}

  void Process(std::span<const StreamUpdate> updates) {
    for (const StreamUpdate& u : updates) {
      ++state_.updates;
      state_.checksum += u.edge[1];
    }
  }
  bool SnapshotDirty() const { return state_.updates > 0; }
  GatedSketch CloneEmpty() const { return GatedSketch(gate_); }
  Status MergeFrom(const GatedSketch& other) {
    gate_->Merge();
    state_.updates += other.state_.updates;
    state_.checksum += other.state_.checksum;
    return Status::OK();
  }
  void Clear() { state_ = CountPayload(); }
  QueryResult<CountPayload> Query() const {
    gate_->Extract(state_.updates);
    return QueryResult<CountPayload>(state_);
  }

 private:
  std::shared_ptr<MergeGate> gate_;
  CountPayload state_;
};

using GatedEngine = ServingEngine<GatedSketch>;

/// Update i (0-based) is the edge {0, i + 1}, so a prefix of p updates
/// has checksum p (p + 1) / 2.
std::vector<StreamUpdate> NumberedUpdates(size_t count) {
  std::vector<StreamUpdate> updates;
  for (size_t i = 0; i < count; ++i) {
    updates.emplace_back(Hyperedge{0, static_cast<VertexId>(i + 1)}, +1);
  }
  return updates;
}

std::span<const StreamUpdate> Slice(const std::vector<StreamUpdate>& updates,
                                    size_t begin, size_t end) {
  return std::span<const StreamUpdate>(updates.data() + begin, end - begin);
}

void ExpectExactPrefix(const GatedEngine::Snapshot& snap) {
  ASSERT_TRUE(snap.status.ok());
  const uint64_t p = snap.prefix_updates;
  EXPECT_EQ(snap.payload->updates, p);
  EXPECT_EQ(snap.payload->checksum, p * (p + 1) / 2);
}

void ExpectCountersAddUp(const GatedEngine::Stats& stats) {
  EXPECT_EQ(stats.epochs_merged, stats.cache_hits + stats.cache_rebuilds +
                                     stats.extractions_deferred);
}

void WaitForSealWaits(const GatedEngine& engine, uint64_t count) {
  while (engine.stats().seal_waits < count) std::this_thread::yield();
}

TEST(ServeDeferralTest, DefersOnlyWhileASealIsBlocked) {
  auto gate = std::make_shared<MergeGate>();
  GatedEngine engine(GatedSketch(gate), SmallEpochs(4));
  const auto updates = NumberedUpdates(12);

  // Epoch 1 seals at once; the merger then sits in its MergeFrom. No seal
  // waits behind it, so releasing the merge publishes epoch 1 directly.
  engine.Process(Slice(updates, 0, 4));
  gate->WaitEntered(1);
  gate->Release(1);
  engine.Flush();
  EXPECT_EQ(engine.Current()->epoch, 1u);
  EXPECT_EQ(engine.stats().seal_waits, 0u);
  EXPECT_EQ(engine.stats().extractions_deferred, 0u);

  // Epoch 2 seals and the merger holds it; epoch 3's seal then blocks for
  // the recycled delta. Finishing that merge defers its extraction: the
  // delta goes straight back, epoch 3 seals, and the merger moves on to it
  // with epoch 2 merged but unpublished.
  std::thread ingest([&] { engine.Process(Slice(updates, 4, 12)); });
  gate->WaitEntered(2);
  WaitForSealWaits(engine, 1);
  gate->Release(1);
  gate->WaitEntered(3);
  ingest.join();
  EXPECT_EQ(engine.Current()->epoch, 1u);
  EXPECT_EQ(engine.Current()->prefix_updates, 4u);
  EXPECT_EQ(engine.stats().extractions_deferred, 1u);
  EXPECT_EQ(engine.stats().epochs_merged, 2u);

  // One extraction publishes both epochs.
  gate->Release(1);
  engine.Flush();
  const auto snap = engine.Current();
  EXPECT_EQ(snap->epoch, 3u);
  EXPECT_EQ(snap->prefix_updates, 12u);
  ExpectExactPrefix(*snap);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.epochs_merged, 3u);
  EXPECT_EQ(stats.cache_rebuilds, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.extractions_deferred, 1u);
  EXPECT_EQ(stats.updates_merged, 12u);
  ExpectCountersAddUp(stats);
  EXPECT_EQ(gate->log(), "QMQMMQ");
}

TEST(ServeDeferralTest, NeverDefersTwiceInARow) {
  auto gate = std::make_shared<MergeGate>();
  GatedEngine engine(GatedSketch(gate), SmallEpochs(4));
  const auto updates = NumberedUpdates(16);
  std::thread ingest([&] { engine.Process(updates); });

  // Epoch 1's merge finishes while epoch 2's seal waits: deferred.
  gate->WaitEntered(1);
  WaitForSealWaits(engine, 1);
  gate->Release(1);

  // Epoch 2's merge finishes while epoch 3's seal waits, but epoch 1 is
  // unpublished, so this time the merger extracts. Until then answers lag
  // by all three epochs: the deferred one, the merging one and the full
  // open one whose seal waits.
  gate->WaitEntered(2);
  WaitForSealWaits(engine, 2);
  EXPECT_EQ(engine.Current()->prefix_updates, 0u);
  EXPECT_EQ(engine.stats().updates_ingested, 12u);
  gate->Release(1);

  // Epoch 3 follows a published epoch, and epoch 4's seal waits: deferred.
  gate->WaitEntered(3);
  WaitForSealWaits(engine, 3);
  EXPECT_EQ(engine.Current()->epoch, 2u);
  EXPECT_EQ(engine.Current()->prefix_updates, 8u);
  ExpectExactPrefix(*engine.Current());
  gate->Release(1);

  gate->WaitEntered(4);
  gate->Release(1);
  ingest.join();
  engine.Flush();
  const auto snap = engine.Current();
  EXPECT_EQ(snap->epoch, 4u);
  ExpectExactPrefix(*snap);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.extractions_deferred, 2u);
  EXPECT_EQ(stats.cache_rebuilds, 2u);
  ExpectCountersAddUp(stats);
  EXPECT_EQ(gate->log(), "QMMQMMQ");
}

TEST(ServeDeferralTest, SnapshotsStayExactPrefixesUnderBackpressure) {
  constexpr size_t kEpoch = 8;
  constexpr size_t kChunk = 3;
  auto gate = std::make_shared<MergeGate>();
  // A slow merge keeps the ingest thread blocked on seals, so deferrals
  // interleave with plain publishes.
  gate->Open(std::chrono::microseconds(200));
  GatedEngine engine(GatedSketch(gate), SmallEpochs(kEpoch));
  const auto updates = NumberedUpdates(1500);

  // Updates whose Process call has returned (stored after each call).
  std::atomic<uint64_t> returned{0};
  std::atomic<bool> done{false};
  std::atomic<size_t> observing{0};
  constexpr size_t kQueryThreads = 2;
  std::vector<uint64_t> snapshots_seen(kQueryThreads, 0);
  std::vector<std::thread> queriers;
  for (size_t q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&, q] {
      uint64_t last_epoch = 0, last_prefix = 0;
      observing.fetch_add(1, std::memory_order_release);
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t seen = returned.load(std::memory_order_acquire);
        const auto snap = engine.Current();
        ExpectExactPrefix(*snap);
        ASSERT_GE(snap->epoch, last_epoch);
        ASSERT_GE(snap->prefix_updates, last_prefix);
        ASSERT_LT(seen, snap->prefix_updates + 3 * kEpoch)
            << "answer lags returned ingest by three epochs";
        last_epoch = snap->epoch;
        last_prefix = snap->prefix_updates;
        ++snapshots_seen[q];
      }
    });
  }
  while (observing.load(std::memory_order_acquire) < kQueryThreads) {
    std::this_thread::yield();
  }
  for (size_t i = 0; i < updates.size(); i += kChunk) {
    const size_t end = std::min(updates.size(), i + kChunk);
    engine.Process(Slice(updates, i, end));
    returned.store(end, std::memory_order_release);
  }
  engine.Flush();
  done.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();

  const auto snap = engine.Current();
  EXPECT_EQ(snap->prefix_updates, updates.size());
  ExpectExactPrefix(*snap);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.epochs_merged, stats.epochs_sealed);
  EXPECT_EQ(snap->epoch, stats.epochs_merged);
  EXPECT_LE(stats.extractions_deferred, stats.seal_waits);
  ExpectCountersAddUp(stats);
  // A deferral is a merge with no extraction after it; never two in a
  // row, so three merges never run back to back.
  const std::string log = gate->log();
  EXPECT_EQ(log.find("MMM"), std::string::npos);
  uint64_t adjacent = 0;
  for (size_t i = 1; i < log.size(); ++i) {
    adjacent += log[i - 1] == 'M' && log[i] == 'M';
  }
  EXPECT_EQ(adjacent, stats.extractions_deferred);
  for (uint64_t seen : snapshots_seen) EXPECT_GT(seen, 0u);
}

TEST(ServeDeferralTest, FlushPublishesTheDeferredPrefix) {
  auto gate = std::make_shared<MergeGate>();
  GatedEngine engine(GatedSketch(gate), SmallEpochs(4));
  const auto updates = NumberedUpdates(6);

  // Epoch 1 seals and the merger holds it; Flush's seal of the partial
  // epoch 2 then waits, so epoch 1's extraction is deferred.
  std::thread ingest([&] {
    engine.Process(updates);
    engine.Flush();
  });
  gate->WaitEntered(1);
  WaitForSealWaits(engine, 1);
  gate->Open();
  ingest.join();

  const auto snap = engine.Current();
  EXPECT_EQ(snap->epoch, 2u);
  EXPECT_EQ(snap->prefix_updates, 6u);
  ExpectExactPrefix(*snap);
  EXPECT_EQ(engine.stats().extractions_deferred, 1u);
  ExpectCountersAddUp(engine.stats());
}

TEST(ServeDeferralTest, DestructorPublishesEveryMergedEpoch) {
  auto gate = std::make_shared<MergeGate>();
  const auto updates = NumberedUpdates(8);
  {
    GatedEngine engine(GatedSketch(gate), SmallEpochs(4));
    // Epoch 2's seal waits on epoch 1's merge, which then defers; the
    // engine is destroyed right after the ingest call returns, possibly
    // before epoch 2 is even merged.
    std::thread ingest([&] { engine.Process(updates); });
    gate->WaitEntered(1);
    WaitForSealWaits(engine, 1);
    gate->Open();
    ingest.join();
  }
  EXPECT_EQ(gate->log(), "QMMQ");
  EXPECT_EQ(gate->extracted().back(), 8u);
}

}  // namespace
}  // namespace gms
