// Always-on query serving over a linear sketch (DESIGN.md §13).
//
// The problem: every sketch in this library is a linear function of the
// stream, so extraction (Query()) is non-destructive -- but it is also
// EXPENSIVE (decode loops, Borůvka rounds) next to ingestion, and a sketch
// being written by an ingest thread cannot be read concurrently. A monitor
// that wants to answer "are u and v connected right now?" thousands of
// times a second cannot afford either an extraction per query or a stop-
// the-world pause per answer.
//
// The fix exploits linearity directly. The engine splits the measurement
//
//     sketch(prefix) = serving + delta_open + delta_sealed
//
// into three sketches of the SAME measurement (equal seed/shape, so
// MergeFrom is exact cell-wise field addition):
//
//   - `serving_`: the merged prefix up to the last sealed epoch boundary.
//     Touched ONLY by the merger thread after construction; queries never
//     read it directly, only the immutable snapshot extracted from it.
//   - `open_`: the delta the ingest thread is writing this epoch. Sealed
//     (moved into the merge queue) every `epoch_updates` stream updates,
//     or on demand (AdvanceEpoch / Flush).
//   - the sealed delta in flight: at most ONE -- sealing blocks until the
//     merger hands back the recycled delta (backpressure).
//
// The two deltas are recycled (double buffering): the merger Clear()s a
// retired delta and hands it back as the next open buffer, so steady-state
// serving allocates nothing on the ingest path.
//
// Deferred extraction: the merger normally hands the delta back after it
// publishes. When a dirty epoch has just been merged, the ingest side is
// already blocked in SealEpoch waiting for that delta, and the previous
// merged epoch was published, the merger hands the delta back AT ONCE and
// merges the next sealed epoch before extracting: that extraction would
// be superseded by the next one before anyone had waited on it. The one
// extraction that follows publishes both epochs' exact prefix (epoch
// steps by 2). Never twice in a row, so at most one merged epoch is ever
// unpublished and a query's staleness stays below three epochs: the
// unpublished merged epoch, the sealed one, and the open one.
//
// Cached extraction: each merged epoch publishes an immutable Snapshot
// (std::shared_ptr -- queries pin it lock-free after one mutex-protected
// pointer copy). The payload is re-extracted ONLY when the merged delta
// actually dirtied the measurement (delta.SnapshotDirty()); an epoch whose
// updates all routed nowhere re-publishes the previous payload pointer and
// counts a cache hit. Dirty summaries are monotone ORs, so a clean delta
// provably contributed nothing to any cell.
//
// Consistency: every snapshot is the EXACT sketch state of a stream
// prefix (prefix_updates says which one). Linearity + the library-wide
// bit-identical determinism guarantee make this testable: replaying the
// prefix into a fresh sketch and extracting reproduces the snapshot
// payload bit for bit (tests/serve_concurrency_test.cc).
//
// Threading contract: ONE ingest thread (Process / AdvanceEpoch / Flush /
// ExternalIngestScope), ANY number of query threads (Current / stats),
// plus the internal merger thread -- and, when epoch_deadline_ms is set,
// an internal pacer thread that seals a non-empty open delta on a
// wall-clock deadline. The open delta is guarded by ingest_mu_ (shared by
// the ingest thread and the pacer); with the pacer disabled the mutex is
// uncontended. Extraction on the merger thread may use the shared
// ThreadPool; concurrent top-level Run calls are serialized by the pool
// itself.
#ifndef GMS_SERVE_SERVING_ENGINE_H_
#define GMS_SERVE_SERVING_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "connectivity/spanning_forest_sketch.h"
#include "stream/stream.h"
#include "util/check.h"

namespace gms {

/// Default epoch length, in stream updates. A serving epoch bounds answer
/// staleness (below 3 * epoch_updates). A merge replays the delta's sparse
/// buffers into the serving sketch's columns and escalates those that
/// outgrow the sparse threshold, and each published dirty epoch
/// re-extracts the forest: at n = 2^15 (serve_rmat, 24 epochs) the merges
/// take about 0.34 s and the extractions 0.2-0.3 s in total, about 14 and
/// 8-13 ms per epoch -- cheap enough to take every few thousand updates.
inline constexpr size_t kDefaultServingEpochUpdates = 1 << 13;

struct ServingParams {
  /// Stream updates per epoch; the open delta auto-seals when it has
  /// ingested this many.
  size_t epoch_updates = kDefaultServingEpochUpdates;

  /// Adaptive pacing: when nonzero, a pacer thread additionally seals a
  /// NON-EMPTY open delta once this many milliseconds have passed since
  /// the last epoch boundary -- whichever of the two triggers fires first
  /// wins, so a slow or idle stream still publishes fresh answers instead
  /// of parking updates in the open delta until epoch_updates arrives.
  /// Zero (the default) disables the pacer entirely: behaviour and thread
  /// count are exactly the count-only engine.
  uint64_t epoch_deadline_ms = 0;

  class Builder;
};

class ServingParams::Builder {
 public:
  Builder() = default;
  explicit Builder(const ServingParams& from) : p_(from) {}

  Builder& EpochUpdates(size_t epoch_updates) {
    p_.epoch_updates = epoch_updates;
    return *this;
  }
  Builder& EpochDeadlineMillis(uint64_t epoch_deadline_ms) {
    p_.epoch_deadline_ms = epoch_deadline_ms;
    return *this;
  }
  ServingParams Build() const {
    GMS_CHECK_MSG(p_.epoch_updates >= 1,
                  "ServingParams: epoch_updates must be >= 1");
    return p_;
  }

 private:
  ServingParams p_;
};

template <typename Sketch>
class ServingEngine {
 public:
  /// The extraction payload served to queries -- whatever this sketch's
  /// Query() yields (Hypergraph for forests/skeletons, VcUnionSnapshot for
  /// the VC sketch, ...).
  using Payload = typename decltype(std::declval<const Sketch&>()
                                        .Query())::value_type;

  /// An immutable view of one stream prefix. Returned by shared_ptr; a
  /// query thread can hold it as long as it likes while epochs advance.
  struct Snapshot {
    /// Sealed epochs merged into this view (0 = the base sketch only).
    uint64_t epoch = 0;
    /// Exact number of stream updates this view covers.
    uint64_t prefix_updates = 0;
    /// Extraction status; payload is non-null iff OK.
    Status status = Status::OK();
    std::shared_ptr<const Payload> payload;
    ExtractStats extract_stats;
  };

  struct Stats {
    uint64_t epochs_sealed = 0;
    uint64_t epochs_merged = 0;
    /// Merged epochs whose delta was clean. Published alone, such an
    /// epoch re-publishes the previous payload pointer without
    /// re-extracting; right after a deferral it publishes the deferred
    /// epoch's extraction.
    uint64_t cache_hits = 0;
    /// Merged epochs that dirtied the measurement and re-extracted.
    uint64_t cache_rebuilds = 0;
    /// Dirty merged epochs whose extraction was folded into the next
    /// epoch's (see the header comment). epochs_merged == cache_hits +
    /// cache_rebuilds + extractions_deferred.
    uint64_t extractions_deferred = 0;
    /// Seals that found the recycled delta still held by the merger and
    /// blocked for it (backpressure events).
    uint64_t seal_waits = 0;
    uint64_t updates_ingested = 0;
    /// Updates covered by the published snapshot (<= updates_ingested; the
    /// difference is in the open and sealed deltas and a deferred epoch).
    uint64_t updates_merged = 0;
    /// Epochs sealed by the wall-clock pacer rather than the update count
    /// (only ever nonzero when epoch_deadline_ms > 0).
    uint64_t deadline_seals = 0;
    /// Merger wall time in MergeFrom + Clear and in extraction, summed over
    /// the merged epochs: the M and X of the cycle model (DESIGN.md §13).
    double merge_seconds = 0;
    double extract_seconds = 0;
    /// ExtractStats::sparse_entries_replayed summed over those extractions.
    uint64_t sparse_entries_replayed = 0;
  };

  /// Takes ownership of `base` (its state, possibly non-empty, becomes
  /// epoch 0), extracts the initial snapshot synchronously, and starts the
  /// merger thread.
  explicit ServingEngine(Sketch base,
                         const ServingParams& params = ServingParams())
      : params_(ServingParams::Builder(params).Build()),
        serving_(std::move(base)),
        open_(serving_.CloneEmpty()),
        last_seal_(Clock::now()),
        spare_(serving_.CloneEmpty()) {
    snapshot_ = ExtractSnapshot(/*epoch=*/0, /*prefix_updates=*/0);
    merger_ = std::thread([this] { MergerLoop(); });
    if (params_.epoch_deadline_ms > 0) {
      pacer_ = std::thread([this] { PacerLoop(); });
    }
  }

  ~ServingEngine() {
    // Stop the pacer FIRST: it may be mid-seal (waiting on the merger for
    // the spare delta), so the merger must still be alive while the pacer
    // winds down.
    if (pacer_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(pacer_mu_);
        pacer_stop_ = true;
      }
      pacer_cv_.notify_all();
      pacer_.join();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    merger_cv_.notify_all();
    merger_.join();
  }

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Ingest thread only. Feeds the open delta, sealing an epoch every
  /// params.epoch_updates updates; a seal blocks (backpressure) while the
  /// merger still holds the recycled delta.
  void Process(std::span<const StreamUpdate> updates) {
    size_t i = 0;
    while (i < updates.size()) {
      std::lock_guard<std::mutex> ingest(ingest_mu_);
      const size_t room = params_.epoch_updates - open_count_;
      const size_t take = std::min(room, updates.size() - i);
      open_.Process(updates.subspan(i, take));
      open_count_ += take;
      i += take;
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.updates_ingested += take;
      }
      if (open_count_ == params_.epoch_updates) SealEpoch();
    }
  }
  void Process(const DynamicStream& stream) {
    Process(std::span<const StreamUpdate>(stream.updates()));
  }

  /// Shared-plane ingestion hook (stream/ingest_plane.h): exposes the open
  /// delta so a shared IngestPlane can apply ONE prepared update batch to
  /// several engines' deltas at once, instead of each engine re-encoding
  /// the same updates in Process. The scope holds ingest_mu_ for its whole
  /// lifetime (excluding the pacer, like Process does); the caller writes
  /// at most room() updates into *delta() by any ingest path, then calls
  /// Commit(count) exactly once -- which books the updates and seals the
  /// epoch when the count boundary lands. Ingest thread only; chunk
  /// updates at min(room()) across engines so every scope's count stays
  /// within its epoch.
  class ExternalIngestScope {
   public:
    explicit ExternalIngestScope(ServingEngine* engine)
        : engine_(engine), lock_(engine->ingest_mu_) {}

    ExternalIngestScope(const ExternalIngestScope&) = delete;
    ExternalIngestScope& operator=(const ExternalIngestScope&) = delete;

    Sketch* delta() { return &engine_->open_; }
    size_t room() const {
      return engine_->params_.epoch_updates - engine_->open_count_;
    }
    void Commit(size_t count) {
      GMS_CHECK_MSG(count <= room(),
                    "ExternalIngestScope: commit exceeds epoch room");
      engine_->open_count_ += count;
      {
        std::lock_guard<std::mutex> lock(engine_->mu_);
        engine_->stats_.updates_ingested += count;
      }
      if (engine_->open_count_ == engine_->params_.epoch_updates) {
        engine_->SealEpoch();
      }
    }

   private:
    ServingEngine* engine_;
    std::lock_guard<std::mutex> lock_;
  };

  /// Ingest thread only. Force an epoch boundary NOW, even for an empty or
  /// partial open delta -- the on-demand counterpart of the update-count
  /// auto-seal and the wall-clock pacer.
  void AdvanceEpoch() {
    std::lock_guard<std::mutex> ingest(ingest_mu_);
    SealEpoch();
  }

  /// Ingest thread only. Seal whatever is open and block until the merger
  /// has retired every sealed epoch: afterwards Current() covers every
  /// update ever passed to Process.
  void Flush() {
    {
      std::lock_guard<std::mutex> ingest(ingest_mu_);
      if (open_count_ > 0) SealEpoch();
    }
    std::unique_lock<std::mutex> lock(mu_);
    sealed_cv_.wait(lock, [&] { return !sealed_.has_value() && !merging_; });
  }

  /// Any thread. The current snapshot; never null.
  std::shared_ptr<const Snapshot> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  /// Any thread.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  const ServingParams& params() const { return params_; }

 private:
  struct SealedJob {
    Sketch delta;
    uint64_t updates = 0;
  };

  /// Extract serving_ into a fresh immutable snapshot. Merger thread (or
  /// the constructor, before the merger exists).
  std::shared_ptr<const Snapshot> ExtractSnapshot(uint64_t epoch,
                                                  uint64_t prefix_updates) {
    auto q = serving_.Query();
    auto snap = std::make_shared<Snapshot>();
    snap->epoch = epoch;
    snap->prefix_updates = prefix_updates;
    snap->status = q.status();
    snap->extract_stats = q.stats();
    if (q.ok()) {
      snap->payload = std::make_shared<const Payload>(std::move(q).value());
    }
    return snap;
  }

  /// Caller holds ingest_mu_ (the open delta moves out here).
  void SealEpoch(bool deadline_seal = false) {
    last_seal_ = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    // Backpressure barrier: wait for the recycled delta (the merger hands
    // it back when the previous epoch is published, or at once when it
    // defers that epoch's extraction because this seal is waiting). Bounds
    // staleness below three epochs, and memory to three sketches.
    const auto ready = [&] {
      return !sealed_.has_value() && spare_.has_value();
    };
    if (!ready()) {
      ++stats_.seal_waits;
      seal_waiting_ = true;
      sealed_cv_.wait(lock, ready);
      seal_waiting_ = false;
    }
    sealed_.emplace(SealedJob{std::move(open_), open_count_});
    open_ = std::move(*spare_);
    spare_.reset();
    open_count_ = 0;
    ++stats_.epochs_sealed;
    if (deadline_seal) ++stats_.deadline_seals;
    lock.unlock();
    merger_cv_.notify_all();
  }

  /// The wall-clock pacer (epoch_deadline_ms > 0 only): wakes once per
  /// deadline interval and seals the open delta when it is non-empty and
  /// stale -- the "whichever fires first" half the count-triggered seal
  /// cannot provide on a slow stream. Empty deltas are left alone: an idle
  /// stream's published snapshot is already exact, and sealing nothing
  /// would only churn the merger.
  void PacerLoop() {
    const auto deadline = std::chrono::milliseconds(params_.epoch_deadline_ms);
    std::unique_lock<std::mutex> lock(pacer_mu_);
    while (!pacer_stop_) {
      pacer_cv_.wait_for(lock, deadline);
      if (pacer_stop_) return;
      lock.unlock();
      {
        std::lock_guard<std::mutex> ingest(ingest_mu_);
        if (open_count_ > 0 && Clock::now() - last_seal_ >= deadline) {
          SealEpoch(/*deadline_seal=*/true);
        }
      }
      lock.lock();
    }
  }

  void MergerLoop() {
    // A deferral leaves one merged epoch unpublished; the next publish
    // covers it too.
    bool deferred = false;
    uint64_t deferred_updates = 0;
    for (;;) {
      std::optional<SealedJob> job;
      // Only this thread ever publishes, so the prior snapshot's counters
      // are stable across the unlocked stretches below.
      uint64_t base_epoch, base_prefix;
      {
        std::unique_lock<std::mutex> lock(mu_);
        merger_cv_.wait(lock, [&] { return stop_ || sealed_.has_value(); });
        if (!sealed_.has_value()) {
          // Stopped and drained. A deferral only happens while a seal
          // waits, and that seal lands before the ingest call returns, so
          // no merged epoch can be left unpublished here.
          GMS_CHECK_MSG(!deferred,
                        "ServingEngine: stopped with an unpublished epoch");
          return;
        }
        job.emplace(std::move(*sealed_));
        sealed_.reset();
        merging_ = true;
        base_epoch = snapshot_->epoch;
        base_prefix = snapshot_->prefix_updates;
      }
      // A clean delta provably contributed nothing to any cell (dirty
      // summaries are monotone ORs over every touched cell), so the merge
      // can be skipped, and so can the extraction unless a deferred epoch
      // is waiting to be published.
      const bool dirty = job->delta.SnapshotDirty();
      double merge_seconds = 0;
      if (dirty) {
        const Clock::time_point merge_start = Clock::now();
        const Status merged = serving_.MergeFrom(job->delta);
        GMS_CHECK_MSG(merged.ok(),
                      "ServingEngine: delta/serving shape mismatch");
        job->delta.Clear();
        merge_seconds = SecondsSince(merge_start);
        if (!deferred) {
          std::unique_lock<std::mutex> lock(mu_);
          if (seal_waiting_) {
            // The ingest side holds the next epoch and waits only for this
            // delta: hand it back now and publish after the next merge.
            ++stats_.epochs_merged;
            ++stats_.extractions_deferred;
            stats_.merge_seconds += merge_seconds;
            spare_.emplace(std::move(job->delta));
            lock.unlock();
            sealed_cv_.notify_all();
            deferred = true;
            deferred_updates = job->updates;
            continue;
          }
        }
      }
      const uint64_t epoch = base_epoch + (deferred ? 2 : 1);
      const uint64_t prefix = base_prefix + deferred_updates + job->updates;
      std::shared_ptr<const Snapshot> next;
      double extract_seconds = 0;
      if (dirty || deferred) {
        // Extract WITHOUT holding mu_: only this thread writes serving_,
        // and query threads keep copying the old snapshot pointer
        // unblocked while the rebuild runs.
        const Clock::time_point extract_start = Clock::now();
        next = ExtractSnapshot(epoch, prefix);
        extract_seconds = SecondsSince(extract_start);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.epochs_merged;
        stats_.merge_seconds += merge_seconds;
        if (next != nullptr) {
          stats_.extract_seconds += extract_seconds;
          stats_.sparse_entries_replayed +=
              next->extract_stats.sparse_entries_replayed;
        }
        if (dirty) {
          ++stats_.cache_rebuilds;
        } else {
          ++stats_.cache_hits;
        }
        if (next == nullptr) {
          auto reuse = std::make_shared<Snapshot>(*snapshot_);
          reuse->epoch = epoch;
          reuse->prefix_updates = prefix;
          next = std::move(reuse);
        }
        stats_.updates_merged = prefix;
        snapshot_.swap(next);  // next now holds the retired snapshot
        spare_.emplace(std::move(job->delta));
        merging_ = false;
      }
      deferred = false;
      deferred_updates = 0;
      sealed_cv_.notify_all();
      // Drop the retired snapshot outside mu_: when this is its last
      // reference, freeing its payload (an n-vertex Hypergraph) under the
      // lock would stall every Current()/stats() caller.
      next.reset();
    }
  }

  using Clock = std::chrono::steady_clock;

  static double SecondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  const ServingParams params_;

  /// Merger-thread state (constructor-only before the thread starts).
  Sketch serving_;

  /// Open-delta state under ingest_mu_ (the ingest thread and, when
  /// enabled, the pacer thread).
  std::mutex ingest_mu_;
  Sketch open_;
  size_t open_count_ = 0;
  Clock::time_point last_seal_;

  /// Pacer-thread signalling (epoch_deadline_ms > 0 only).
  std::mutex pacer_mu_;
  std::condition_variable pacer_cv_;
  bool pacer_stop_ = false;

  /// Shared state under mu_.
  mutable std::mutex mu_;
  std::condition_variable merger_cv_;  // signals: sealed job ready / stop
  std::condition_variable sealed_cv_;  // signals: spare returned, drained
  std::optional<Sketch> spare_;
  std::optional<SealedJob> sealed_;
  /// The merger holds a sealed job or an unpublished merged epoch.
  bool merging_ = false;
  /// The ingest thread or the pacer is blocked in SealEpoch for spare_.
  bool seal_waiting_ = false;
  bool stop_ = false;
  std::shared_ptr<const Snapshot> snapshot_;
  Stats stats_;

  std::thread merger_;
  std::thread pacer_;
};

}  // namespace gms

#endif  // GMS_SERVE_SERVING_ENGINE_H_
