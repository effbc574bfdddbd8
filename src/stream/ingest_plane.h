// The shared ingestion plane (DESIGN.md §15): one encode/prepare/route
// pass fanning out to every registered sketch consumer.
//
// Every multi-sketch composition in the tree ingests the SAME updates into
// several linear sketches: the serving layer's forest/VC/skeleton engines,
// and the k forest layers of the skeleton each app holds (one consumer
// whose batch apply reaches every layer). Run independently, each pays
// the full hot path -- EdgeCodec encoding, the PreparedCoord key fold +
// exponent reduction, gutter routing -- once per consumer. But all of
// that work is a function of the UPDATE alone, not of the sketch it lands
// in, so the plane does it exactly once and fans the resulting per-vertex
// VertexUpdate batches out to N consumers.
//
// Gutters: the plane buffers one VertexUpdate per endpoint in that
// endpoint's gutter and hands a gutter to the consumers when it fills, so
// each batch replays over one vertex's contiguous sketch block while it is
// cache resident. At the end of every Process call the remaining gutters
// flush in increasing vertex order and their buffers are released, so
// buffered memory never outlives a chunk.
//
// Route-word packing: consumer i claims bits [shift_i, shift_i + bits_i)
// of a 64-bit route word. Plain sketches (forests, skeletons, the apps)
// claim one bit, subsampled containers claim one bit per subsample
// (PlaneRouteBits()). The plane evaluates every consumer's own
// PlaneRouteMask once per update and packs the masks into one word; an
// update routed nowhere is skipped entirely. On apply, each consumer sees
// only its own bits, shifted back down to position 0 -- bit-identical to
// what the consumer's own ingest would route.
//
// Determinism: for each consumer, the set of entries delivered per vertex
// is EXACTLY the set a solo ingest would deliver (same PreparedCoord, same
// coefficient, same per-consumer route bits), and every sketch cell is a
// sum of commutative exact field ops while the dirty/level summaries are
// monotone ORs -- so the fan-out order across consumers cannot change a
// single output bit. Shared-plane frames are byte-identical to independent
// ingest (tests/ingest_plane_test.cc).
//
// Registered consumers satisfy the PlaneConsumer concept below.
//
// Process() runs entirely on the calling thread (no pool), so it is safe
// inside a parallel region.
#ifndef GMS_STREAM_INGEST_PLANE_H_
#define GMS_STREAM_INGEST_PLANE_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_codec.h"
#include "stream/stream.h"
#include "stream/vertex_update.h"
#include "util/check.h"

namespace gms {

/// What IngestPlane::Add requires of a consumer: its vertex count and codec
/// (both must match across the consumers of one plane), its routing mask
/// for an update (0 = skip), and the per-vertex batch apply. Two hooks are
/// optional and probed by Add: `size_t PlaneRouteBits() const` (route-word
/// width, default 1) and `bool PlaneSupported() const` (default true).
/// A one-bit consumer may receive batches whose entries carry OTHER
/// consumers' bits above bit 0 (the pass-through fast path); it must
/// interpret only bit 0. Multi-bit consumers always receive rebuilt entries
/// with their own bits shifted down to [0, bits).
template <typename Sketch>
concept PlaneConsumer =
    requires(Sketch& sketch, const Sketch& view, const Hyperedge& e,
             VertexId v, std::span<const VertexUpdate> batch) {
      { view.n() } -> std::convertible_to<size_t>;
      { view.codec() } -> std::same_as<const EdgeCodec&>;
      { view.PlaneRouteMask(e) } -> std::same_as<uint64_t>;
      sketch.ApplyUpdateBatch(v, batch);
    };

class IngestPlane {
 public:
  IngestPlane() = default;

  // The plane holds raw consumer pointers and per-call scratch; copying it
  // would alias both.
  IngestPlane(const IngestPlane&) = delete;
  IngestPlane& operator=(const IngestPlane&) = delete;
  IngestPlane(IngestPlane&&) = default;
  IngestPlane& operator=(IngestPlane&&) = default;

  /// Register *sketch as a fan-out target. Returns false -- leaving the
  /// plane unchanged -- when the consumer cannot share this plane's single
  /// prepare pass: its codec domain (n, max_rank) differs from the first
  /// consumer's, its route bits would overflow the packed 64-bit word, or
  /// it reports PlaneSupported() == false. Callers fall back to the
  /// consumer's own Process for the same updates. The pointer must outlive
  /// every subsequent Process call (or a Reset).
  template <typename Sketch>
    requires PlaneConsumer<Sketch>
  bool Add(Sketch* sketch) {
    GMS_CHECK_MSG(sketch != nullptr, "IngestPlane: null consumer");
    if constexpr (requires { sketch->PlaneSupported(); }) {
      if (!sketch->PlaneSupported()) return false;
    }
    size_t bits = 1;
    if constexpr (requires { sketch->PlaneRouteBits(); }) {
      bits = sketch->PlaneRouteBits();
    }
    if (bits == 0 || bits_used_ + bits > 64) return false;
    if (consumers_.empty()) {
      n_ = sketch->n();
      codec_ = &sketch->codec();
    } else if (sketch->n() != n_ ||
               sketch->codec().max_rank() != codec_->max_rank()) {
      return false;
    }
    Consumer c;
    c.sketch = sketch;
    c.shift = static_cast<uint32_t>(bits_used_);
    c.bits = static_cast<uint32_t>(bits);
    c.route = [](const void* p, const Hyperedge& e) -> uint64_t {
      return static_cast<const Sketch*>(p)->PlaneRouteMask(e);
    };
    c.apply = &ApplyThunk<Sketch>;
    consumers_.push_back(c);
    bits_used_ += bits;
    return true;
  }

  /// Drop every registered consumer. Call between chunks when the
  /// consumer pointers change.
  void Reset() {
    consumers_.clear();
    codec_ = nullptr;
    bits_used_ = 0;
  }

  size_t num_consumers() const { return consumers_.size(); }
  size_t route_bits_used() const { return bits_used_; }

  /// Serial ingest: one encode + PrepareCoord + packed route per update,
  /// per-vertex gutter coalescing, and direct batch fan-out, all on the
  /// calling thread. Bit-identical to per-consumer serial ingest.
  void Process(std::span<const StreamUpdate> updates);
  void Process(const DynamicStream& stream) {
    Process(std::span<const StreamUpdate>(stream.updates()));
  }

 private:
  /// Entries per gutter before it flushes. 64 entries make a ~3.5 KiB
  /// batch: enough to reuse the hot level-0 cells of the target column
  /// several times, small enough that buffered memory stays a few percent
  /// of the arena it feeds.
  static constexpr size_t kGutterCapacity = 64;

  struct Consumer {
    void* sketch = nullptr;
    uint32_t shift = 0;
    uint32_t bits = 1;
    uint64_t (*route)(const void*, const Hyperedge&) = nullptr;
    void (*apply)(void*, VertexId, std::span<const VertexUpdate>, uint32_t,
                  uint32_t, std::vector<VertexUpdate>*) = nullptr;
  };

  static constexpr uint64_t WidthMask(uint32_t bits) {
    return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
  }

  /// The packed word: each consumer's own mask, truncated to its claimed
  /// width and shifted into its bit range. Zero iff no consumer wants the
  /// update.
  uint64_t RouteMask(const Hyperedge& e) const {
    uint64_t word = 0;
    for (const Consumer& c : consumers_) {
      const uint64_t mask = c.route(c.sketch, e) & WidthMask(c.bits);
      word |= mask << c.shift;
    }
    return word;
  }

  /// Fan one vertex batch out to every consumer, in registration order.
  void ApplyBatch(VertexId v, std::span<const VertexUpdate> batch) {
    for (const Consumer& c : consumers_) {
      c.apply(c.sketch, v, batch, c.shift, c.bits, &rebuild_);
    }
  }

  template <typename Sketch>
  static void ApplyThunk(void* p, VertexId v,
                         std::span<const VertexUpdate> batch, uint32_t shift,
                         uint32_t bits, std::vector<VertexUpdate>* scratch) {
    auto* sketch = static_cast<Sketch*>(p);
    const uint64_t mask = WidthMask(bits);
    if (bits == 1) {
      // Pass-through fast path: when every entry routes here (always true
      // for constant-mask consumers sharing a plane, since an entry routed
      // NOWHERE never reaches the gutters), hand the original batch over
      // without copying. The entries still carry other consumers' bits
      // above bit 0 -- the one-bit consumer contract says to ignore them.
      bool all = true;
      for (const VertexUpdate& u : batch) {
        if (((u.route >> shift) & 1) == 0) {
          all = false;
          break;
        }
      }
      if (all) {
        sketch->ApplyUpdateBatch(v, batch);
        return;
      }
    }
    scratch->clear();
    for (const VertexUpdate& u : batch) {
      const uint64_t route = (u.route >> shift) & mask;
      if (route != 0) scratch->push_back(VertexUpdate{u.pc, route, u.coeff});
    }
    if (!scratch->empty()) {
      sketch->ApplyUpdateBatch(v, std::span<const VertexUpdate>(*scratch));
    }
  }

  size_t n_ = 0;
  const EdgeCodec* codec_ = nullptr;
  size_t bits_used_ = 0;
  std::vector<Consumer> consumers_;
  /// gutters_[v]: v's buffered entries. Empty between Process calls; the
  /// outer vector is kept so the serving layer, which drives one plane per
  /// epoch chunk, does not re-allocate n gutter headers per chunk.
  std::vector<std::vector<VertexUpdate>> gutters_;
  /// Vertices whose gutter received an entry during this Process call
  /// (with repeats; the end-of-chunk flush sorts and dedups).
  std::vector<VertexId> touched_;
  /// Per-consumer batch rebuild scratch (multi-bit and partially routed
  /// consumers).
  std::vector<VertexUpdate> rebuild_;
};

}  // namespace gms

#endif  // GMS_STREAM_INGEST_PLANE_H_
