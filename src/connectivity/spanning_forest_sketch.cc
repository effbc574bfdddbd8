#include "connectivity/spanning_forest_sketch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <numeric>

#include "connectivity/incidence.h"
#include "graph/union_find.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/random.h"
#include "wire/wire.h"

namespace gms {

namespace {

int DefaultRounds(size_t n, const SketchConfig& config) {
  int log_n = 1;
  while ((size_t{1} << log_n) < n) ++log_n;
  return log_n + config.extra_boruvka_rounds;
}

// Incremental extraction: component accumulators cover fixed WINDOWS of
// this many rounds. Round t >= 1 lives in window [w0, w0 + K) with
// w0 = 1 + K * ((t-1) / K), and every component's block covers the full
// window, so uniting two components is one whole-block field addition and
// an unchanged component costs NOTHING until the window ends. Small K
// bounds the wasted accumulation when the decode finishes early (it
// usually does -- a few rounds connect everything); large K amortizes the
// one full member re-sum per window boundary. Round 0 needs no window at
// all: its components are singletons and sample straight from the arena.
constexpr int kAccWindowRounds = 4;

// ApplyUpdateBatch prefetches a dense remainder of at most this many
// entries across all rounds before writing it. Such batches are what an
// IngestPlane hands over when the caller's chunks are small against n
// (2048-update chunks over 4096 vertices: about one entry per column),
// and each of their rounds otherwise stalls on its own cold segment
// lines. Larger batches keep enough independent writes in flight per
// round on their own. Prefetching every batch once made whole-stream
// ingest 25% slower on a 4-vCPU Xeon; since the prefetch and the write
// share one key resolution it ties with 8, and no cutoff won on both
// chunk sizes (DESIGN.md §17 has both sweeps).
constexpr size_t kPrefetchBatchMax = 8;

// The small-batch path resolves its entries for this many rounds at a time
// into a stack tile (8 x 16 resolutions, about 10 KiB), so the scratch is
// bounded for any round count; the default configurations run 14-20 rounds.
constexpr int kResolveTileRounds = 16;

// ProcessPrepared resolves each live update this many updates ahead of its
// write, prefetching with the resolution and keeping it in a ring for the
// write.
constexpr size_t kPrefetchAhead = 12;
constexpr size_t kResolveRing = 16;  // > kPrefetchAhead, a power of two
static_assert(kResolveRing > kPrefetchAhead &&
              (kResolveRing & (kResolveRing - 1)) == 0);

// Resolve pc against `shape` and add coeff times it into the round column
// `col`. Returns the level it landed in.
int AddCoordToColumn(const L0Shape& shape, uint64_t* col,
                     const PreparedCoord& pc, int64_t coeff) {
  L0Resolved res;
  shape.Resolve(pc, &res);
  L0ApplyResolved(shape, col, res, pc, coeff);
  return res.level;
}

int WindowStart(int t) {
  return 1 + kAccWindowRounds * ((t - 1) / kAccWindowRounds);
}

// Reusable per-thread extraction scratch. Pool workers are long-lived, so
// during a Query that fans R forest extractions across the pool each
// worker allocates its block arena once and reuses it for every forest it
// owns; repeated Query calls reuse it again.
struct ExtractScratch {
  std::vector<uint64_t> blocks;      // equally-sized accumulator blocks
  std::vector<uint64_t> block_masks; // per block, kAccWindowRounds level
                                     // masks (OR of the members' column
                                     // masks; clear bit => segment zero)
  std::vector<int64_t> block_of;     // pre-union root vertex -> block id
  std::vector<int64_t> free_blocks;  // retired ids (windows shrink, so
                                     // capacity always suffices for reuse)
};

ExtractScratch& TlsExtractScratch() {
  static thread_local ExtractScratch scratch;
  return scratch;
}

}  // namespace

// The peeled decode's per-call residual view of G - peeled. Built once per
// extraction and only read afterwards, so concurrent const queries each
// own theirs and the pool workers of one query share it read-only.
struct SpanningForestSketch::PeelOverlay {
  // One peeled endpoint: the edge's prepared coordinate and the NEGATED
  // Section 4.1 incidence coefficient at this endpoint.
  struct Entry {
    PreparedCoord pc;
    int64_t coeff = 0;
  };
  std::vector<size_t> off;  // CSR by active ordinal: num_active + 1 offsets
  std::vector<Entry> entries;
  // Hybrid sketches only: the exact lists of the ordinals that have
  // entries and stay sparse after the peel, CSR by active ordinal.
  std::vector<size_t> list_off;
  std::vector<SparseEntry> lists;
  // True iff the peel pushes some still-sparse column past the threshold.
  bool escalates = false;

  size_t Count(size_t ord) const { return off[ord + 1] - off[ord]; }
  std::span<const Entry> Of(size_t ord) const {
    return std::span<const Entry>(entries).subspan(off[ord], Count(ord));
  }
};

// The incremental no-peel decode's record of the buffered entries that add
// nothing to any component sketch (DESIGN.md Section 10). An entry cancels
// when every endpoint of its hyperedge is active and sparse, holds the key,
// and the held values sum to exactly zero: the pre-round united those
// endpoints, so in every round their copies land in ONE component and add
// zero to each of its cells. One bit per buffered entry, in active-ordinal
// and key order.
struct SpanningForestSketch::CancelSet {
  std::vector<size_t> off;  // first bit of each active ordinal's buffer
  std::vector<uint64_t> bits;

  explicit CancelSet(const std::vector<std::vector<SparseEntry>>& buffers)
      : off(buffers.size() + 1, 0) {
    for (size_t ord = 0; ord < buffers.size(); ++ord) {
      off[ord + 1] = off[ord] + buffers[ord].size();
    }
    bits.assign((off.back() + 63) / 64, 0);
  }
  bool Cancels(size_t ord, size_t i) const {
    const size_t b = off[ord] + i;
    return (bits[b >> 6] >> (b & 63)) & 1;
  }
  void Mark(size_t ord, size_t i) {
    const size_t b = off[ord] + i;
    bits[b >> 6] |= uint64_t{1} << (b & 63);
  }
};

void AccumulateExtractStats(const ExtractStats& in, ExtractStats* out) {
  out->rounds_run = std::max(out->rounds_run, in.rounds_run);
  out->early_exit = out->early_exit || in.early_exit;
  out->summed_words += in.summed_words;
  out->sparse_entries_replayed += in.sparse_entries_replayed;
  out->sample_attempts += in.sample_attempts;
  out->decode_attempts += in.decode_attempts;
  out->edges_found += in.edges_found;
  out->sparse_exact_forests += in.sparse_exact_forests;
  if (out->groups_per_round.size() < in.groups_per_round.size()) {
    out->groups_per_round.resize(in.groups_per_round.size(), 0);
  }
  for (size_t i = 0; i < in.groups_per_round.size(); ++i) {
    out->groups_per_round[i] += in.groups_per_round[i];
  }
}

void WriteForestParams(const ForestSketchParams& params, wire::Writer* w) {
  WriteSketchConfig(params.config, w);
  w->I32(params.rounds);
}

Status ReadForestParams(wire::Reader* r, ForestSketchParams* params) {
  GMS_RETURN_IF_ERROR(ReadSketchConfig(r, &params->config));
  GMS_RETURN_IF_ERROR(r->I32(&params->rounds));
  if (params->rounds < 0 || params->rounds > (1 << 20)) {
    return Status::InvalidArgument("wire: forest rounds out of range");
  }
  params->threads = 1;
  return Status::OK();
}

Result<uint64_t> ForestStateWords(size_t n, size_t max_rank,
                                  const SketchConfig& config) {
  auto domain = EdgeCodec::DomainSizeFor(n, max_rank);
  if (!domain.ok()) return domain.status();
  return L0StateWords(*domain, config);
}

SpanningForestSketch::SpanningForestSketch(size_t n, size_t max_rank,
                                           uint64_t seed, const Params& params,
                                           const std::vector<bool>* active)
    : n_(n),
      rounds_(params.rounds > 0 ? params.rounds
                                : DefaultRounds(n, params.config)),
      seed_(seed),
      params_(params),
      codec_(n, max_rank),
      state_index_(n, -1) {
  GMS_CHECK(active == nullptr || active->size() == n);
  Rng rng(seed);
  round_shapes_.reserve(static_cast<size_t>(rounds_));
  for (int t = 0; t < rounds_; ++t) {
    round_shapes_.push_back(std::make_shared<const L0Shape>(
        codec_.DomainSize(), params.config, rng.Fork()));
  }
  size_t num_active = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (active != nullptr && !(*active)[v]) continue;
    state_index_[v] = static_cast<int64_t>(num_active++);
  }
  num_active_ = num_active;
  GMS_CHECK_MSG(num_active < (size_t{1} << 32),
                "SpanningForestSketch: active count exceeds 32-bit slots");
  state_words_ = round_shapes_[0]->TotalWords();
  // Lazily-zeroed mapping (huge-page advised): untouched pages cost
  // nothing, which is what makes CloneEmpty() and Clear() cheap. One column
  // per active ordinal plus the reserved zero column.
  arena_ = ZeroedBuffer((num_active + 1) * ColumnWords());
  slot_.resize(num_active);
  dirty_words_per_round_ = (num_active + 63) / 64;
  dirty_.assign(static_cast<size_t>(rounds_) * dirty_words_per_round_, 0);
  level_mask_.assign(num_active * static_cast<size_t>(rounds_), 0);
  if (params.config.sparse_threshold > 0 && num_active > 0) {
    counters_.assign(num_active, 0);
    buffers_.resize(num_active);
    sparse_remaining_ = num_active;
  }
  ResetSlots();
}

SpanningForestSketch::SpanningForestSketch(const SpanningForestSketch& other,
                                           CloneEmptyTag)
    : n_(other.n_),
      rounds_(other.rounds_),
      seed_(other.seed_),
      params_(other.params_),
      codec_(other.codec_),
      round_shapes_(other.round_shapes_),
      state_index_(other.state_index_),
      num_active_(other.num_active_),
      state_words_(other.state_words_),
      arena_(other.arena_.size()),
      slot_(other.slot_.size()),
      dirty_words_per_round_(other.dirty_words_per_round_),
      dirty_(other.dirty_.size(), 0),
      level_mask_(other.level_mask_.size(), 0),
      counters_(other.counters_.size(), 0),
      buffers_(other.buffers_.size()),
      sparse_remaining_(other.counters_.empty() ? 0 : other.num_active_) {
  ResetSlots();
}

void SpanningForestSketch::ResetSlots() {
  // Only the used prefix was ever written; the rest of the arena (and the
  // zero column) still reads as untouched zero pages.
  arena_.Fill0(slots_used_ * ColumnWords());
  if (Hybrid()) {
    std::fill(slot_.begin(), slot_.end(), ZeroSlot());
    slots_used_ = 0;
  } else {
    std::iota(slot_.begin(), slot_.end(), uint32_t{0});
    slots_used_ = num_active_;
  }
}

void SpanningForestSketch::ApplyResolved(int t, const Hyperedge& e,
                                         const PreparedCoord& pc, int delta,
                                         const L0Resolved& res,
                                         const char* endpoint_dense) {
  const L0Shape& shape = *round_shapes_[static_cast<size_t>(t)];
  const int level = res.level;
  const SSparseShape& ls = shape.level_shape(level);
  const size_t level_off = static_cast<size_t>(level) * shape.SegmentWords();
  const size_t cells = static_cast<size_t>(ls.NumCells());
  const int rows = ls.rows();
  // Everything below the incidence sign depends only on the key, not the
  // endpoint: the target cells are resolved, the +delta-magnitude deltas
  // are computed once here, and both are applied per endpoint with the
  // coefficient from Section 4.1's encoding (|e|-1 at min e, -1
  // elsewhere; vertices_ is sorted, so the min is position 0 -- no
  // per-vertex membership search).
  const uint64_t fp_unit = FpMul(FpFromInt64(delta), res.power);
  const u128 is_unit =
      pc.index * static_cast<u128>(static_cast<i128>(delta));
  const int64_t head = static_cast<int64_t>(e.size()) - 1;
  for (size_t pos = 0; pos < e.size(); ++pos) {
    // The hybrid column ingest absorbed the unflagged endpoints into their
    // exact sparse buffers during the serial pre-pass; only the dense ones
    // reach the arena here.
    if (endpoint_dense != nullptr && !endpoint_dense[pos]) continue;
    const VertexId v = e[pos];
    GMS_CHECK_MSG(IsActive(v), "update touches an inactive vertex");
    MarkDirty(t, v);
    MarkLevel(t, v, level);
    uint64_t* seg = ArenaAt(v, t) + level_off;
    if (pos == 0) {
      const int64_t wdelta = head * delta;
      const uint64_t fp =
          head == 1 ? fp_unit : FpMul(FpReduce(static_cast<u128>(head)), fp_unit);
      SSparseSegmentApply(seg, res.cell, rows, cells, wdelta,
                          is_unit * static_cast<u128>(head), fp);
    } else {
      SSparseSegmentApply(seg, res.cell, rows, cells, -delta, -is_unit,
                          FpNeg(fp_unit));
    }
  }
}

void SpanningForestSketch::AddCoordRounds(const PreparedCoord& pc,
                                          int64_t coeff, int w0, int w1,
                                          uint64_t* dst,
                                          uint64_t* masks) const {
  for (int r = w0; r < w1; ++r) {
    const int level = AddCoordToColumn(
        *round_shapes_[static_cast<size_t>(r)],
        dst + static_cast<size_t>(r - w0) * state_words_, pc, coeff);
    masks[r - w0] |= LevelMaskBit(level);
  }
}

void SpanningForestSketch::ReplayEntries(std::span<const SparseEntry> entries,
                                         int w0, int w1, uint64_t* dst,
                                         uint64_t* masks) const {
  for (const SparseEntry& entry : entries) {
    AddCoordRounds(PrepareCoord(entry.index), entry.value, w0, w1, dst, masks);
  }
}

void SpanningForestSketch::EscalateOrdinal(size_t ord) {
  // Take the next arena slot: escalated columns pack at the arena's front
  // in escalation order, so resident memory follows the dense columns.
  slot_[ord] = static_cast<uint32_t>(slots_used_++);
  // Replay the buffer straight into ord's arena rows (they share the
  // accumulator layout: rounds contiguous at stride state_words_), with the
  // exact level bits landing in ord's own level-mask words.
  if (!buffers_[ord].empty()) {
    ReplayEntries(buffers_[ord], 0, rounds_, ColAt(ord, 0),
                  level_mask_.data() + ord * static_cast<size_t>(rounds_));
    for (int t = 0; t < rounds_; ++t) MarkDirtyOrd(t, ord);
    buffers_[ord].clear();
    buffers_[ord].shrink_to_fit();
  }
  --sparse_remaining_;
}

bool SpanningForestSketch::AbsorbUpdate(size_t ord, const PreparedCoord& pc,
                                        int64_t coeff) {
  const uint32_t threshold = params_.config.sparse_threshold;
  const uint32_t count = counters_[ord];
  if (count >= threshold) {
    // This is update threshold + 1: saturate the counter (it never moves
    // again) and cross to the dense phase; the caller applies the current
    // update through the kernel.
    counters_[ord] = threshold + 1;
    EscalateOrdinal(ord);
    return false;
  }
  counters_[ord] = count + 1;
  SparseBufferAdd(&buffers_[ord], pc.index, coeff);
  return true;
}

void SpanningForestSketch::Update(const Hyperedge& e, int delta) {
  GMS_CHECK_MSG(e.size() <= codec_.max_rank(), "hyperedge exceeds max_rank");
  UpdatePrepared(e, PrepareCoord(codec_.Encode(e)), delta);
}

void SpanningForestSketch::UpdatePrepared(const Hyperedge& e,
                                          const PreparedCoord& pc, int delta) {
  if (sparse_remaining_ == 0) {
    // Every endpoint is dense (or the sparse phase is disabled): the
    // pre-hybrid fast path, one resolution per round for all endpoints.
    for (int t = 0; t < rounds_; ++t) {
      L0Resolved res;
      round_shapes_[static_cast<size_t>(t)]->Resolve(pc, &res);
      ApplyResolved(t, e, pc, delta, res);
    }
    return;
  }
  // Route each endpoint through its own phase as a one-entry batch with
  // its Section 4.1 incidence coefficient ((|e|-1) at the sorted head, -1
  // elsewhere).
  const int64_t head = static_cast<int64_t>(e.size()) - 1;
  for (size_t pos = 0; pos < e.size(); ++pos) {
    VertexUpdate u;
    u.pc = pc;
    u.coeff = pos == 0 ? head * delta : -int64_t{delta};
    ApplyUpdateBatch(e[pos], std::span<const VertexUpdate>(&u, 1));
  }
}

void SpanningForestSketch::UpdateLocal(VertexId v, const Hyperedge& e,
                                       int delta) {
  GMS_CHECK_MSG(e.Contains(v), "UpdateLocal: vertex not in hyperedge");
  GMS_CHECK_MSG(IsActive(v), "update touches an inactive vertex");
  VertexUpdate u;
  u.pc = PrepareCoord(codec_.Encode(e));
  u.coeff = IncidenceCoefficient(e, v) * delta;
  ApplyUpdateBatch(v, std::span<const VertexUpdate>(&u, 1));
}

void SpanningForestSketch::ApplyUpdateBatch(
    VertexId v, std::span<const VertexUpdate> batch) {
  if (batch.empty()) return;
  GMS_CHECK_MSG(IsActive(v), "update touches an inactive vertex");
  const size_t ord = static_cast<size_t>(state_index_[v]);
  size_t start = 0;
  if (sparse_remaining_ != 0 && !Escalated(ord)) {
    // Absorb the batch into v's exact buffer in stream order until (if
    // ever) an entry crosses the threshold; that entry and the rest of the
    // batch then replay densely below, matching the serial path bit for
    // bit. A fully absorbed batch touches no arena cell and no bitmap.
    while (start < batch.size() &&
           AbsorbUpdate(ord, batch[start].pc, batch[start].coeff)) {
      ++start;
    }
    if (start == batch.size()) return;
  }
  const std::span<const VertexUpdate> dense = batch.subspan(start);
  // The column's slot is fixed from here on (it escalated above, if at
  // all): look it up once for every round.
  uint64_t* const col0 = ColAt(ord, 0);
  auto round_col = [&](int t) {
    return col0 + static_cast<size_t>(t) * state_words_;
  };
  if (dense.size() <= kPrefetchBatchMax) {
    // Resolve every (entry, round) once and prefetch its cells before the
    // first write, so the rounds' DRAM misses overlap instead of landing
    // one round at a time; the writes then reuse the resolutions.
    L0Resolved tile[kResolveTileRounds][kPrefetchBatchMax];
    for (int t0 = 0; t0 < rounds_; t0 += kResolveTileRounds) {
      const int t1 = std::min(rounds_, t0 + kResolveTileRounds);
      for (int t = t0; t < t1; ++t) {
        const L0Shape& shape = *round_shapes_[static_cast<size_t>(t)];
        for (size_t i = 0; i < dense.size(); ++i) {
          L0Resolved& res = tile[t - t0][i];
          shape.Resolve(dense[i].pc, &res);
          L0PrefetchResolved(shape, round_col(t), res);
        }
      }
      for (int t = t0; t < t1; ++t) {
        const L0Shape& shape = *round_shapes_[static_cast<size_t>(t)];
        uint64_t levels = 0;
        for (size_t i = 0; i < dense.size(); ++i) {
          const L0Resolved& res = tile[t - t0][i];
          levels |= LevelMaskBit(res.level);
          L0ApplyResolved(shape, round_col(t), res, dense[i].pc,
                          dense[i].coeff);
        }
        MarkDirtyOrd(t, ord);
        // One OR of the vertex-major level-mask word covers the batch.
        MarkLevelMaskOrd(t, ord, levels);
      }
    }
    return;
  }
  for (int t = 0; t < rounds_; ++t) {
    const L0Shape& shape = *round_shapes_[static_cast<size_t>(t)];
    uint64_t levels = 0;
    for (const VertexUpdate& u : dense) {
      levels |= LevelMaskBit(AddCoordToColumn(shape, round_col(t), u.pc,
                                              u.coeff));
    }
    MarkDirtyOrd(t, ord);
    MarkLevelMaskOrd(t, ord, levels);
  }
}

std::vector<PreparedCoord> PrepareUpdates(const EdgeCodec& codec,
                                          std::span<const StreamUpdate> updates,
                                          const char* refusal) {
  GMS_CHECK_MSG(updates.size() <= UINT32_MAX, "batch exceeds 2^32 updates");
  std::vector<PreparedCoord> prepared(updates.size());
  for (size_t j = 0; j < updates.size(); ++j) {
    GMS_CHECK_MSG(updates[j].edge.size() <= codec.max_rank(), refusal);
    prepared[j] = PrepareCoord(codec.Encode(updates[j].edge));
  }
  return prepared;
}

void SpanningForestSketch::Process(std::span<const StreamUpdate> updates) {
  const std::vector<PreparedCoord> prepared = PrepareUpdates(codec_, updates);
  std::vector<uint32_t> all(updates.size());
  std::iota(all.begin(), all.end(), uint32_t{0});
  ProcessPrepared(updates, prepared, all);
}

void SpanningForestSketch::ProcessPrepared(
    std::span<const StreamUpdate> updates,
    std::span<const PreparedCoord> prepared,
    std::span<const uint32_t> routed) {
  // Hybrid pre-pass: counters and buffers are per-vertex stream-order
  // state, so they cannot be touched from the round-sharded fan-out (each
  // worker would bump them once per round). Absorb every sparse endpoint
  // serially here -- escalation replays land in the escalating vertex's
  // arena rows before any worker starts -- flag the endpoints that must
  // still reach the arena, and list the updates that have one: the round
  // loop and its lookahead visit only those, so a fully absorbed update
  // costs no hashing and no prefetch in any round. When nothing is sparse
  // (the common steady state, and the whole sketch when the threshold is
  // 0) this block is a single predictable branch.
  std::vector<uint32_t> live;
  std::vector<size_t> live_off;  // live[k]'s flags start at live_off[k]
  std::vector<char> endpoint_dense;
  const bool filtered = sparse_remaining_ != 0;
  if (filtered) {
    for (const uint32_t j : routed) {
      const Hyperedge& e = updates[j].edge;
      const int delta = updates[j].delta;
      const int64_t head = static_cast<int64_t>(e.size()) - 1;
      const size_t off = endpoint_dense.size();
      endpoint_dense.resize(off + e.size(), 0);
      bool any_dense = false;
      for (size_t pos = 0; pos < e.size(); ++pos) {
        const VertexId v = e[pos];
        GMS_CHECK_MSG(IsActive(v), "update touches an inactive vertex");
        const size_t ord = static_cast<size_t>(state_index_[v]);
        const int64_t coeff = pos == 0 ? head * delta : -int64_t{delta};
        if (!Escalated(ord) && AbsorbUpdate(ord, prepared[j], coeff)) {
          continue;
        }
        endpoint_dense[off + pos] = 1;
        any_dense = true;
      }
      if (any_dense) {
        live.push_back(j);
        live_off.push_back(off);
      } else {
        endpoint_dense.resize(off);
      }
    }
  }
  const std::span<const uint32_t> todo =
      filtered ? std::span<const uint32_t>(live) : routed;
  const size_t count = todo.size();
  if (count == 0) return;  // nothing routed, or all absorbed exactly
  auto dense_at = [&](size_t k) {
    return filtered ? endpoint_dense.data() + live_off[k] : nullptr;
  };
  // Each worker owns a contiguous block of rounds: round columns are
  // disjoint state -- and so are their round-major dirty-bitmap words -- so
  // no worker ever touches another's cells. Each round resolves every live
  // update once, kPrefetchAhead updates before its write: far enough to
  // cover DRAM latency across the ~8 lines an update touches, near enough
  // that the lines are still resident when reached. The prefetch uses the
  // resolution and the write reuses it from the ring.
  ParallelFor(params_.threads, static_cast<size_t>(rounds_),
              [&](size_t begin, size_t end) {
                L0Resolved ring[kResolveRing];
                for (size_t tt = begin; tt < end; ++tt) {
                  const int t = static_cast<int>(tt);
                  const L0Shape& shape = *round_shapes_[tt];
                  const auto resolve = [&](size_t k) {
                    const uint32_t j = todo[k];
                    L0Resolved& res = ring[k % kResolveRing];
                    shape.Resolve(prepared[j], &res);
                    PrefetchResolved(t, updates[j].edge, res, dense_at(k));
                  };
                  for (size_t k = 0; k < std::min(kPrefetchAhead, count);
                       ++k) {
                    resolve(k);
                  }
                  for (size_t k = 0; k < count; ++k) {
                    if (k + kPrefetchAhead < count) resolve(k + kPrefetchAhead);
                    const uint32_t j = todo[k];
                    ApplyResolved(t, updates[j].edge, prepared[j],
                                  updates[j].delta, ring[k % kResolveRing],
                                  dense_at(k));
                  }
                }
              });
}

void SpanningForestSketch::Process(const DynamicStream& stream) {
  Process(std::span<const StreamUpdate>(stream.updates()));
}

void SpanningForestSketch::RemoveHyperedges(
    const std::vector<Hyperedge>& edges) {
  if (edges.empty()) return;
  // Batch the subtraction through Process: one encode per edge and the
  // round fan-out / prefetch.
  std::vector<StreamUpdate> updates;
  updates.reserve(edges.size());
  for (const auto& e : edges) updates.emplace_back(e, -1);
  Process(updates);
}

bool SpanningForestSketch::SampleGroupEdge(int t, const uint64_t* src,
                                           uint64_t src_mask,
                                           const std::vector<int64_t>& comp,
                                           size_t g, Hyperedge* out,
                                           L0SampleProbe* probe) const {
  auto sample = L0SampleRawMasked(*round_shapes_[static_cast<size_t>(t)], src,
                                  src_mask, probe);
  if (!sample.ok()) return false;  // isolated component or sampler failure
  auto decoded = codec_.Decode(sample->index);
  if (!decoded.ok()) return false;  // corrupted sample; skip defensively
  const Hyperedge& e = *decoded;
  // Sanity: a genuine sample crosses the component boundary and touches
  // only active vertices.
  bool valid =
      std::llabs(sample->value) < static_cast<int64_t>(codec_.max_rank()) &&
      sample->value != 0;
  bool any_in = false, any_out = false;
  for (VertexId v : e) {
    if (!IsActive(v)) valid = false;
    (comp[v] == static_cast<int64_t>(g) ? any_in : any_out) = true;
  }
  if (!valid || !any_in || !any_out) return false;
  *out = e;
  return true;
}

bool SpanningForestSketch::SnapshotDirty() const {
  for (uint64_t w : dirty_) {
    if (w != 0) return true;
  }
  for (const auto& buf : buffers_) {
    if (!buf.empty()) return true;
  }
  return false;
}

SpanningForestSketch::PeelOverlay SpanningForestSketch::MakePeelOverlay(
    std::span<const Hyperedge> peeled) const {
  PeelOverlay ov;
  ov.off.assign(num_active_ + 1, 0);
  std::vector<PreparedCoord> prepared(peeled.size());
  for (size_t j = 0; j < peeled.size(); ++j) {
    const Hyperedge& e = peeled[j];
    GMS_CHECK_MSG(e.size() <= codec_.max_rank(), "hyperedge exceeds max_rank");
    prepared[j] = PrepareCoord(codec_.Encode(e));
    for (VertexId v : e) {
      GMS_CHECK_MSG(IsActive(v), "update touches an inactive vertex");
      ++ov.off[static_cast<size_t>(state_index_[v]) + 1];
    }
  }
  for (size_t ord = 0; ord < num_active_; ++ord) {
    ov.off[ord + 1] += ov.off[ord];
  }
  ov.entries.resize(ov.off[num_active_]);
  std::vector<size_t> fill(ov.off.begin(), ov.off.end() - 1);
  for (size_t j = 0; j < peeled.size(); ++j) {
    // RemoveHyperedges applies delta = -1: coefficient -(|e|-1) at the
    // sorted head, +1 elsewhere.
    const Hyperedge& e = peeled[j];
    const int64_t head = static_cast<int64_t>(e.size()) - 1;
    for (size_t pos = 0; pos < e.size(); ++pos) {
      const size_t ord = static_cast<size_t>(state_index_[e[pos]]);
      ov.entries[fill[ord]++] =
          PeelOverlay::Entry{prepared[j], pos == 0 ? -head : int64_t{1}};
    }
  }
  if (Hybrid()) {
    // A column the peel leaves sparse holds exactly what its buffer would
    // after absorbing the entries one by one; SparseBufferAdd builds it.
    ov.list_off.assign(num_active_ + 1, 0);
    std::vector<SparseEntry> merged;
    for (size_t ord = 0; ord < num_active_; ++ord) {
      ov.list_off[ord] = ov.lists.size();
      if (ov.Count(ord) == 0) continue;
      if (ResidualEscalated(&ov, ord)) {
        ov.escalates = ov.escalates || !Escalated(ord);
        continue;
      }
      merged = buffers_[ord];
      for (const PeelOverlay::Entry& entry : ov.Of(ord)) {
        SparseBufferAdd(&merged, entry.pc.index, entry.coeff);
      }
      ov.lists.insert(ov.lists.end(), merged.begin(), merged.end());
    }
    ov.list_off[num_active_] = ov.lists.size();
  }
  return ov;
}

bool SpanningForestSketch::ResidualEscalated(const PeelOverlay* ov,
                                             size_t ord) const {
  if (Escalated(ord)) return true;
  // Every peeled endpoint bumps the counter once, whether or not it
  // cancels a buffered key, so the peel escalates ord iff c + d > T.
  return ov != nullptr && uint64_t{counters_[ord]} + ov->Count(ord) >
                              params_.config.sparse_threshold;
}

std::span<const SparseEntry> SpanningForestSketch::ResidualBuffer(
    const PeelOverlay* ov, size_t ord) const {
  if (ov == nullptr || ov->Count(ord) == 0) return buffers_[ord];
  return std::span<const SparseEntry>(ov->lists).subspan(
      ov->list_off[ord], ov->list_off[ord + 1] - ov->list_off[ord]);
}

void SpanningForestSketch::AddResidualRows(const PeelOverlay* ov,
                                           const CancelSet* cancel, size_t ord,
                                           int w0, int w1, uint64_t* dst,
                                           uint64_t* masks,
                                           RowTally* tally) const {
  if (!ResidualEscalated(ov, ord)) {
    // A sparse column's measurement lives in its exact buffer, not the
    // (zero) arena: replay it, less the entries that cancel.
    const std::span<const SparseEntry> buf = ResidualBuffer(ov, ord);
    for (size_t i = 0; i < buf.size(); ++i) {
      if (cancel != nullptr && cancel->Cancels(ord, i)) continue;
      AddCoordRounds(PrepareCoord(buf[i].index), buf[i].value, w0, w1, dst,
                     masks);
      ++tally->entries;
    }
    return;
  }
  if (Escalated(ord)) {
    const uint64_t* src = ColAt(ord, w0);
    for (int r = w0; r < w1; ++r) {
      const size_t off = static_cast<size_t>(r - w0) * state_words_;
      const uint64_t m = ColumnLevelMask(ord, r);
      masks[r - w0] |= m;
      tally->words += L0AddRawMasked(*round_shapes_[static_cast<size_t>(r)],
                                     dst + off, src + off, m);
    }
  } else {
    // Escalated by the peel alone: RemoveHyperedges would have replayed
    // the buffer into the arena, and by linearity the replay of the stored
    // buffer plus every overlay entry is that arena column.
    ReplayEntries(buffers_[ord], w0, w1, dst, masks);
    tally->entries += buffers_[ord].size();
  }
  if (ov != nullptr) {
    for (const PeelOverlay::Entry& entry : ov->Of(ord)) {
      AddCoordRounds(entry.pc, entry.coeff, w0, w1, dst, masks);
    }
  }
}

uint64_t SpanningForestSketch::SparsePreRound(UnionFind* uf,
                                              std::vector<Hyperedge>* forest,
                                              const PeelOverlay* ov,
                                              CancelSet* cancel) const {
  GMS_DCHECK(cancel == nullptr || ov == nullptr);
  uint64_t exact_edges = 0;
  // Decoded endpoints, reused for every entry: only merging edges become
  // Hyperedges.
  std::vector<VertexId> e;
  e.reserve(codec_.max_rank());
  // Buffers are separate heap blocks walked in ordinal order: fetch a few
  // columns ahead so the walk does not wait out each block's first miss.
  constexpr size_t kBufferAhead = 4;
  for (VertexId v = 0; v < n_; ++v) {
    if (!IsActive(v)) continue;
    const size_t ord = static_cast<size_t>(state_index_[v]);
    if (ord + kBufferAhead < num_active_) {
      __builtin_prefetch(buffers_[ord + kBufferAhead].data());
    }
    if (ResidualEscalated(ov, ord)) continue;
    const std::span<const SparseEntry> buf = ResidualBuffer(ov, ord);
    for (size_t i = 0; i < buf.size(); ++i) {
      // Marked at its hyperedge's head (a smaller vertex, visited earlier),
      // which already united every endpoint.
      if (cancel != nullptr && cancel->Cancels(ord, i)) continue;
      if (!codec_.DecodeInto(buf[i].index, &e).ok()) {
        continue;  // hostile key; skip defensively
      }
      bool valid = true;
      for (VertexId u : e) valid = valid && IsActive(u);
      if (!valid) continue;  // only hostile frames buffer such keys
      bool merged = false;
      for (size_t j = 1; j < e.size(); ++j) merged |= uf->Union(e[0], e[j]);
      if (merged) {
        forest->emplace_back(e);
        ++exact_edges;
      }
      if (cancel != nullptr && e[0] == v) MarkIfCancels(e, ord, i, cancel);
    }
  }
  return exact_edges;
}

void SpanningForestSketch::MarkIfCancels(std::span<const VertexId> e,
                                         size_t head_ord, size_t i,
                                         CancelSet* cancel) const {
  const u128 key = buffers_[head_ord][i].index;
  // Position of the key in ord's buffer, or SIZE_MAX if it lacks the key.
  const auto find = [&](size_t ord) -> size_t {
    const std::vector<SparseEntry>& buf = buffers_[ord];
    const auto it = std::lower_bound(
        buf.begin(), buf.end(), key,
        [](const SparseEntry& x, u128 k) { return x.index < k; });
    if (it == buf.end() || it->index != key) return SIZE_MAX;
    return static_cast<size_t>(it - buf.begin());
  };
  // The exact integer sum: every cell is a ring image of the integer
  // weight (wrapping count, index sum mod 2^128, fingerprint mod p), so
  // copies summing to zero in Z add zero to every cell. A wrapping int64
  // sum would not do for hostile weights.
  i128 sum = buffers_[head_ord][i].value;
  for (size_t j = 1; j < e.size(); ++j) {
    const size_t ord = static_cast<size_t>(state_index_[e[j]]);
    if (Escalated(ord)) return;  // its copy lives in the arena
    const size_t pos = find(ord);
    // A partner lacking the key (only hostile frames do) keeps every copy.
    if (pos == SIZE_MAX) return;
    sum += buffers_[ord][pos].value;
  }
  if (sum != 0) return;
  cancel->Mark(head_ord, i);
  for (size_t j = 1; j < e.size(); ++j) {
    const size_t ord = static_cast<size_t>(state_index_[e[j]]);
    cancel->Mark(ord, find(ord));
  }
}

QueryResult<Hypergraph> SpanningForestSketch::Query(
    size_t threads, std::span<const Hyperedge> peeled) const {
  if (threads == 0) threads = params_.threads;
  std::optional<PeelOverlay> overlay;
  if (!peeled.empty()) overlay.emplace(MakePeelOverlay(peeled));
  const PeelOverlay* ov = overlay ? &*overlay : nullptr;
  ExtractStats stats;
  // An all-sparse residual is decoded by the exact pre-round alone.
  const bool exact_only = AllSparse() && (ov == nullptr || !ov->escalates);
  if (exact_only) stats.sparse_exact_forests = 1;
  if (num_active_ <= 1) {
    return QueryResult<Hypergraph>(Hypergraph(n_), std::move(stats));
  }
  UnionFind uf(n_);
  // The spanning graph's edges in the order they united components; every
  // one merged something, so they are distinct and the payload is built
  // once at the end.
  std::vector<Hyperedge> forest;

  // Hybrid exact pre-round: a sparse-phase vertex's buffer lists its net
  // incident hyperedges VERBATIM, so they feed Borůvka directly -- no
  // sampling, no decode attempts. Deterministic (vertices in active order,
  // entries in key order), like the reference decoder's. A no-peel decode
  // that goes on to the rounds also records the entries that cancel
  // inside their component; no accumulator replays those.
  std::optional<CancelSet> cancel_set;
  CancelSet* cancel = nullptr;
  if (Hybrid()) {
    if (ov == nullptr && !exact_only && sparse_remaining_ > 0) {
      cancel = &cancel_set.emplace(buffers_);
    }
    stats.edges_found += SparsePreRound(&uf, &forest, ov, cancel);
  }
  if (exact_only) {
    return QueryResult<Hypergraph>(
        Hypergraph::FromDistinctEdges(n_, std::move(forest)),
        std::move(stats));
  }
  std::vector<VertexId> active_vertices;
  active_vertices.reserve(num_active_);
  for (VertexId v = 0; v < n_; ++v) {
    if (IsActive(v)) active_vertices.push_back(v);
  }

  // Blocks live in the calling thread's scratch; inner parallel phases
  // write disjoint blocks, and every phase boundary is a pool join, so the
  // sharing is race-free.
  ExtractScratch& es = TlsExtractScratch();
  es.block_of.assign(n_, -1);
  es.free_blocks.clear();
  int block_w0 = -1;   // materialized window [block_w0, block_w1)
  int block_w1 = -1;
  size_t block_words = 0;
  size_t blocks_used = 0;

  std::atomic<uint64_t> summed_words{0};
  std::atomic<uint64_t> entries_replayed{0};
  std::atomic<uint64_t> sample_attempts{0};
  std::atomic<uint64_t> decode_attempts{0};
  std::atomic<bool> round_saw_nonzero{false};

  std::vector<std::vector<VertexId>> groups;
  std::vector<VertexId> group_root;  // pre-union root of each group
  std::vector<int64_t> comp(n_, -1);
  std::vector<int64_t> dense(n_, -1);

  for (int t = 0; t < rounds_; ++t) {
    // Group active vertices by current component; comp[v] snapshots the
    // component index so the parallel phases below never touch the
    // (path-compressing, hence mutating) union-find.
    groups.clear();
    group_root.clear();
    std::fill(comp.begin(), comp.end(), -1);
    std::fill(dense.begin(), dense.end(), -1);
    for (VertexId v : active_vertices) {
      VertexId r = uf.Find(v);
      if (dense[r] < 0) {
        dense[r] = static_cast<int64_t>(groups.size());
        groups.emplace_back();
        group_root.push_back(r);
      }
      comp[v] = dense[r];
      groups[static_cast<size_t>(dense[r])].push_back(v);
    }
    stats.rounds_run = t + 1;
    stats.groups_per_round.push_back(groups.size());
    if (groups.size() <= 1) break;

    // Window refill: the first round of each window rebuilds every
    // multi-vertex component's block from its members' arena rows (rounds
    // are contiguous per vertex, so the first member is one memcpy of the
    // whole window). This is the ONLY full re-sum; within the window,
    // blocks evolve purely through whole-block union merges.
    if (t >= 1 && WindowStart(t) != block_w0) {
      block_w0 = WindowStart(t);
      block_w1 = std::min(block_w0 + kAccWindowRounds, rounds_);
      block_words = static_cast<size_t>(block_w1 - block_w0) * state_words_;
      es.free_blocks.clear();
      std::fill(es.block_of.begin(), es.block_of.end(), -1);
      blocks_used = 0;
      std::vector<size_t> block_id(groups.size(), SIZE_MAX);
      for (size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].size() > 1) block_id[g] = blocks_used++;
      }
      if (es.blocks.size() < blocks_used * block_words) {
        es.blocks.resize(blocks_used * block_words);
      }
      if (es.block_masks.size() < blocks_used * kAccWindowRounds) {
        es.block_masks.resize(blocks_used * kAccWindowRounds);
      }
      ParallelFor(threads, groups.size(), [&](size_t begin, size_t end) {
        RowTally local;
        for (size_t g = begin; g < end; ++g) {
          if (block_id[g] == SIZE_MAX) continue;
          const auto& group = groups[g];
          uint64_t* dst = es.blocks.data() + block_id[g] * block_words;
          uint64_t* masks =
              es.block_masks.data() + block_id[g] * kAccWindowRounds;
          std::memset(dst, 0, block_words * sizeof(uint64_t));
          std::memset(masks, 0, kAccWindowRounds * sizeof(uint64_t));
          for (VertexId member : group) {
            AddResidualRows(ov, cancel,
                            static_cast<size_t>(state_index_[member]),
                            block_w0, block_w1, dst, masks, &local);
          }
        }
        summed_words.fetch_add(local.words, std::memory_order_relaxed);
        entries_replayed.fetch_add(local.entries, std::memory_order_relaxed);
      });
      for (size_t g = 0; g < groups.size(); ++g) {
        if (block_id[g] != SIZE_MAX) {
          es.block_of[group_root[g]] = static_cast<int64_t>(block_id[g]);
        }
      }
    }

    // Sample one crossing hyperedge per component. Components are
    // independent read-only probes (singletons straight from the arena,
    // multi-vertex components from their window block), so they fan out
    // across the pool. Shard boundaries are cache-line aligned on the
    // byte-per-group output arrays.
    std::vector<Hyperedge> found(groups.size());
    std::vector<char> has_found(groups.size(), 0);
    round_saw_nonzero.store(false, std::memory_order_relaxed);
    ParallelForAligned(
        threads, groups.size(), /*grain=*/64, [&](size_t begin, size_t end) {
          std::vector<uint64_t> acc;  // round-t scratch accumulator
          uint64_t local_samples = 0, local_decodes = 0;
          RowTally local;
          bool local_nonzero = false;
          for (size_t g = begin; g < end; ++g) {
            const auto& group = groups[g];
            const uint64_t* src;
            uint64_t src_mask;
            const size_t ord0 = static_cast<size_t>(state_index_[group[0]]);
            if (group.size() == 1 &&
                (ov == nullptr || ov->Count(ord0) == 0 ||
                 !ResidualEscalated(ov, ord0))) {
              // A still-singleton sparse vertex has an empty effective
              // buffer (the pre-round united the endpoints of every
              // decodable buffered edge), so its zero arena column IS its
              // exact round-t measurement -- no replay needed here.
              src = ArenaAt(group[0], t);
              src_mask = ColumnLevelMask(ord0, t);
            } else if (group.size() > 1 && t >= 1) {
              const int64_t b = es.block_of[group_root[g]];
              GMS_DCHECK(b >= 0);
              src = es.blocks.data() +
                    static_cast<size_t>(b) * block_words +
                    static_cast<size_t>(t - block_w0) * state_words_;
              src_mask =
                  es.block_masks[static_cast<size_t>(b) * kAccWindowRounds +
                                 static_cast<size_t>(t - block_w0)];
            } else {
              // Summed into this shard's scratch: a peeled singleton's
              // residual row (stored row or buffer replay, plus its overlay
              // entries), or a round-0 component -- the exact pre-round can
              // unite components BEFORE the first round, but accumulator
              // windows only start at round 1.
              if (acc.empty()) acc.resize(state_words_);
              std::memset(acc.data(), 0, state_words_ * sizeof(uint64_t));
              src_mask = 0;
              for (VertexId member : group) {
                AddResidualRows(ov, cancel,
                                static_cast<size_t>(state_index_[member]), t,
                                t + 1, acc.data(), &src_mask, &local);
              }
              src = acc.data();
            }
            L0SampleProbe probe;
            Hyperedge e;
            ++local_samples;
            if (SampleGroupEdge(t, src, src_mask, comp, g, &e, &probe)) {
              found[g] = std::move(e);
              has_found[g] = 1;
            }
            local_decodes += static_cast<uint64_t>(probe.decode_attempts);
            local_nonzero |= probe.saw_nonzero;
          }
          sample_attempts.fetch_add(local_samples, std::memory_order_relaxed);
          decode_attempts.fetch_add(local_decodes, std::memory_order_relaxed);
          summed_words.fetch_add(local.words, std::memory_order_relaxed);
          entries_replayed.fetch_add(local.entries, std::memory_order_relaxed);
          if (local_nonzero) {
            round_saw_nonzero.store(true, std::memory_order_relaxed);
          }
        });

    // Contract: serial union in group order keeps the decode deterministic.
    size_t merges = 0;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (!has_found[g]) continue;
      Hyperedge& e = found[g];
      bool merged = false;
      for (size_t i = 1; i < e.size(); ++i) merged |= uf.Union(e[0], e[i]);
      if (merged) {
        forest.push_back(std::move(e));
        ++merges;
      }
    }
    stats.edges_found += merges;
    if (merges == 0) {
      if (!round_saw_nonzero.load(std::memory_order_relaxed)) {
        // Every remaining component's sketch is identically zero: the zero
        // measurement is zero in EVERY round's column, so later rounds
        // cannot merge anything either. (The reference decoder shares this
        // rule, so their outputs stay bit-identical.)
        stats.early_exit = true;
        break;
      }
      continue;  // decode failures only; retry under fresh randomness
    }

    // Incremental maintenance: components that united this round get a
    // merged block for the remainder of the window -- one whole-block
    // field addition per part. Unchanged components keep their block and
    // cost nothing next round.
    const int tn = t + 1;
    if (tn >= rounds_) continue;
    if (WindowStart(tn) != block_w0) continue;  // next round refills anyway
    // Bucket this round's groups by post-union root (dense[] is free for
    // reuse until the next round rebuilds it).
    std::fill(dense.begin(), dense.end(), -1);
    std::vector<std::vector<size_t>> sets;
    std::vector<VertexId> set_root;
    for (size_t g = 0; g < groups.size(); ++g) {
      const VertexId r = uf.Find(groups[g][0]);
      if (dense[r] < 0) {
        dense[r] = static_cast<int64_t>(sets.size());
        sets.emplace_back();
        set_root.push_back(r);
      }
      sets[static_cast<size_t>(dense[r])].push_back(g);
    }
    // Serial block-id assignment in set order (free list first): the id
    // sequence, like everything else here, never depends on the schedule.
    std::vector<size_t> merged_sets;
    std::vector<size_t> set_block;
    for (size_t s = 0; s < sets.size(); ++s) {
      if (sets[s].size() < 2) continue;
      size_t bid;
      if (!es.free_blocks.empty()) {
        bid = static_cast<size_t>(es.free_blocks.back());
        es.free_blocks.pop_back();
      } else {
        bid = blocks_used++;
      }
      merged_sets.push_back(s);
      set_block.push_back(bid);
    }
    if (merged_sets.empty()) continue;
    if (es.blocks.size() < blocks_used * block_words) {
      es.blocks.resize(blocks_used * block_words);
    }
    if (es.block_masks.size() < blocks_used * kAccWindowRounds) {
      es.block_masks.resize(blocks_used * kAccWindowRounds);
    }
    ParallelFor(
        threads, merged_sets.size(), [&](size_t begin, size_t end) {
          RowTally local;
          for (size_t j = begin; j < end; ++j) {
            const auto& parts = sets[merged_sets[j]];
            uint64_t* dst = es.blocks.data() + set_block[j] * block_words;
            uint64_t* dmask =
                es.block_masks.data() + set_block[j] * kAccWindowRounds;
            std::memset(dst, 0, block_words * sizeof(uint64_t));
            std::memset(dmask, 0, kAccWindowRounds * sizeof(uint64_t));
            for (size_t part : parts) {
              const auto& group = groups[part];
              if (group.size() == 1) {
                // Singleton part: its residual rows (a sparse singleton's
                // buffer is empty for every stream-reachable state, but a
                // hostile frame's block must still equal the reference
                // re-sum).
                AddResidualRows(ov, cancel,
                                static_cast<size_t>(state_index_[group[0]]),
                                block_w0, block_w1, dst, dmask, &local);
                continue;
              }
              const size_t b =
                  static_cast<size_t>(es.block_of[group_root[part]]);
              const uint64_t* src = es.blocks.data() + b * block_words;
              const uint64_t* smask =
                  es.block_masks.data() + b * kAccWindowRounds;
              for (int r = block_w0; r < block_w1; ++r) {
                const size_t off =
                    static_cast<size_t>(r - block_w0) * state_words_;
                const uint64_t m = smask[r - block_w0];
                dmask[r - block_w0] |= m;
                local.words +=
                    L0AddRawMasked(*round_shapes_[static_cast<size_t>(r)],
                                   dst + off, src + off, m);
              }
            }
          }
          summed_words.fetch_add(local.words, std::memory_order_relaxed);
          entries_replayed.fetch_add(local.entries, std::memory_order_relaxed);
        });
    // Retire the parts' blocks (their values are folded into the merged
    // block) and point the united roots at it; serial, in set order.
    for (size_t j = 0; j < merged_sets.size(); ++j) {
      for (size_t part : sets[merged_sets[j]]) {
        if (groups[part].size() > 1) {
          es.free_blocks.push_back(es.block_of[group_root[part]]);
        }
        es.block_of[group_root[part]] = -1;
      }
      es.block_of[set_root[merged_sets[j]]] =
          static_cast<int64_t>(set_block[j]);
    }
  }
  stats.summed_words = summed_words.load(std::memory_order_relaxed);
  stats.sparse_entries_replayed =
      entries_replayed.load(std::memory_order_relaxed);
  stats.sample_attempts = sample_attempts.load(std::memory_order_relaxed);
  stats.decode_attempts = decode_attempts.load(std::memory_order_relaxed);
  return QueryResult<Hypergraph>(
      Hypergraph::FromDistinctEdges(n_, std::move(forest)), std::move(stats));
}

Status SpanningForestSketch::MergeFrom(const SpanningForestSketch& other) {
  if (seed_ != other.seed_ || n_ != other.n_ ||
      codec_.max_rank() != other.codec_.max_rank() ||
      rounds_ != other.rounds_ || state_words_ != other.state_words_ ||
      params_.config.sparse_threshold !=
          other.params_.config.sparse_threshold) {
    return Status::InvalidArgument(
        "SpanningForestSketch::MergeFrom: seed/shape mismatch (different "
        "measurement)");
  }
  // The other's active set must be a subset of ours: equal sets are the
  // stream-slice case; a strict subset is the referee folding a player's
  // single-vertex state into the full sketch.
  for (VertexId v = 0; v < n_; ++v) {
    if (other.IsActive(v) && !IsActive(v)) {
      return Status::InvalidArgument(
          "SpanningForestSketch::MergeFrom: other sketch is active at a "
          "vertex this sketch is not");
    }
  }
  // Hybrid phase lattice (DESIGN.md Section 12). Counters add saturating at
  // threshold + 1 -- min(a + b, T + 1) is associative and commutative, so
  // any shard split escalates a vertex at exactly the same total count as
  // the serial stream. Buffers merge by sorted concat-and-cancel; a
  // combined count past the threshold escalates by exact replay, after
  // which the arena walk below adds the other's dense cells. The other's
  // still-sparse columns have no arena slot (they read its zero column), so
  // the walk skips them even when the other came from Deserialize and is
  // all-dirty; every column it does add is escalated on this side too.
  if (Hybrid()) {
    const uint32_t threshold = params_.config.sparse_threshold;
    std::vector<VertexUpdate> batch;
    for (VertexId v = 0; v < n_; ++v) {
      if (!other.IsActive(v)) continue;
      const size_t oo = static_cast<size_t>(other.state_index_[v]);
      const uint32_t oc = other.counters_[oo];
      if (oc == 0) continue;  // the other never touched this vertex
      const size_t mo = static_cast<size_t>(state_index_[v]);
      if (Escalated(mo)) {
        if (!other.Escalated(oo)) {
          // dense x sparse: replay the other's exact buffer into my arena
          // as one batch, which walks the column round by round with every
          // entry's cells in flight (and prefetched, for short buffers).
          batch.clear();
          for (const SparseEntry& entry : other.buffers_[oo]) {
            batch.push_back(
                VertexUpdate{PrepareCoord(entry.index), 0, entry.value});
          }
          ApplyUpdateBatch(v, batch);
        }
        continue;  // my counter is already saturated at threshold + 1
      }
      if (other.Escalated(oo)) {
        // sparse x dense: escalate myself (replays my buffer); the arena
        // walk then adds the other's cells on top.
        counters_[mo] = threshold + 1;
        EscalateOrdinal(mo);
        continue;
      }
      // sparse x sparse: exact signed union with cancellation. Both
      // counters are <= threshold, so the sum cannot wrap.
      const uint32_t combined = counters_[mo] + oc;
      for (const SparseEntry& entry : other.buffers_[oo]) {
        SparseBufferAdd(&buffers_[mo], entry.index, entry.value);
      }
      if (combined > threshold) {
        counters_[mo] = threshold + 1;
        EscalateOrdinal(mo);
      } else {
        counters_[mo] = combined;
      }
    }
  }
  // Sparse merge: only the columns the other sketch's dirty bitmap marks
  // can be nonzero, and adding an all-zero column is the field identity --
  // so the result is bit-identical to the old dense sweep while a clone
  // that ingested a short stream slice merges in time proportional to what
  // it actually touched.
  // Columns are addressed through each side's own slot table, so the two
  // arenas may hold them in different orders.
  if (state_index_ == other.state_index_) {
    // Same active set: ordinals coincide, so walk raw bitmap words.
    for (int t = 0; t < rounds_; ++t) {
      const L0Shape& shape = *round_shapes_[static_cast<size_t>(t)];
      const size_t base =
          static_cast<size_t>(t) * dirty_words_per_round_;
      for (size_t w = 0; w < dirty_words_per_round_; ++w) {
        uint64_t bits = other.dirty_[base + w];
        while (bits != 0) {
          const size_t ord =
              (w << 6) + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          if (!other.Escalated(ord)) continue;
          MarkDirtyOrd(t, ord);
          const uint64_t src_mask = other.ColumnLevelMask(ord, t);
          MarkLevelMaskOrd(t, ord, src_mask);
          L0AddRawMasked(shape, ColAt(ord, t), other.ColAt(ord, t), src_mask);
        }
      }
    }
  } else {
    // Strict-subset active set (the referee case): map ordinals through
    // vertex ids; both sketches store the dense ordinal in state_index_.
    for (VertexId v = 0; v < n_; ++v) {
      if (!other.IsActive(v)) continue;
      const size_t oo = static_cast<size_t>(other.state_index_[v]);
      if (!other.Escalated(oo)) continue;
      const size_t mo = static_cast<size_t>(state_index_[v]);
      for (int t = 0; t < rounds_; ++t) {
        if (!other.IsDirty(t, oo)) continue;
        MarkDirtyOrd(t, mo);
        const uint64_t src_mask = other.ColumnLevelMask(oo, t);
        MarkLevelMaskOrd(t, mo, src_mask);
        L0AddRawMasked(*round_shapes_[static_cast<size_t>(t)], ColAt(mo, t),
                       other.ColAt(oo, t), src_mask);
      }
    }
  }
  return Status::OK();
}

bool SpanningForestSketch::StateEquals(const SpanningForestSketch& other) const {
  if (n_ != other.n_ || rounds_ != other.rounds_ ||
      state_words_ != other.state_words_ ||
      state_index_ != other.state_index_ || buffers_ != other.buffers_) {
    return false;
  }
  const size_t col_bytes = ColumnWords() * sizeof(uint64_t);
  for (size_t ord = 0; ord < num_active_; ++ord) {
    if (std::memcmp(ColAt(ord, 0), other.ColAt(ord, 0), col_bytes) != 0) {
      return false;
    }
  }
  return true;
}

void SpanningForestSketch::Clear() {
  ResetSlots();
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(level_mask_.begin(), level_mask_.end(), 0);
  if (Hybrid()) {
    std::fill(counters_.begin(), counters_.end(), 0u);
    for (auto& buf : buffers_) {
      buf.clear();
      buf.shrink_to_fit();
    }
    sparse_remaining_ = num_active_;
  }
}

void SpanningForestSketch::MarkAllDirty() {
  std::fill(level_mask_.begin(), level_mask_.end(), ~uint64_t{0});
  if (dirty_.empty()) return;
  std::fill(dirty_.begin(), dirty_.end(), ~uint64_t{0});
  // Mask each round's pad bits so bitmap scans never yield an ordinal
  // beyond the active count.
  const size_t tail = num_active_ & 63;
  if (tail != 0) {
    const uint64_t mask = (uint64_t{1} << tail) - 1;
    for (int t = 0; t < rounds_; ++t) {
      dirty_[static_cast<size_t>(t + 1) * dirty_words_per_round_ - 1] = mask;
    }
  }
}

void SpanningForestSketch::AppendCells(wire::Writer* w) const {
  if (params_.config.sparse_threshold == 0) {
    // Dense-from-the-start: a v1-style raw arena dump behind the repr byte
    // (identity slots, so the arena prefix is in ordinal order).
    w->U8(0);
    w->Words(arena_.data(), num_active_ * ColumnWords());
    return;
  }
  // Hybrid section: counters travel so the phase survives a round trip
  // (escalated <=> counter > threshold), escalated columns dump raw words,
  // sparse columns dump their exact signed buffers. The escalated-column
  // and total-entry counts up front pin the section size to a closed
  // formula a skimmer can check without walking the counters.
  w->U8(1);
  uint64_t escalated = 0, entries = 0;
  for (size_t ord = 0; ord < num_active_; ++ord) {
    if (Escalated(ord)) {
      ++escalated;
    } else {
      entries += buffers_[ord].size();
    }
  }
  w->U64(escalated);
  w->U64(entries);
  for (size_t ord = 0; ord < num_active_; ++ord) w->U32(counters_[ord]);
  const size_t col_words =
      static_cast<size_t>(rounds_) * state_words_;
  for (size_t ord = 0; ord < num_active_; ++ord) {
    if (Escalated(ord)) {
      w->Words(ColAt(ord, 0), col_words);
    } else {
      w->U32(static_cast<uint32_t>(buffers_[ord].size()));
      for (const SparseEntry& entry : buffers_[ord]) {
        w->U128(entry.index);
        w->U64(static_cast<uint64_t>(entry.value));
      }
    }
  }
}

Status SpanningForestSketch::ReadCells(wire::Reader* r) {
  uint8_t repr = 0;
  GMS_RETURN_IF_ERROR(r->U8(&repr));
  const uint32_t threshold = params_.config.sparse_threshold;
  if (repr == 0) {
    if (threshold != 0) {
      return Status::InvalidArgument(
          "wire: dense forest cells under a sparse-threshold config");
    }
    const size_t words = num_active_ * ColumnWords();
    if (r->remaining() < words * sizeof(uint64_t)) {
      return Status::InvalidArgument("wire: forest payload size mismatch");
    }
    GMS_RETURN_IF_ERROR(r->Words(arena_.data(), words));
    // Frames carry no bitmap; correctness only needs dirty ⊇ nonzero, so
    // mark everything.
    MarkAllDirty();
    return Status::OK();
  }
  if (repr != 1) {
    return Status::InvalidArgument("wire: unknown forest cell repr");
  }
  if (threshold == 0) {
    return Status::InvalidArgument(
        "wire: hybrid forest cells under a dense config");
  }
  uint64_t escalated = 0, entries = 0;
  GMS_RETURN_IF_ERROR(r->U64(&escalated));
  GMS_RETURN_IF_ERROR(r->U64(&entries));
  uint64_t seen_escalated = 0, seen_entries = 0;
  for (size_t ord = 0; ord < num_active_; ++ord) {
    uint32_t counter = 0;
    GMS_RETURN_IF_ERROR(r->U32(&counter));
    if (counter > threshold + 1) {
      return Status::InvalidArgument(
          "wire: forest sparse counter above saturation");
    }
    counters_[ord] = counter;
  }
  const size_t col_words = ColumnWords();
  const u128 domain = codec_.DomainSize();
  // Escalated columns take arena slots in ordinal order, as if they had
  // escalated in that order on a fresh sketch.
  ResetSlots();
  for (size_t ord = 0; ord < num_active_; ++ord) {
    if (counters_[ord] > threshold) {
      ++seen_escalated;
      slot_[ord] = static_cast<uint32_t>(slots_used_++);
      GMS_RETURN_IF_ERROR(r->Words(ColAt(ord, 0), col_words));
      continue;
    }
    uint32_t count = 0;
    GMS_RETURN_IF_ERROR(r->U32(&count));
    if (count > counters_[ord]) {
      return Status::InvalidArgument(
          "wire: forest buffer larger than its update counter");
    }
    // Entry bytes are bounded by what the frame actually carries BEFORE the
    // reserve, so a hostile count cannot command an unbacked allocation.
    if (static_cast<uint64_t>(count) * 24 > r->remaining()) {
      return Status::InvalidArgument("wire: truncated forest sparse buffer");
    }
    seen_entries += count;
    auto& buf = buffers_[ord];
    buf.clear();
    buf.reserve(count);
    u128 prev_key = 0;
    for (uint32_t i = 0; i < count; ++i) {
      u128 key = 0;
      uint64_t value_bits = 0;
      GMS_RETURN_IF_ERROR(r->U128(&key));
      GMS_RETURN_IF_ERROR(r->U64(&value_bits));
      // Canonical form: strictly ascending keys inside the codec domain,
      // no explicit zeros. Anything else cannot have come from Serialize.
      if (i > 0 && key <= prev_key) {
        return Status::InvalidArgument(
            "wire: forest sparse buffer keys out of order");
      }
      if (key >= domain) {
        return Status::InvalidArgument(
            "wire: forest sparse key outside the codec domain");
      }
      if (value_bits == 0) {
        return Status::InvalidArgument(
            "wire: forest sparse entry with zero weight");
      }
      prev_key = key;
      buf.push_back(SparseEntry{key, static_cast<int64_t>(value_bits)});
    }
  }
  if (seen_escalated != escalated || seen_entries != entries) {
    return Status::InvalidArgument(
        "wire: forest hybrid section totals disagree with its columns");
  }
  sparse_remaining_ = num_active_ - static_cast<size_t>(seen_escalated);
  MarkAllDirty();
  return Status::OK();
}

Result<size_t> SkimForestCellSection(std::span<const uint8_t> bytes,
                                     uint64_t num_active, uint64_t rounds,
                                     uint64_t state_words,
                                     uint32_t threshold) {
  wire::Reader r(bytes);
  uint8_t repr = 0;
  GMS_RETURN_IF_ERROR(r.U8(&repr));
  // Column words as u128: every operand below is <= 2^32 after the config
  // range checks, so products of three of them cannot wrap 128 bits.
  if (num_active > (uint64_t{1} << 32) || rounds > (uint64_t{1} << 32) ||
      state_words > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("wire: forest shape out of range");
  }
  const u128 col_words = u128{rounds} * state_words;
  if (repr == 0) {
    if (threshold != 0) {
      return Status::InvalidArgument(
          "wire: dense forest cells under a sparse-threshold config");
    }
    const u128 body = u128{8} * num_active * col_words;
    if (body > r.remaining()) {
      return Status::InvalidArgument("wire: forest payload size mismatch");
    }
    GMS_RETURN_IF_ERROR(r.Skip(static_cast<size_t>(body)));
    return static_cast<size_t>(1 + body);
  }
  if (repr != 1) {
    return Status::InvalidArgument("wire: unknown forest cell repr");
  }
  if (threshold == 0) {
    return Status::InvalidArgument(
        "wire: hybrid forest cells under a dense config");
  }
  // A hybrid frame's size is decoupled from the arena it commands (a few
  // escalated columns can ride a huge (num_active, rounds) shape), so the
  // PR 3 "payload bounds the allocation" rule needs explicit caps here:
  // level_mask_ and dirty_ are REAL vectors of ~num_active * rounds words,
  // and the arena is num_active * rounds * state_words words of lazily
  // mapped virtual space. Anything larger is rejected before construction;
  // Deserialize additionally catches bad_alloc for shapes under the caps.
  if (u128{num_active} * rounds > (u128{1} << 31) ||
      u128{8} * num_active * col_words > (u128{1} << 42)) {
    return Status::InvalidArgument(
        "wire: hybrid forest shape too large for a committed allocation");
  }
  uint64_t escalated = 0, entries = 0;
  GMS_RETURN_IF_ERROR(r.U64(&escalated));
  GMS_RETURN_IF_ERROR(r.U64(&entries));
  if (escalated > num_active) {
    return Status::InvalidArgument(
        "wire: forest escalated count above the active count");
  }
  const uint64_t sparse_cols = num_active - escalated;
  if (u128{entries} > u128{sparse_cols} * threshold) {
    return Status::InvalidArgument(
        "wire: forest sparse entries above capacity");
  }
  // Closed section size: repr + totals + u32 counters + u32 per sparse
  // column + 24-byte entries + raw escalated columns.
  const u128 body = u128{4} * num_active + u128{4} * sparse_cols +
                    u128{24} * entries + u128{8} * escalated * col_words;
  if (body > r.remaining()) {
    return Status::InvalidArgument("wire: truncated forest hybrid section");
  }
  GMS_RETURN_IF_ERROR(r.Skip(static_cast<size_t>(body)));
  return static_cast<size_t>(17 + body);
}

void SpanningForestSketch::Serialize(std::vector<uint8_t>* out) const {
  wire::FrameBuilder fb(wire::FrameType::kSpanningForest, out);
  fb.writer().U64(n_);
  fb.writer().U64(codec_.max_rank());
  fb.writer().U64(seed_);
  // rounds_ is already resolved (never 0), so the reconstruction is exact
  // even when this sketch was built with the rounds=0 default.
  Params resolved = params_;
  resolved.rounds = rounds_;
  WriteForestParams(resolved, &fb.writer());
  std::vector<bool> active(n_);
  for (VertexId v = 0; v < n_; ++v) active[v] = IsActive(v);
  fb.writer().BoolVec(active);
  fb.EndHeader();
  AppendCells(&fb.writer());
  fb.Finish();
}

Result<SpanningForestSketch> SpanningForestSketch::Deserialize(
    std::span<const uint8_t> bytes) {
  auto frame = wire::ParseFrame(bytes, wire::FrameType::kSpanningForest);
  if (!frame.ok()) return frame.status();
  wire::Reader header(frame->header);
  uint64_t n = 0, max_rank = 0, seed = 0;
  Params params;
  std::vector<bool> active;
  GMS_RETURN_IF_ERROR(header.U64(&n));
  GMS_RETURN_IF_ERROR(header.U64(&max_rank));
  GMS_RETURN_IF_ERROR(header.U64(&seed));
  GMS_RETURN_IF_ERROR(ReadForestParams(&header, &params));
  GMS_RETURN_IF_ERROR(header.BoolVec(&active, /*max_size=*/size_t{1} << 32));
  GMS_RETURN_IF_ERROR(header.ExpectEnd());
  if (n < 1 || n > (uint64_t{1} << 32) || max_rank < 2 || max_rank > n ||
      params.rounds < 1 || active.size() != n) {
    return Status::InvalidArgument("wire: forest shape out of range");
  }
  // Shape-implied payload size BEFORE construction: the arena allocation is
  // then bounded by the bytes the caller actually supplied, so a short
  // hostile frame with huge header fields is rejected up front.
  auto words = ForestStateWords(static_cast<size_t>(n),
                                static_cast<size_t>(max_rank), params.config);
  if (!words.ok()) return words.status();
  uint64_t num_active = 0;
  for (bool a : active) num_active += a ? 1 : 0;
  // The section must account for the payload exactly -- and, for hybrid
  // repr, pass the allocation caps -- BEFORE the sketch (and its arena) is
  // constructed.
  auto skim = SkimForestCellSection(frame->payload, num_active,
                                    static_cast<uint64_t>(params.rounds),
                                    *words, params.config.sparse_threshold);
  if (!skim.ok()) return skim.status();
  if (*skim != frame->payload.size()) {
    return Status::InvalidArgument(
        "wire: forest payload size disagrees with the header shape");
  }
  try {
    SpanningForestSketch sketch(static_cast<size_t>(n),
                                static_cast<size_t>(max_rank), seed, params,
                                &active);
    wire::Reader payload(frame->payload);
    GMS_RETURN_IF_ERROR(sketch.ReadCells(&payload));
    GMS_RETURN_IF_ERROR(payload.ExpectEnd());
    return sketch;
  } catch (const std::bad_alloc&) {
    // Hybrid shapes under the skim caps can still exceed what this machine
    // will commit (level_mask_/dirty_ are eager vectors); surface that as a
    // frame error rather than an abort.
    return Status::InvalidArgument(
        "wire: forest shape too large for available memory");
  }
}

size_t SpanningForestSketch::SpaceBytes() const {
  std::vector<uint8_t> frame;
  Serialize(&frame);
  return frame.size();
}

size_t SpanningForestSketch::MemoryBytes() const {
  // The arena's column per active ordinal (not the reserved zero column);
  // what is resident is SlotsUsed() columns.
  return num_active_ * ColumnWords() * sizeof(uint64_t);
}

size_t SpanningForestSketch::CellsPerVertex() const {
  size_t total = 0;
  for (const auto& shape : round_shapes_) total += shape->TotalCells();
  return total;
}

}  // namespace gms
