// The AGM spanning-graph sketch (Theorem 2 for graphs, Theorem 13 for
// hypergraphs): every vertex keeps one L0-sampler of its incidence vector
// per Borůvka round; summing the samplers of a component yields a sampler
// of the component's cut vector (by linearity and the Section 4.1
// encoding), so each round contracts every component along a sampled
// crossing hyperedge. O(log n) rounds connect everything whp.
//
// The sketch is vertex-based in the paper's sense: each vertex's state is a
// linear function of the hyperedges incident to that vertex only, which is
// what the simultaneous-communication protocol in comm/ relies on.
#ifndef GMS_CONNECTIVITY_SPANNING_FOREST_SKETCH_H_
#define GMS_CONNECTIVITY_SPANNING_FOREST_SKETCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/edge_codec.h"
#include "graph/hypergraph.h"
#include "sketch/l0_sampler.h"
#include "sketch/sketch_config.h"
#include "stream/stream.h"
#include "stream/vertex_update.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/zeroed_buffer.h"

namespace gms {

class UnionFind;

/// Instrumentation from one spanning-graph extraction (or, accumulated, a
/// whole Query over R forests). Every counter is a deterministic
/// function of the sketch state -- independent of thread count -- except
/// summed_words, which measures the work the chosen extraction PATH did
/// (the incremental path's whole point is that it is much smaller).
struct ExtractStats {
  /// Borůvka rounds actually executed (<= the sketch's round budget).
  int rounds_run = 0;
  /// True if the loop stopped because no component merged AND every
  /// remaining component's sketch was identically zero (no later round
  /// can help: the zero measurement is zero in every round's column).
  bool early_exit = false;
  /// Words field-added or copied into component accumulators.
  uint64_t summed_words = 0;
  /// Component sample calls (one per multi-candidate group per round).
  uint64_t sample_attempts = 0;
  /// s-sparse decode attempts inside those sample calls.
  uint64_t decode_attempts = 0;
  /// Crossing hyperedges accepted into the spanning graph.
  uint64_t edges_found = 0;
  /// Forests answered by the sparse-exact fast path (ExtractSparseExact):
  /// every column still in the hybrid sparse phase, so the exact pre-round
  /// IS the whole extraction and the Borůvka rounds were skipped entirely.
  uint64_t sparse_exact_forests = 0;
  /// Component-group count per executed round.
  std::vector<uint64_t> groups_per_round;
};

/// Element-wise accumulation (containers extracting R forests sum their
/// per-forest stats in sketch order; integer sums, so deterministic).
void AccumulateExtractStats(const ExtractStats& in, ExtractStats* out);

/// The unified non-destructive query surface (DESIGN.md Section 13): every
/// sketch type answers `Query()` on a CONST sketch with one of these --
/// Status, the typed payload, and the extraction-engine counters, all
/// returned by value. Nothing in the sketch mutates, so queries can run
/// against a frozen snapshot while another copy keeps ingesting (the
/// serving layer in src/serve/ is built on exactly this property).
/// Replaced the old Finalize(ExtractStats*)-then-poke-accessors protocol,
/// which is gone.
template <typename T>
class QueryResult {
 public:
  /// The payload type, for generic wrappers (the serving engine deduces
  /// its snapshot payload from `decltype(sketch.Query())::value_type`).
  using value_type = T;

  /// An error result (extraction failed); CHECK-fails on an OK status.
  explicit QueryResult(Status status) : status_(std::move(status)) {
    GMS_CHECK_MSG(!status_.ok(), "QueryResult: OK status requires a payload");
  }
  QueryResult(T value, ExtractStats stats = ExtractStats())
      : value_(std::move(value)), stats_(std::move(stats)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const ExtractStats& stats() const { return stats_; }

  const T& value() const& {
    GMS_CHECK_MSG(ok(), "QueryResult::value() on an error result");
    return *value_;
  }
  T&& value() && {
    GMS_CHECK_MSG(ok(), "QueryResult::value() on an error result");
    return *std::move(value_);
  }

 private:
  Status status_ = Status::OK();
  std::optional<T> value_;
  ExtractStats stats_;
};

struct ForestSketchParams {
  SketchConfig config = SketchConfig::Default();
  /// Borůvka rounds; 0 means ceil(log2 n) + config.extra_boruvka_rounds.
  int rounds = 0;
  /// Worker threads for batched Process and for the per-round component
  /// summation in ExtractSpanningGraph (see util/parallel.h; outputs are
  /// bit-identical for every setting).
  EngineParams engine;

  class Builder;
};

/// Fluent construction: ForestSketchParams::Builder().Rounds(12)
///     .Engine(EngineParams::Builder().Threads(8).Build()).Build().
/// Build() validates the sketch-shape knobs here and funnels the engine
/// knobs through ValidateEngineParams (the single validator every params
/// builder shares).
class ForestSketchParams::Builder {
 public:
  Builder() = default;
  /// Copy-with: seed the builder from existing params, override a few
  /// knobs, Build(). (Re-)validates everything, including untouched fields.
  explicit Builder(const ForestSketchParams& from) : p_(from) {}

  Builder& Config(const SketchConfig& config) {
    p_.config = config;
    return *this;
  }
  Builder& Rounds(int rounds) {
    p_.rounds = rounds;
    return *this;
  }
  Builder& Engine(const EngineParams& engine) {
    p_.engine = engine;
    return *this;
  }
  /// Shortcuts into the embedded engine (the two knobs every thread-sweep
  /// test and bench overrides).
  Builder& Threads(size_t threads) {
    p_.engine.threads = threads;
    return *this;
  }
  Builder& Mode(IngestMode mode) {
    p_.engine.mode = mode;
    return *this;
  }
  ForestSketchParams Build() const {
    GMS_CHECK_MSG(p_.rounds >= 0,
                  "ForestSketchParams: rounds must be >= 0 (0 = auto)");
    GMS_CHECK_MSG(p_.config.sparse_capacity >= 1,
                  "ForestSketchParams: sparse_capacity must be >= 1");
    GMS_CHECK_MSG(p_.config.rows >= 2,
                  "ForestSketchParams: s-sparse recovery needs >= 2 rows");
    GMS_CHECK_MSG(p_.config.buckets_per_capacity >= 1,
                  "ForestSketchParams: buckets_per_capacity must be >= 1");
    GMS_CHECK_MSG(p_.config.extra_boruvka_rounds >= 0,
                  "ForestSketchParams: extra_boruvka_rounds must be >= 0");
    ValidateEngineParams(p_.engine);
    return p_;
  }

 private:
  ForestSketchParams p_;
};

/// Wire helpers: forest params are part of every forest-based frame header.
/// Engine knobs (threads) are LOCAL execution policy, not measurement
/// shape, so they do not travel; deserialized sketches come back serial.
void WriteForestParams(const ForestSketchParams& params, wire::Writer* w);
Status ReadForestParams(wire::Reader* r, ForestSketchParams* params);

/// Exact cell words per (active vertex, round) of a forest-based sketch
/// over (n, max_rank, config), computed without constructing anything:
/// EdgeCodec::DomainSizeFor -> L0StateWords. Deserializers multiply this
/// into a shape-implied payload size and reject mismatched frames BEFORE
/// allocating, so a tiny hostile frame cannot command a huge allocation.
/// InvalidArgument for (n, max_rank) whose domain exceeds 126 bits.
Result<uint64_t> ForestStateWords(size_t n, size_t max_rank,
                                  const SketchConfig& config);

/// Size-validate ONE serialized forest cell section (the unit AppendCells
/// writes) at the head of `bytes` WITHOUT allocating anything, and return
/// its exact byte length. A v2 cell section is self-sizing: a repr byte
/// (0 = raw arena words, only legal when sparse_threshold == 0; 1 = hybrid)
/// and, for hybrid, escalated-column and buffered-entry totals that pin the
/// section size to a closed formula. Containers skim each sub-sketch's
/// section in turn and require the sum to equal the payload BEFORE
/// constructing, preserving the PR 3 rule that a tiny hostile frame cannot
/// command a huge committed allocation.
Result<size_t> SkimForestCellSection(std::span<const uint8_t> bytes,
                                     uint64_t num_active, uint64_t rounds,
                                     uint64_t state_words, uint32_t threshold);

class SpanningForestSketch {
 public:
  using Params = ForestSketchParams;

  /// Sketch for hypergraphs on n vertices with hyperedge cardinality up to
  /// max_rank (use 2 for graphs: the domain, and hence the number of
  /// subsampling levels, shrinks accordingly). If `active` is non-null,
  /// state is allocated only for vertices with active[v] = true and the
  /// decoded graph treats inactive vertices as absent (used by the
  /// vertex-subsampling construction of Section 3).
  SpanningForestSketch(size_t n, size_t max_rank, uint64_t seed,
                       const Params& params = Params(),
                       const std::vector<bool>* active = nullptr);

  size_t n() const { return n_; }
  size_t max_rank() const { return codec_.max_rank(); }
  int rounds() const { return rounds_; }
  uint64_t seed() const { return seed_; }
  bool IsActive(VertexId v) const { return state_index_[v] >= 0; }

  /// Hybrid sparse/dense phase observers. Threshold 0 disables the sparse
  /// phase (every vertex is dense from the first update, the pre-hybrid
  /// behaviour); otherwise a vertex buffers its first `sparse_threshold`
  /// updates exactly and escalates on the next one.
  uint32_t sparse_threshold() const { return params_.config.sparse_threshold; }
  bool VertexEscalated(VertexId v) const {
    GMS_CHECK_MSG(IsActive(v), "phase query on an inactive vertex");
    return Escalated(static_cast<size_t>(state_index_[v]));
  }

  /// Linear update: insert (delta=+1) or delete (delta=-1) hyperedge e.
  /// CHECK-fails if any endpoint is inactive (callers filter first).
  void Update(const Hyperedge& e, int delta);

  /// As Update, with codec().Encode(e) precomputed by the caller. Containers
  /// holding many sketches over the same (n, max_rank) domain encode each
  /// stream update once and fan it out to every sketch with this.
  void UpdateEncoded(const Hyperedge& e, u128 index, int delta);

  /// As UpdateEncoded with the coordinate fully prepared (folded + exponent
  /// reduced). The preparation is shape-independent, so containers fanning
  /// one update out to many sketches prepare once for all of them.
  void UpdatePrepared(const Hyperedge& e, const PreparedCoord& pc, int delta);

  /// Batched ingestion. Column mode encodes each update once, then shards
  /// the Borůvka rounds (independent sketch columns) across the workers;
  /// sharded-merge mode slices the stream into private clones and
  /// tree-merges (see util/parallel.h). Bit-identical to updating serially
  /// in order either way.
  void Process(std::span<const StreamUpdate> updates);

  /// Prefetch the cells UpdatePrepared(e, pc, .) will touch. Batch ingest
  /// paths call this a few updates ahead: the arena is far larger than
  /// cache and updates land at random vertices, so without lookahead each
  /// update stalls on compulsory misses the out-of-order window cannot
  /// reach. Purely a hint; no state changes.
  void PrefetchPrepared(const Hyperedge& e, const PreparedCoord& pc) const {
    for (int t = 0; t < rounds_; ++t) PrefetchRound(t, e, pc);
  }

  /// Ingest a whole stream.
  void Process(const DynamicStream& stream);

  /// Update ONLY vertex v's measurement for hyperedge e (v must be in e).
  /// This is the per-player operation of the simultaneous-communication
  /// model: player v's message depends on v's incident edges alone.
  /// Applying UpdateLocal for every endpoint of e equals Update(e, delta).
  void UpdateLocal(VertexId v, const Hyperedge& e, int delta);

  /// Ingest-plane batch apply (stream/ingest_plane.h): replay a gutter of
  /// prepared per-endpoint updates, all targeting vertex v, over v's
  /// contiguous [rounds x level segments] block. Equals calling
  /// UpdateLocal once per entry (the entries carry the prepared coordinate
  /// and the incidence coefficient x delta), and hence -- summed over all
  /// endpoints' batches -- equals the serial Update path bit for bit.
  void ApplyUpdateBatch(VertexId v, std::span<const VertexUpdate> batch);

  /// Ingest-plane routing (stream/ingest_plane.h): a plain forest sketch
  /// has a single sub-sketch family, so every update routes (mask 1).
  /// Endpoint-activity enforcement stays in ApplyUpdateBatch, matching the
  /// serial path's CHECK.
  uint64_t PlaneRouteMask(const Hyperedge&) const { return 1; }

  /// Subtract a known subgraph in place (linearity). Queries never need
  /// this: they decode G - peeled through the `peeled` argument below
  /// without touching the sketch.
  void RemoveHyperedges(const std::vector<Hyperedge>& edges);

  /// Decode a spanning graph of the sketched hypergraph, restricted to
  /// active vertices. The result has the same connected components as the
  /// input whp; per-round sampling failures are tolerated (extra rounds
  /// absorb them) and surface only as a disconnected-looking result.
  ///
  /// Incremental decode: by linearity a component's sketch is the SUM of
  /// its members' sketches, and that sum evolves only when UnionFind unites
  /// components -- so instead of re-summing every member from scratch each
  /// round, per-component accumulators persist across rounds and are
  /// field-MERGED when components unite. Round 0 components are singletons
  /// and sample directly from the arena (no accumulator at all);
  /// accumulators cover fixed windows of kAccWindowRounds future rounds so
  /// merges are whole-block additions. Per-component work fans out across
  /// `threads` workers (0 = the engine.threads this sketch was built
  /// with); all arithmetic is exact field addition and every serial
  /// decision (block ids, union order) runs in group order, so the decode
  /// is bit-identical for every thread count. The loop exits early once no
  /// component merged and every remaining component's sketch is zero.
  ///
  /// Peeled decode: a nonempty `peeled` multiset decodes the spanning graph
  /// of G - peeled, i.e. of the sketch after RemoveHyperedges(peeled),
  /// WITHOUT copying or mutating the sketch. Extraction builds a per-call
  /// overlay of the peeled edges' negated incidence entries by active
  /// ordinal and adds a vertex's entries wherever it reads that vertex's
  /// rows; each column takes the hybrid phase RemoveHyperedges would have
  /// left it in. The result and every decision counter equal those of
  /// decoding a RemoveHyperedges'd copy (only summed_words may differ).
  /// Every endpoint of a peeled edge must be active.
  Result<Hypergraph> ExtractSpanningGraph(
      size_t threads = 0, ExtractStats* stats = nullptr,
      std::span<const Hyperedge> peeled = {}) const;

  /// True iff every active vertex is still in the hybrid sparse-exact
  /// phase (no column escalated). The arena is then identically zero and
  /// the buffers carry the WHOLE measurement exactly -- which makes the
  /// sparse-exact extraction below valid.
  bool AllSparse() const {
    return Hybrid() && sparse_remaining_ == num_active_;
  }

  /// Exact extraction for an all-sparse sketch: run ONLY the hybrid exact
  /// pre-round (buffers fed to Borůvka verbatim) and skip every sampling
  /// round. Bit-identical to ExtractSpanningGraph, because on an
  /// all-sparse sketch the pre-round already decides everything: a
  /// net-nonzero hyperedge is buffered at EVERY endpoint (per-endpoint
  /// cancellation is coefficient-consistent), so the pre-round's
  /// components are the true connected components, no crossing hyperedge
  /// survives it, and each component's summed round sketch is identically
  /// zero (incidence coefficients cancel within a component) -- the
  /// skipped rounds could not have added an edge. CHECK-fails unless
  /// AllSparse(); stats report the skip via sparse_exact_forests = 1 with
  /// zero rounds_run / sample_attempts. Containers decoding R subsample
  /// forests take this path per all-sparse forest (the common case under
  /// aggressive subsampling), skipping whole extraction loops.
  Result<Hypergraph> ExtractSparseExact(ExtractStats* stats = nullptr) const;

  /// The unified non-destructive query: the decoded spanning graph plus the
  /// extraction counters in one value (a thin wrapper over
  /// ExtractSpanningGraph; same determinism and thread-count guarantees,
  /// same `peeled` semantics).
  QueryResult<Hypergraph> Query(size_t threads = 0,
                                std::span<const Hyperedge> peeled = {}) const;

  /// Serving hook (src/serve/): has any measurement state changed since
  /// construction / the last Clear()? True iff some arena column was
  /// touched or some sparse buffer holds entries. A superset check in the
  /// same sense as the dirty bitmap: net-zero DENSE streams still report
  /// dirty (their columns were written), but an untouched or net-zero
  /// SPARSE delta reports clean -- either way, a clean delta's merge
  /// cannot change any extraction, which is what cache validity needs.
  bool SnapshotDirty() const;

  /// The retained reference decoder: re-sums every component from its
  /// members' arena rows each round (the pre-incremental algorithm), with
  /// the same sampling, validation, union order, and early-exit rule.
  /// Produces a bit-identical Hypergraph to ExtractSpanningGraph (the
  /// extraction differential suite asserts this); kept as the oracle for
  /// the incremental path and for the bench's old-vs-new row.
  Result<Hypergraph> ExtractSpanningGraphReference(
      size_t threads = 0, ExtractStats* stats = nullptr) const;

  /// True iff the other sketch carries bit-identical per-vertex state
  /// (same n, rounds, and measurement values; for the determinism suite).
  /// The sparse buffers ARE measurement (the exact phase's state); the
  /// update counters are NOT -- they count updates, so a net-zero stream
  /// would otherwise stop equalling a fresh sketch. The determinism suite
  /// pins the counters at serialized-frame strength instead.
  bool StateEquals(const SpanningForestSketch& other) const {
    return n_ == other.n_ && rounds_ == other.rounds_ &&
           state_index_ == other.state_index_ && arena_ == other.arena_ &&
           buffers_ == other.buffers_;
  }

  /// Cell-wise field addition of another sketch of the SAME measurement:
  /// equal seed, n, max_rank, rounds, and config. The other sketch's active
  /// set must be a SUBSET of this one's (equal sets are the stream-slice
  /// case, e.g. a serving epoch's delta; a strict subset is the referee
  /// merging per-player single-vertex states into a full sketch). After a
  /// successful merge this sketch represents the multiset union of both
  /// streams. Mismatches return InvalidArgument and leave the state
  /// untouched.
  ///
  /// Sparse-aware: only the (vertex, round) columns the other sketch's
  /// dirty bitmap marks as touched are added. An untouched column is still
  /// the zero measurement (adding it would be the field identity), so the
  /// result is bit-identical to a dense merge -- but a clone that ingested
  /// a short stream slice merges in time proportional to the cells its
  /// slice actually hit, not the arena size.
  Status MergeFrom(const SpanningForestSketch& other);

  /// A sketch of the SAME measurement (same seed, shapes shared, same
  /// active set) with zero cells and a clean dirty bitmap -- e.g. a
  /// serving epoch's open delta. Allocates the empty arena directly
  /// (lazily-zeroed pages); never copies this sketch's cells.
  SpanningForestSketch CloneEmpty() const {
    return SpanningForestSketch(*this, CloneEmptyTag{});
  }

  /// Zero every cell (the empty-stream measurement); shapes/active set stay.
  void Clear();

  /// Append one wire frame (wire::FrameType::kSpanningForest) to *out. The
  /// header carries seed, n, max_rank, rounds, config, and the active
  /// bitmap; the payload is the raw SoA arena.
  void Serialize(std::vector<uint8_t>* out) const;

  /// Parse a frame produced by Serialize. Truncation, corruption, and shape
  /// mismatches return Status; never aborts.
  static Result<SpanningForestSketch> Deserialize(
      std::span<const uint8_t> bytes);

  /// Measured serialized-frame size in bytes (bytes on the wire).
  size_t SpaceBytes() const;

  /// Raw cell words for COMPOSITE frames (a container sketch writes one
  /// frame whose payload concatenates its sub-sketches' cells; the
  /// container header's seed reconstructs every sub-shape).
  void AppendCells(wire::Writer* w) const;
  Status ReadCells(wire::Reader* r);

  /// Total bytes of per-vertex sketch state (the paper's space measure).
  size_t MemoryBytes() const;

  /// Number of linear-measurement cells per vertex (sketch "size").
  size_t CellsPerVertex() const;

  const EdgeCodec& codec() const { return codec_; }

 private:
  /// Shares every shape/index member with `other` but allocates a fresh
  /// zero arena and clean dirty bitmap (see CloneEmpty).
  SpanningForestSketch(const SpanningForestSketch& other, CloneEmptyTag);

  /// Apply hyperedge e (prepared coordinate) to round t's column only.
  /// `endpoint_dense` (parallel to e's positions) restricts the write to
  /// the flagged endpoints -- the hybrid column ingest absorbs the sparse
  /// endpoints in a serial pre-pass and fans only the dense ones out here.
  void ApplyToRound(int t, const Hyperedge& e, const PreparedCoord& pc,
                    int delta, const char* endpoint_dense = nullptr);

  /// Hybrid phase predicates. A sketch built with sparse_threshold == 0
  /// allocates no counters at all and reports every ordinal escalated.
  bool Hybrid() const { return !counters_.empty(); }
  bool Escalated(size_t ord) const {
    return counters_.empty() ||
           counters_[ord] > params_.config.sparse_threshold;
  }

  /// The dense single-endpoint apply: add coeff * coordinate pc to every
  /// round column of ordinal `ord`. Bit-identical to ApplyToRound's
  /// per-endpoint write (every cell is an exact field value, so the
  /// coefficient-times-unit product equals the staged per-endpoint form).
  void ApplyLocalOrd(size_t ord, const PreparedCoord& pc, int64_t coeff);

  /// Sparse phase: record one endpoint update (saturating counter bump +
  /// sorted buffer insert with net-zero cancellation). Returns false when
  /// THIS update crossed the threshold: the buffer has been replayed into
  /// the arena (EscalateOrdinal) and the caller must apply the current
  /// update densely.
  bool AbsorbUpdate(size_t ord, const PreparedCoord& pc, int64_t coeff);

  /// Cross ordinal `ord` into the dense phase: replay its buffered updates
  /// through the SoA kernel into the arena -- bit-identical to a
  /// dense-from-the-start vertex because each cell is an exact field value
  /// and a key's net weight contributes exactly the sum of its individual
  /// updates -- then mark the touched columns and release the buffer.
  void EscalateOrdinal(size_t ord);

  /// Field-add coeff * coordinate pc into `dst`, an accumulator laid out
  /// like the arena's per-vertex rows [w0, w1) (stride state_words_), and
  /// OR the exact level bits into masks[r - w0].
  void AddCoordRounds(const PreparedCoord& pc, int64_t coeff, int w0, int w1,
                      uint64_t* dst, uint64_t* masks) const;

  /// AddCoordRounds for every entry of an exact sparse buffer. Extraction
  /// gives sparse members of multi-vertex components their exact
  /// contribution this way; escalation replays into the arena with it.
  void ReplayEntries(std::span<const SparseEntry> entries, int w0, int w1,
                     uint64_t* dst, uint64_t* masks) const;

  /// Per-call view of G - peeled for the peeled decode (defined in the .cc;
  /// built by MakePeelOverlay, never stored on the sketch).
  struct PeelOverlay;
  PeelOverlay MakePeelOverlay(std::span<const Hyperedge> peeled) const;

  /// The hybrid phase RemoveHyperedges(peeled) would leave ord in: escalated
  /// iff already escalated or its count c plus its d overlay entries
  /// exceeds the threshold. `ov` null means no peel (the sketch's phase).
  bool ResidualEscalated(const PeelOverlay* ov, size_t ord) const;

  /// A residual-sparse ordinal's exact buffer: the key-sorted,
  /// zero-cancelled list SparseBufferAdd would leave after absorbing the
  /// overlay entries (the stored buffer when ord has none).
  std::span<const SparseEntry> ResidualBuffer(const PeelOverlay* ov,
                                              size_t ord) const;

  /// Field-add ord's residual measurement for rounds [w0, w1) into `dst`
  /// (stride state_words_) and OR its level bits into masks[r - w0]: the
  /// residual buffer replay for a residual-sparse ordinal; otherwise the
  /// arena rows (escalated) or buffer replay (escalated only by the peel),
  /// plus ord's overlay entries. Every incremental-path reader of member
  /// rows goes through this. Returns the arena words added.
  uint64_t AddResidualRows(const PeelOverlay* ov, size_t ord, int w0, int w1,
                           uint64_t* dst, uint64_t* masks) const;

  /// Prefetch round t's target cells for hyperedge e (see PrefetchPrepared).
  void PrefetchRound(int t, const Hyperedge& e, const PreparedCoord& pc) const;

  /// The column-sharded batched ingest (encode once, shard the Borůvka
  /// rounds across workers). Process() dispatches here unless sharded
  /// merge applies; RemoveHyperedges batches its subtraction through it.
  void ProcessColumns(std::span<const StreamUpdate> updates);

  /// Shared Borůvka driver: incremental or reference accumulation. `ov`
  /// (incremental only) decodes the residual G - peeled.
  Result<Hypergraph> ExtractImpl(size_t threads, ExtractStats* stats,
                                 bool incremental,
                                 const PeelOverlay* ov = nullptr) const;

  /// The hybrid exact pre-round shared by ExtractImpl and
  /// ExtractSparseExact: feed every (residual-)sparse vertex's buffered
  /// hyperedges into the union-find verbatim (active-vertex order, key
  /// order), appending each merging edge to *result. Returns the edges
  /// added.
  uint64_t SparsePreRound(UnionFind* uf, Hypergraph* result,
                          const PeelOverlay* ov = nullptr) const;

  /// Sample round t's accumulated state `src` (whose nonzero levels are
  /// covered by `src_mask`; pass all-ones for a dense scan) for component
  /// group g and validate it into a crossing hyperedge (value magnitude,
  /// active endpoints, crosses the boundary). Returns true and fills *out
  /// on success; *probe always reflects the attempt.
  bool SampleGroupEdge(int t, const uint64_t* src, uint64_t src_mask,
                       const std::vector<int64_t>& comp, size_t g,
                       Hyperedge* out, L0SampleProbe* probe) const;

  /// Mark vertex v's round-t column as touched since the last Clear().
  /// Layout is ROUND-major ((t, active ordinal), each round padded to a
  /// word boundary): the column-sharded ingest gives each worker a block
  /// of rounds, so workers never read-modify-write a shared bitmap word.
  void MarkDirty(int t, VertexId v) {
    MarkDirtyOrd(t, static_cast<size_t>(state_index_[v]));
  }
  void MarkDirtyOrd(int t, size_t ord) {
    dirty_[static_cast<size_t>(t) * dirty_words_per_round_ + (ord >> 6)] |=
        uint64_t{1} << (ord & 63);
  }
  bool IsDirty(int t, size_t ord) const {
    return (dirty_[static_cast<size_t>(t) * dirty_words_per_round_ +
                   (ord >> 6)] >>
            (ord & 63)) &
           1;
  }
  /// Conservatively mark every column touched and every level mask full
  /// (deserialized payloads carry neither; correctness only needs the
  /// summaries to be supersets of the nonzero cells).
  void MarkAllDirty();

  /// Record that an update routed to `level` of vertex v's round-t column
  /// (LevelMaskBit semantics; see sketch/l0_sampler.h). Extraction and
  /// MergeFrom then add/sample only the marked level segments -- for a
  /// low-degree vertex that is ~log(degree) of the ~log(domain) levels,
  /// which is where the finalize path's bandwidth goes.
  void MarkLevel(int t, VertexId v, int level) {
    MarkLevelOrd(t, static_cast<size_t>(state_index_[v]), level);
  }
  void MarkLevelOrd(int t, size_t ord, int level) {
    level_mask_[ord * static_cast<size_t>(rounds_) + static_cast<size_t>(t)] |=
        LevelMaskBit(level);
  }
  uint64_t ColumnLevelMask(size_t ord, int t) const {
    return level_mask_[ord * static_cast<size_t>(rounds_) +
                       static_cast<size_t>(t)];
  }

  /// Start of vertex v's round-t sampler in the arena (v must be active).
  /// The address is pure arithmetic on the dense index -- no pointer chase
  /// through per-vertex objects -- so random-vertex updates expose every
  /// cache miss to the out-of-order window instead of serializing a
  /// state -> level-vector -> cell-array dependency chain.
  uint64_t* ArenaAt(VertexId v, int t) {
    return ColAt(static_cast<size_t>(state_index_[v]), t);
  }
  const uint64_t* ArenaAt(VertexId v, int t) const {
    return const_cast<SpanningForestSketch*>(this)->ArenaAt(v, t);
  }
  uint64_t* ColAt(size_t ord, int t) {
    return arena_.data() +
           (ord * static_cast<size_t>(rounds_) + static_cast<size_t>(t)) *
               state_words_;
  }
  const uint64_t* ColAt(size_t ord, int t) const {
    return const_cast<SpanningForestSketch*>(this)->ColAt(ord, t);
  }

  size_t n_;
  int rounds_;
  uint64_t seed_;
  Params params_;
  EdgeCodec codec_;
  // Shapes are immutable and shared between copies of the sketch (copies
  // carry the same measurement, which is exactly what linearity requires).
  std::vector<std::shared_ptr<const L0Shape>> round_shapes_;
  // Dense ordinal of each active vertex, -1 if inactive.
  std::vector<int64_t> state_index_;
  size_t num_active_ = 0;
  // Every active vertex's sampler state for every round, in ONE flat
  // allocation: [active ordinal][round][level segment] with rounds
  // contiguous per vertex. state_words_ = words per (vertex, round) = the
  // shared L0Shape::TotalWords() (all rounds have identical geometry).
  size_t state_words_ = 0;
  ZeroedBuffer arena_;
  // Transient touched-column bitmap (round-major; see MarkDirty): which
  // (vertex, round) columns have been updated since construction/Clear().
  // A superset of the nonzero columns, never part of the measurement: it
  // does not travel on the wire (frames are unchanged from the PR 3
  // format; deserialization marks everything dirty) and does not affect
  // StateEquals.
  size_t dirty_words_per_round_ = 0;
  std::vector<uint64_t> dirty_;
  // Transient per-(vertex, round) nonzero-LEVEL summary (vertex-major,
  // [ord * rounds + t]; LevelMaskBit semantics). Like dirty_: a superset
  // of the truly-nonzero segments, never on the wire, ignored by
  // StateEquals; deserialization conservatively fills it with all-ones.
  std::vector<uint64_t> level_mask_;
  // Hybrid sparse phase (DESIGN.md Section 12; both vectors stay EMPTY when
  // config.sparse_threshold == 0, so the dense configuration pays nothing).
  // counters_[ord] counts ord's updates, saturating at threshold + 1:
  // min(a + b, threshold + 1) is associative and commutative, so merged
  // counters equal exactly the serial count, and ord is escalated iff
  // its counter exceeds the threshold. Counters and buffers travel on the
  // wire (the phase must survive a round trip or later merges would
  // escalate at different points than the original), but counters are NOT
  // part of StateEquals (see there).
  std::vector<uint32_t> counters_;
  // Per-ordinal exact signed-adjacency buffer: encoded update key + net
  // int64 weight, sorted by key, an entry erased the moment its weight
  // cancels to zero. Escalated ordinals keep an empty vector.
  std::vector<std::vector<SparseEntry>> buffers_;
  // Active ordinals still in the sparse phase. 0 sends every ingest path
  // down the pre-hybrid dense branch (one predictable branch on the hot
  // path).
  size_t sparse_remaining_ = 0;
};

}  // namespace gms

#endif  // GMS_CONNECTIVITY_SPANNING_FOREST_SKETCH_H_
