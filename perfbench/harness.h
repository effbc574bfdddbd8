// Shared pieces of the end-to-end benchmark: run options, the report every
// workload fills, order statistics, process RSS, the chunked GMSB decoder,
// and the adapters through which the harness reaches the library.
//
// Adapters: every call from a workload into a library entry point goes
// through one function below (or through WireClient for server ops), so an
// API change touches one adapter, not three workloads.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/approx_min_cut.h"
#include "apps/two_edge_connect.h"
#include "serve/serve_protocol.h"
#include "serve/sketch_server.h"
#include "stream/ingest_plane.h"
#include "testkit/stream_spec.h"
#include "trace.h"
#include "workload/binary_stream.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Full size is the benchmark proper; reduced runs every workload in
/// seconds with every check and oracle on (the benchmark's own tests).
enum class Size { kFull, kReduced };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string file;   // the GMSB stream to replay
  std::string spans;  // traced runs: where the spans are written
};

/// What a workload hands back. Metric names and units must match
/// BENCHMARK.json; run.py checks that every declared end-to-end metric is
/// present.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  uint64_t attempted = 0;  // answers attempted
  uint64_t failed = 0;     // refusals + answers that disagree with an oracle
  bool checks_ok = true;   // replay/payload self-checks
  std::string phase;       // the sketch regime the workload ran
  size_t n = 0;
  uint64_t updates = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // human-readable lines, printed first

  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) {
    checks_ok = false;
    notes.push_back("CHECK FAILED: " + std::move(why));
  }
};

/// Aborts a run without a result: a phase guard found the workload outside
/// the regime it names, or its input could not be read. main.cc catches it
/// and exits nonzero.
struct RunAborted {
  std::string what;
};
inline void Guard(bool ok, const std::string& what) {
  if (!ok) throw RunAborted{what};
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Mean of the middle half of the samples (all of them below four). Robust
/// to the slowest and fastest quarter like the median, but it moves
/// smoothly when samples fall into two modes, where the median jumps from
/// one mode to the other. Empty input gives 0.
inline double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// "[a, b, ...]" with 4 significant digits, for the human-readable report.
inline std::string List(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

/// Process high-water RSS in MiB (getrusage reports KiB on Linux).
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Workload input.

inline constexpr size_t kDecodeChunk = 2048;

/// Decode records [begin, min(begin + kDecodeChunk, limit)) of `file` into
/// *out, reusing its storage. Returns the count decoded.
inline size_t DecodeChunk(const gms::workload::BinaryFileStream& file,
                          uint64_t begin, uint64_t limit,
                          std::vector<gms::StreamUpdate>* out) {
  const uint64_t end = std::min<uint64_t>(limit, begin + kDecodeChunk);
  out->resize(static_cast<size_t>(end - begin));
  for (uint64_t j = begin; j < end; ++j) {
    file.ReadRecord(j, &(*out)[static_cast<size_t>(j - begin)]);
  }
  return out->size();
}

/// Adapter: open + validate (mmap, checksum, records) a GMSB file.
inline gms::workload::BinaryFileStream OpenStream(const std::string& path) {
  auto file = gms::workload::BinaryFileStream::Open(path);
  if (!file.ok()) throw RunAborted{"cannot open " + path};
  return std::move(file).value();
}

/// The final graph of the stream (oracle input; off the clock).
inline gms::Hypergraph FinalGraph(
    const gms::workload::BinaryFileStream& file) {
  return file.ReadAll().Materialize(file.n());
}

// ---------------------------------------------------------------------------
// Adapters: library entry points.

/// Wire round trip: EncodeServeRequest -> HandleFrame -> DecodeServeResponse.
/// An undecodable response comes back as a kInternal refusal.
class WireClient {
 public:
  explicit WireClient(gms::serve::SketchServer* server) : server_(server) {}

  gms::serve::ServeResponse Call(const gms::serve::ServeRequest& req) {
    request_.clear();
    response_.clear();
    gms::serve::EncodeServeRequest(req, &request_);
    server_->HandleFrame(request_, &response_);
    auto resp = gms::serve::DecodeServeResponse(response_);
    if (!resp.ok()) {
      gms::serve::ServeResponse bad;
      bad.op = req.op;
      bad.code = gms::StatusCode::kInternal;
      return bad;
    }
    return std::move(resp).value();
  }

 private:
  gms::serve::SketchServer* server_;
  std::vector<uint8_t> request_;
  std::vector<uint8_t> response_;
};

inline gms::serve::ServeRequest Request(gms::serve::ServeOp op, uint64_t u = 0,
                                        uint64_t v = 0) {
  gms::serve::ServeRequest req;
  req.op = op;
  req.u = u;
  req.v = v;
  return req;
}

inline gms::QueryResult<gms::apps::TwoEdgeConnectAnswer> TwoEdgeQuery(
    const gms::apps::TwoEdgeConnect& app) {
  return app.Query();
}

inline gms::QueryResult<gms::apps::MinCutEstimate> MinCutQuery(
    const gms::apps::ApproxMinCut& app) {
  return app.Query();
}

/// Serial shared-plane ingest of one chunk into `consumers` (the path
/// SketchServer::Ingest and the apps take at threads = 1). Returns false
/// when some consumer could not share the plane (its chunk is skipped).
template <typename... Sketch>
bool PlaneProcess(gms::IngestPlane* plane,
                  std::span<const gms::StreamUpdate> chunk,
                  Sketch*... consumers) {
  plane->Reset();
  if (!(plane->Add(consumers) && ...)) return false;
  plane->Process(chunk);
  return true;
}

/// Encode + PrepareCoord alone over a chunk: the prepare share of the
/// plane's work. Returns a checksum so the loop is not optimized away.
uint64_t PrepareOnly(const gms::EdgeCodec& codec,
                     std::span<const gms::StreamUpdate> chunk);

/// Keep a computed value observable so the loop producing it is not
/// optimized away.
inline void KeepAlive(uint64_t value) { asm volatile("" : : "r"(value)); }

/// Fraction of vertices whose column escalated to the dense L0 arena.
double DenseColumnFrac(const gms::SpanningForestSketch& sketch);

// ---------------------------------------------------------------------------
// Shared run structure.

/// Whether pass `p` (0-based) runs: always the first, then while the run
/// is inside its --seconds. Traced runs alternate untraced (even) and
/// traced (odd) passes and run at least one of each, so their difference
/// reports the tracing overhead.
bool MorePasses(const Options& opt, Clock::time_point run_start, size_t p);

/// The four end-to-end metrics, plus a human-readable line listing the
/// samples. answer_s is `answer_s`, which the workload reduces from
/// `answer_samples` itself.
///
/// Other tenants of a shared host load it in bursts of 0.1-1.5 s that slow
/// a sample by up to 1.7x, in thread CPU time as well as wall time, and a
/// run's share of burst time varies from run to run. A sample much shorter
/// than a burst (set-up takes 10-30 ms) lands wholly in or out of one, so
/// its median or interquartile mean follows that share; set-up, like any
/// such time, reports the run's fastest sample, since interference only
/// ever slows one. Longer samples (ingest passes of seconds) average over
/// bursts, and their interquartile mean is the steadier figure.
void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<double>& ingest_updates_per_s,
                    const std::vector<double>& answer_samples, double answer_s,
                    double peak_rss_mb, Report* report);

/// Traced runs: the per-layer metrics every replay shares (decode, prepare,
/// plane, apply, forest extraction), the tracing overhead from the
/// per-pass ingest times, and the stage-sum rule (the replay's stage self
/// times must cover >= 95% of its wall time). Writes the spans.
void ReportReplay(const Tracer& tr, const std::vector<double>& pass_ingest_s,
                  const Options& opt, Report* report);

// ---------------------------------------------------------------------------
// Workloads.

/// The stream each workload replays, derived from the run seed alone.
gms::testkit::StreamSpec ServeRmatSpec(uint64_t seed, Size size);
gms::testkit::StreamSpec BatchDenseSpec(uint64_t seed, Size size);
gms::testkit::StreamSpec CutsRoadSpec(uint64_t seed, Size size);

void RunServeRmat(const Options& opt, Report* report);
void RunBatchDense(const Options& opt, Report* report);
void RunCutsRoad(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
