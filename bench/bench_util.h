// Shared helpers for the experiment harness: trial loops, rate formatting,
// and the experiment banner convention (each binary prints the DESIGN.md
// experiment id it regenerates, followed by gms::Table rows).
#ifndef GMS_BENCH_BENCH_UTIL_H_
#define GMS_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace gms::bench {

inline void Banner(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment, claim);
  std::printf("================================================================\n");
}

/// Fraction of `trials` trials for which `trial(seed)` returns true.
inline double SuccessRate(size_t trials, uint64_t seed_base,
                          const std::function<bool(uint64_t)>& trial) {
  size_t ok = 0;
  for (size_t t = 0; t < trials; ++t) ok += trial(seed_base + t) ? 1 : 0;
  return static_cast<double>(ok) / static_cast<double>(trials);
}

inline std::string Kb(size_t bytes) {
  return Table::Fmt(static_cast<double>(bytes) / 1024.0, 1) + "KiB";
}

inline std::string Rate(double per_sec) {
  if (per_sec >= 1e6) return Table::Fmt(per_sec / 1e6, 2) + "M/s";
  if (per_sec >= 1e3) return Table::Fmt(per_sec / 1e3, 1) + "k/s";
  return Table::Fmt(per_sec, 1) + "/s";
}

/// Best-of-3 ingest wall time. Sketch state is linear, so Clear +
/// re-Process replays the identical measurement; min over repeats is the
/// standard noise-robust estimator. ALL reps are kept so consumers can
/// audit that the reported number really is the min (perf_smoke asserts
/// it). Every bench that prints an ingest comparison row reads ONE of
/// these, so the printed table and the JSON emitter cannot disagree about
/// which rep was reported.
struct IngestTiming {
  double best_secs = 0;  // min over reps -- the ONE number emitters report
  double reps[3] = {0, 0, 0};
};

/// Generic best-of-3 core: times `run()` three times, calling `reset()`
/// (untimed) before the second and third reps.
template <typename Reset, typename Run>
IngestTiming BestOfThree(const Reset& reset, const Run& run) {
  IngestTiming t;
  for (int rep = 0; rep < 3; ++rep) {
    if (rep > 0) reset();
    Timer timer;
    run();
    t.reps[rep] = timer.Seconds();
    if (rep == 0 || t.reps[rep] < t.best_secs) t.best_secs = t.reps[rep];
  }
  return t;
}

/// The common shape: Clear + Process on anything sketch-like (a sketch, an
/// app, or the ingest plane's consumer set).
template <typename Sketch, typename Stream>
IngestTiming BestOfThreeIngest(Sketch* sketch, const Stream& stream) {
  return BestOfThree([sketch] { sketch->Clear(); },
                     [sketch, &stream] { sketch->Process(stream); });
}

/// Process high-water RSS in MiB (getrusage reports KiB on Linux). The
/// growth across a call is what that call added on top of every earlier
/// peak, so measure the lighter path first.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Median and range of repeated timings.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

inline Spread SpreadOf(std::vector<double> xs) {
  Spread s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  s.median = xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
  s.min = xs.front();
  s.max = xs.back();
  return s;
}

/// `s` as a quoted JSON string.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// HEAD of the source tree this bench was built from, read when the bench
/// runs rather than when it was configured, so a stale build directory
/// cannot label its rows with an old rev. A tree whose tracked files
/// differ from HEAD (staged or not) reads "<rev>-dirty": such rows were
/// not built from the rev alone. "unknown" outside a repository.
inline std::string GitRev() {
  const std::string git = "git -C '" GMS_BENCH_SOURCE_DIR "' ";
  FILE* p = popen((git + "rev-parse HEAD 2>/dev/null").c_str(), "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
  const int status = pclose(p);
  std::string rev = got && status == 0 ? buf : "";
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  if (rev.empty()) return "unknown";
  // `diff --quiet` exits 1 when a tracked file differs from HEAD.
  if (std::system((git + "diff --quiet HEAD -- 2>/dev/null").c_str()) != 0) {
    rev += "-dirty";
  }
  return rev;
}

/// The "host" member every BENCH_*.json carries right after "bench": the
/// CPUs this process may run on, build type, whether the build was tuned
/// with -march=native (GMS_NATIVE), the compiler, and the git rev.
inline void WriteHostBlock(FILE* f) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::fprintf(f,
               "  \"host\": {\"nproc\": %zu, \"build_type\": %s, "
               "\"gms_native\": %s, \"compiler\": %s, \"git_rev\": %s},\n",
               HardwareThreads(), JsonQuote(GMS_BENCH_BUILD_TYPE).c_str(),
               GMS_BENCH_NATIVE ? "true" : "false",
               JsonQuote(compiler).c_str(), JsonQuote(GitRev()).c_str());
}

}  // namespace gms::bench

#endif  // GMS_BENCH_BENCH_UTIL_H_
