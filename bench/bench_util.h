// Shared helpers for the experiment harness: trial loops, rate formatting,
// and the experiment banner convention (each binary prints the DESIGN.md
// experiment id it regenerates, followed by gms::Table rows).
#ifndef GMS_BENCH_BENCH_UTIL_H_
#define GMS_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

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

}  // namespace gms::bench

#endif  // GMS_BENCH_BENCH_UTIL_H_
