#include "harness.h"

namespace perfbench {

uint64_t PrepareOnly(const gms::EdgeCodec& codec,
                     std::span<const gms::StreamUpdate> chunk) {
  uint64_t sum = 0;
  for (const gms::StreamUpdate& u : chunk) {
    sum += gms::PrepareCoord(codec.Encode(u.edge)).exponent;
  }
  return sum;
}

double DenseColumnFrac(const gms::SpanningForestSketch& sketch) {
  size_t dense = 0;
  for (size_t v = 0; v < sketch.n(); ++v) {
    dense += sketch.VertexEscalated(static_cast<gms::VertexId>(v)) ? 1 : 0;
  }
  return sketch.n() == 0 ? 0.0
                         : static_cast<double>(dense) /
                               static_cast<double>(sketch.n());
}

bool MorePasses(const Options& opt, Clock::time_point run_start, size_t p) {
  return p == 0 || SecondsSince(run_start) < opt.seconds ||
         (opt.trace && p < 2);
}

void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<double>& ingest_updates_per_s,
                    const std::vector<double>& answer_samples, double answer_s,
                    double peak_rss_mb, Report* report) {
  report->notes.push_back("samples: setup_s " + List(setup_s) +
                          " ingest_updates_per_s " +
                          List(ingest_updates_per_s) + " answer_s " +
                          List(answer_samples));
  report->E2e("setup_s", Quantile(setup_s, 0), "s");
  report->E2e("ingest_updates_per_s", InterquartileMean(ingest_updates_per_s),
              "1/s");
  report->E2e("answer_s", answer_s, "s");
  report->E2e("peak_rss_mb", peak_rss_mb, "MiB");
}

void ReportReplay(const Tracer& tr, const std::vector<double>& pass_ingest_s,
                  const Options& opt, Report* report) {
  const double plane = tr.Total("stream.plane");
  const double prepare = tr.Total("stream.prepare");
  report->Layer("workload.decode_s", tr.Total("workload.decode"), "s");
  report->Layer("stream.plane_s", plane, "s");
  report->Layer("stream.prepare_s", prepare, "s");
  report->Layer("sketch.apply_s", plane - prepare, "s");
  report->Layer("connectivity.extract_s", tr.Total("connectivity.extract"),
                "s");

  std::vector<double> plain, traced;
  for (size_t p = 0; p < pass_ingest_s.size(); ++p) {
    (p % 2 ? traced : plain).push_back(pass_ingest_s[p]);
  }
  report->Layer("trace.overhead_frac", Median(traced) / Median(plain) - 1,
                "ratio");

  const double coverage = tr.StageCoverage("replay");
  report->Layer("replay.stage_coverage", coverage, "ratio");
  if (coverage < 0.95) {
    report->Fail("replay stage self times cover " + std::to_string(coverage) +
                 " of the replay wall time");
  }
  if (!tr.Write(opt.spans)) {
    report->Fail("cannot write spans to " + opt.spans);
  } else {
    report->notes.push_back("spans: " + opt.spans);
  }
}

}  // namespace perfbench
