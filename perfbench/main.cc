// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench gen --workload W --seed S [--reduced] --out FILE
//       Build the workload's StreamSpec from the seed and write it as GMSB.
//   perfbench run --workload W --seed S [--reduced] --file FILE
//                 --seconds T --trace 0|1 [--git-rev REV]
//       Replay FILE through the workload's user path for about T seconds,
//       check every answer against an exact oracle, and print one JSON
//       object (end-to-end metrics, per-layer metrics, provenance) as the
//       last line. run.py turns that line into the benchmark's result.
//       A traced run also writes its spans, one JSON object a line, to
//       spans/<workload>-seed<S>.jsonl next to this binary and prints that
//       path.
//
// Exit codes: 0 = result printed and every check passed; 1 = result
// printed but an oracle or self-check failed; 2 = usage error; 3 = a phase
// guard or input failure aborted the run before any result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workload/spec_convert.h"

namespace perfbench {

namespace {

struct WorkloadEntry {
  const char* name;
  gms::testkit::StreamSpec (*spec)(uint64_t, Size);
  void (*run)(const Options&, Report*);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"serve_rmat", &ServeRmatSpec, &RunServeRmat},
    {"batch_dense", &BatchDenseSpec, &RunBatchDense},
    {"cuts_road", &CutsRoadSpec, &RunCutsRoad},
};

const WorkloadEntry* FindWorkload(const std::string& name) {
  for (const WorkloadEntry& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench gen|run --workload W --seed S "
               "[--reduced] [--out FILE | --file FILE --seconds T --trace 0|1 "
               "[--git-rev REV]]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void PrintMetrics(const char* key, const std::vector<Report::Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s%s: {\"value\": %.10g, \"unit\": %s}", i ? ", " : "",
                JsonString(metrics[i].name).c_str(), metrics[i].value,
                JsonString(metrics[i].unit).c_str());
  }
  std::printf("}");
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage("missing mode");
  const std::string mode = argv[1];
  Options opt;
  std::string out, git_rev = "unknown";
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--reduced") {
      opt.size = Size::kReduced;
      continue;
    }
    if ((v = value()) == nullptr) return Usage("flag without a value");
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--file") {
      opt.file = v;
    } else if (arg == "--out") {
      out = v;
    } else if (arg == "--git-rev") {
      git_rev = v;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  const WorkloadEntry* workload = FindWorkload(opt.workload);
  if (workload == nullptr) return Usage("unknown --workload");
  if (!have_seed) return Usage("missing --seed");

  if (mode == "gen") {
    if (out.empty()) return Usage("gen needs --out");
    const gms::testkit::StreamSpec spec = workload->spec(opt.seed, opt.size);
    const gms::Status st = gms::workload::WriteSpecStreamFile(spec, out);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      return 3;
    }
    std::printf("spec: %s\n", spec.ToString().c_str());
    return 0;
  }
  if (mode != "run") return Usage("mode must be gen or run");
  if (opt.file.empty()) return Usage("run needs --file");
  if (opt.seconds <= 0) return Usage("--seconds must be positive");
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::path dir =
        std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
    if (ec) dir = std::filesystem::absolute(argv[0]).parent_path();
    dir /= "spans";
    std::filesystem::create_directories(dir, ec);
    opt.spans = (dir / (opt.workload + "-seed" + std::to_string(opt.seed) +
                        ".jsonl"))
                    .string();
  }

  Report report;
  try {
    workload->run(opt, &report);
  } catch (const RunAborted& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", workload->name,
                 e.what.c_str());
    return 3;
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());

  const bool correct = report.checks_ok && report.failed == 0;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::FILE* f = std::fopen(opt.file.c_str(), "rb");
  long file_bytes = -1;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    file_bytes = std::ftell(f);
    std::fclose(f);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics("end_to_end", report.end_to_end);
  std::printf(", ");
  PrintMetrics("per_layer", report.per_layer);
  // gms_native is always false: this package never builds with
  // -march=native, so every result is portable across x86-64 hosts.
  std::printf(
      ", \"provenance\": {\"workload\": %s, \"seed\": %llu, \"size\": %s, "
      "\"trace\": %d, \"n\": %zu, \"updates\": %llu, \"gmsb_bytes\": %ld, "
      "\"phase\": %s, \"nproc\": %ld, \"build_type\": %s, "
      "\"gms_native\": false, \"compiler\": %s, \"git_rev\": %s}}\n",
      JsonString(workload->name).c_str(),
      static_cast<unsigned long long>(opt.seed),
      opt.size == Size::kFull ? "\"full\"" : "\"reduced\"", opt.trace ? 1 : 0,
      report.n, static_cast<unsigned long long>(report.updates), file_bytes,
      JsonString(report.phase).c_str(), nproc,
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(Compiler()).c_str(),
      JsonString(git_rev).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
