// In-memory spans for the traced run. The benchmark wraps its own calls
// into each library layer in a Scope; nothing inside src/ is instrumented.
// Spans nest on one thread (the replay is synchronous), each records its
// parent, and a layer's self time is its duration minus the part of it
// that child spans cover. With tracing off a Scope costs one branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;   // index of the enclosing span, -1 for a root
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (!tracer_->enabled_) return;
      index_ = static_cast<int>(tracer_->spans_.size());
      tracer_->spans_.push_back(Span{name, tracer_->Now(), 0, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = tracer_->spans_[static_cast<size_t>(index_)];
      s.end = tracer_->Now();
      tracer_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Summed duration of every span called `name`.
  double Total(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (name == s.name) sum += s.end - s.start;
    }
    return sum;
  }

  /// Share of root span `root`'s duration covered by its child spans, which
  /// equals the sum of its descendants' self times over its duration (the
  /// rest is the root's own self time). The stage-sum rule asks for >= 0.95.
  double StageCoverage(const std::string& root) const {
    double total = 0, covered = 0;
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (root != spans_[i].name) continue;
      total += spans_[i].end - spans_[i].start;
      covered += child[i];
    }
    return total > 0 ? covered / total : 0.0;
  }

  /// One JSON object per line: name, start, end, parent.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %d}\n",
                   s.name, s.start, s.end, s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
