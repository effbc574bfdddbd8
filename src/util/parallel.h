// Fixed thread pool and deterministic parallel-for.
//
// The sketching stack parallelizes by SHARDING OWNERSHIP, not by locking:
// a structure made of many independent linear states (the R subsampled
// forests of Theorem 4, the k layers of a skeleton sketch, the rows of the
// Section 5 sparsifier, the Boruvka rounds within one forest sketch)
// partitions its states into contiguous static shards, and each shard is
// mutated by exactly one worker. Because sketches are linear and a shard
// sees its updates in stream order, the result is bit-identical to the
// serial path for every thread count -- there is nothing to synchronize on
// the hot path and nothing for the schedule to reorder.
#ifndef GMS_UTIL_PARALLEL_H_
#define GMS_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gms {

/// Process-wide pool of helper threads, grown on demand and kept for the
/// lifetime of the process (workers block on a condition variable between
/// jobs; an idle pool costs nothing on the hot path).
class ThreadPool {
 public:
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The shared pool. First use from any thread creates it.
  static ThreadPool& Shared();

  /// Invoke fn(shard) for every shard in [0, shards): shard 0 runs on the
  /// calling thread, shard s > 0 on helper thread s-1. Blocks until all
  /// shards return. Top-level only -- a shard that itself reaches a
  /// ParallelFor runs it inline (see below), so nesting cannot deadlock.
  /// Requires shards >= 2: ParallelFor runs a single shard inline without
  /// the pool. Deliberately NOT clamped to HardwareThreads(): tests
  /// exercise oversubscribed shard counts here.
  void Run(size_t shards, const std::function<void(size_t)>& fn);

  /// True while the calling thread is executing a shard of some Run.
  static bool InParallelRegion();

 private:
  ThreadPool() = default;
  void EnsureHelpers(size_t count);  // callers hold mu_
  void HelperLoop(size_t helper);

  std::mutex run_mu_;  // serializes concurrent top-level Run calls
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> helpers_;
  const std::function<void(size_t)>* task_ = nullptr;
  size_t shards_ = 0;
  size_t pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
};

/// CPUs actually available to this process: the scheduling-affinity mask
/// when the OS exposes one (containers and taskset often grant fewer CPUs
/// than the machine has), hardware_concurrency otherwise, never 0. Cached
/// after the first call. ParallelFor clamps its shard fan-out here --
/// oversubscribing a CPU-bound loop past the available cores only buys
/// context switches and cache thrash (the "mid-thread regression": 2
/// workers on 1 core ran SLOWER than serial).
size_t HardwareThreads();

/// The contiguous static shard [begin, end) of [0, n) with index `shard`
/// out of `shards`. Depends only on (n, shard, shards), never on the
/// schedule: this is what makes parallel sketch ingestion deterministic.
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;
};
inline ShardRange ShardOf(size_t n, size_t shard, size_t shards) {
  return ShardRange{shard * n / shards, (shard + 1) * n / shards};
}

/// Run body(begin, end) over contiguous static shards of [0, n). The shard
/// count is min(threads, n, HardwareThreads()): requesting more workers
/// than available CPUs never helps a CPU-bound loop, so the engine degrades
/// gracefully instead of oversubscribing. threads <= 1, n <= 1, or a call
/// from inside another parallel region runs the whole range inline on the
/// calling thread. Results never depend on the shard count -- every engine
/// loop either owns disjoint state per index or reduces with exact field
/// arithmetic -- so the clamp is invisible except in wall time.
inline void ParallelFor(size_t threads, size_t n,
                        const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  size_t shards = std::min({threads, n, HardwareThreads()});
  if (shards <= 1 || ThreadPool::InParallelRegion()) {
    body(0, n);
    return;
  }
  ThreadPool::Shared().Run(shards, [&](size_t shard) {
    ShardRange r = ShardOf(n, shard, shards);
    if (r.begin < r.end) body(r.begin, r.end);
  });
}

/// ParallelFor with shard boundaries rounded to multiples of `grain`.
/// Loops whose per-index outputs are ADJACENT bytes (a std::vector<char>
/// flag per index, say) invite false sharing at shard seams: two workers
/// read-modify-write the same cache line for the whole loop. Sharding whole
/// grain-sized blocks (64 indices of a byte array = one cache line) gives
/// every worker line-exclusive output. The final partial block goes to the
/// last shard; boundaries still depend only on (n, grain, shard count).
inline void ParallelForAligned(size_t threads, size_t n, size_t grain,
                               const std::function<void(size_t, size_t)>& body) {
  if (grain <= 1) {
    ParallelFor(threads, n, body);
    return;
  }
  const size_t blocks = (n + grain - 1) / grain;
  ParallelFor(threads, blocks, [&](size_t bbegin, size_t bend) {
    const size_t begin = bbegin * grain;
    const size_t end = std::min(n, bend * grain);
    if (begin < end) body(begin, end);
  });
}

/// Tag for the empty-clone constructors behind the mergeable-sketch
/// CloneEmpty() concept (the serving layer's epoch deltas): same seed,
/// shapes, and active sets as the source sketch, but zero cells --
/// WITHOUT copying the source arena first.
struct CloneEmptyTag {};

}  // namespace gms

#endif  // GMS_UTIL_PARALLEL_H_
