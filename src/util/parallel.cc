#include "util/parallel.h"

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/check.h"

namespace gms {

namespace {
thread_local bool t_in_parallel_region = false;
}  // namespace

size_t HardwareThreads() {
  static const size_t count = [] {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      const int c = CPU_COUNT(&set);
      if (c > 0) return static_cast<size_t>(c);
    }
#endif
    const unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<size_t>(hc) : size_t{1};
  }();
  return count;
}

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives all users
  return *pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : helpers_) t.join();
}

void ThreadPool::EnsureHelpers(size_t count) {
  while (helpers_.size() < count) {
    size_t index = helpers_.size();
    helpers_.emplace_back([this, index] { HelperLoop(index); });
  }
}

void ThreadPool::HelperLoop(size_t helper) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    // Helper h owns shard h+1 of the current job (the caller runs shard 0);
    // helpers beyond the job's shard count just re-arm for the next one.
    if (helper + 1 < shards_) {
      const std::function<void(size_t)>* task = task_;
      lock.unlock();
      t_in_parallel_region = true;
      (*task)(helper + 1);
      t_in_parallel_region = false;
      lock.lock();
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::Run(size_t shards, const std::function<void(size_t)>& fn) {
  GMS_CHECK_MSG(shards >= 2, "ThreadPool::Run needs at least 2 shards");
  std::lock_guard<std::mutex> run_lock(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureHelpers(shards - 1);
    task_ = &fn;
    shards_ = shards;
    pending_ = shards - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  t_in_parallel_region = true;
  fn(0);
  t_in_parallel_region = false;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  task_ = nullptr;
  shards_ = 0;
}

}  // namespace gms
